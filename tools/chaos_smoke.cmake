# Chaos ingest smoke (ctest target `chaos_ingest_smoke`): generate a tiny
# fleet workload, train a tiny model, then replay it through oasd_simulate
# with a seeded --chaos spec and require three robustness properties end to
# end, on the real binaries:
#
#   1. Determinism — two identical seeded chaos runs produce the identical
#      per-vehicle alert multiset and identical guard/fleet metrics (the
#      injector is seeded per worker and trips are strided deterministically
#      across threads).
#   2. Mode equivalence — per-point Feed (--batch 0), FeedBatch waves
#      (--batch 4), and the async staged pipeline (--async, --async
#      --batch 4) of the same seeded chaos stream produce the same alert
#      multiset (every mode runs the one replay loop, and the guard runs
#      below every ingest path). The same holds for perturbed
#      --matched-ingest streams, per-point against --async --batch 4.
#   3. Conservation — the metrics dump satisfies
#      trips_started == trips_finished + trips_evicted + trips_active
#      and sheds nothing under the default kBlock policy.
#
# On failure the work dir — dataset, model, and all replay logs — is left
# behind for triage; the CI jobs upload it as an artifact. On success it is
# removed.
#
# Expected -D variables: OASD_GEN OASD_TRAIN OASD_SIMULATE WORK_DIR

foreach(var OASD_GEN OASD_TRAIN OASD_SIMULATE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "chaos_smoke.cmake: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step log_name)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${WORK_DIR}/${log_name}
    ERROR_FILE ${WORK_DIR}/${log_name})
  if(NOT rc EQUAL 0)
    file(READ ${WORK_DIR}/${log_name} log)
    message(FATAL_ERROR "step '${log_name}' failed (${rc}):\n${log}")
  endif()
endfunction()

# Tiny but alert-rich workload: high anomaly ratio so the alert-equivalence
# checks are not vacuous, fixed seeds so everything is deterministic.
run_step(gen.log ${OASD_GEN} --out-dir ${WORK_DIR}
  --grid-rows 10 --grid-cols 10 --pairs 6 --min-trajs 30 --max-trajs 60
  --train-size 400 --min-pair-dist 800 --max-pair-dist 2500
  --anomaly-ratio 0.3)
run_step(train.log ${OASD_TRAIN} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --hidden-dim 16 --embed-dim 16
  --pretrain-samples 60 --joint-samples 120)

# A mixed spec that exercises every anomaly class plus the quarantine path
# (--chaos arms the guard in repair mode with a malformed budget of 8).
set(spec "drop=0.03,dup=0.04,reorder=0.03,skew=0.02,teleport=0.03,seed=42")

# Two identical seeded runs (determinism), then the same stream through the
# other ingest modes (mode equivalence).
set(simulate ${OASD_SIMULATE} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --threads 2 --print-alerts --chaos ${spec})
run_step(chaos_a.log ${simulate} --batch 4)
run_step(chaos_b.log ${simulate} --batch 4)
run_step(chaos_feed.log ${simulate} --batch 0)
run_step(chaos_async.log ${simulate} --async)
run_step(chaos_async_batch.log ${simulate} --async --batch 4)
run_step(chaos_matched_feed.log ${simulate} --matched-ingest --batch 0)
run_step(chaos_matched_async_batch.log ${simulate} --matched-ingest --async
  --batch 4)

# Collects lines matching `pattern` from a log, sorted (alert arrival order
# across worker threads is scheduling-dependent; the multiset is not).
function(matching_lines out log pattern)
  file(READ ${WORK_DIR}/${log} content)
  # An unbalanced "[" inside a CMake list element swallows the ";"
  # separators that follow it; alert ranges print as "[a,b)", so normalize
  # the bracket away before any list operation.
  string(REPLACE "[" "<" content "${content}")
  string(REPLACE "\n" ";" content "${content}")
  set(lines)
  foreach(line ${content})
    if(line MATCHES "${pattern}")
      list(APPEND lines "${line}")
    endif()
  endforeach()
  list(SORT lines)
  set(${out} "${lines}" PARENT_SCOPE)
endfunction()

matching_lines(alerts_a chaos_a.log "^ALERT ")
matching_lines(alerts_b chaos_b.log "^ALERT ")

list(LENGTH alerts_a n_alerts)
if(n_alerts EQUAL 0)
  message(FATAL_ERROR
    "chaos smoke is vacuous: the perturbed replay produced no alerts "
    "(work dir kept at ${WORK_DIR})")
endif()
if(NOT "${alerts_a}" STREQUAL "${alerts_b}")
  message(FATAL_ERROR
    "seeded chaos replay is not deterministic: two identical runs disagree"
    "\n--- run A ---\n${alerts_a}\n--- run B ---\n${alerts_b}\n"
    "(work dir kept at ${WORK_DIR})")
endif()
foreach(mode feed async async_batch)
  matching_lines(alerts_mode chaos_${mode}.log "^ALERT ")
  if(NOT "${alerts_a}" STREQUAL "${alerts_mode}")
    message(FATAL_ERROR
      "ingest-mode divergence under chaos: --batch 4 and ${mode} disagree"
      "\n--- --batch 4 ---\n${alerts_a}\n--- ${mode} ---\n${alerts_mode}\n"
      "(work dir kept at ${WORK_DIR})")
  endif()
endforeach()
matching_lines(alerts_matched chaos_matched_feed.log "^ALERT ")
matching_lines(alerts_matched_async chaos_matched_async_batch.log "^ALERT ")
list(LENGTH alerts_matched n_matched)
if(n_matched EQUAL 0 OR NOT "${alerts_matched}" STREQUAL
   "${alerts_matched_async}")
  message(FATAL_ERROR
    "matched-ingest chaos replay is vacuous or mode-dependent: per-point "
    "and --async --batch 4 disagree\n--- per-point ---\n${alerts_matched}\n"
    "--- async ---\n${alerts_matched_async}\n(work dir kept at ${WORK_DIR})")
endif()

# The guard and fleet counters in the metrics dump must also be identical
# across the two seeded runs (timing lines are excluded by construction:
# metrics lines are bare `name value` pairs).
matching_lines(metrics_a chaos_a.log "^(fleet|guard|model)_")
matching_lines(metrics_b chaos_b.log "^(fleet|guard|model)_")
if(NOT "${metrics_a}" STREQUAL "${metrics_b}")
  message(FATAL_ERROR
    "seeded chaos replay is not deterministic: metrics disagree"
    "\n--- run A ---\n${metrics_a}\n--- run B ---\n${metrics_b}\n"
    "(work dir kept at ${WORK_DIR})")
endif()

# Conservation and non-vacuity, parsed from run A's metrics dump.
function(metric out log name)
  file(READ ${WORK_DIR}/${log} content)
  if(NOT content MATCHES "${name} ([0-9]+)")
    message(FATAL_ERROR
      "metric '${name}' missing from ${log} (work dir kept at ${WORK_DIR})")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

metric(started chaos_a.log fleet_trips_started)
metric(finished chaos_a.log fleet_trips_finished)
metric(evicted chaos_a.log fleet_trips_evicted)
metric(active chaos_a.log fleet_trips_active)
metric(shed chaos_a.log fleet_points_shed)
metric(quarantined chaos_a.log guard_trips_quarantined)
metric(dups chaos_a.log guard_duplicates)
metric(skews chaos_a.log guard_clock_skew)

math(EXPR accounted "${finished} + ${evicted} + ${active}")
if(NOT started EQUAL accounted)
  message(FATAL_ERROR
    "trip conservation broken: started ${started} != finished ${finished} "
    "+ evicted ${evicted} + active ${active} (work dir kept at ${WORK_DIR})")
endif()
if(NOT shed EQUAL 0)
  message(FATAL_ERROR
    "kBlock replay shed ${shed} points (work dir kept at ${WORK_DIR})")
endif()
if(dups EQUAL 0 OR skews EQUAL 0)
  message(FATAL_ERROR
    "chaos smoke is vacuous: guard saw ${dups} duplicates / ${skews} skews "
    "(work dir kept at ${WORK_DIR})")
endif()

message(STATUS "chaos smoke OK: ${n_alerts} alerts identical across seeded "
  "runs and ingest modes (${n_matched} over matched streams); ${started} "
  "trips conserved (${quarantined} quarantined)")
file(REMOVE_RECURSE ${WORK_DIR})
