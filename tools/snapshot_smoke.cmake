# Snapshot round-trip smoke (ctest target `snapshot_roundtrip_smoke`):
# generate a tiny fleet workload, train a tiny model, and run three
# round trips through the one replay loop: clean edges through FeedBatch,
# --matched-ingest streams through FeedBatch, and clean edges through the
# async staged pipeline (--async), each with a rolling window of 4 trips.
# Each round replays to the first snapshot and stops (a simulated crash at a
# snapshot boundary), resumes in a fresh process, and requires the union of
# the crash-run and resumed-run alert streams to equal the uninterrupted
# run's alert stream exactly, and the resumed run to end on the
# uninterrupted run's snapshotted counters; the first round's snapshot must
# also resume under --batch 0. A last step requires each combination the
# replay still refuses to exit nonzero with its reason.
#
# On failure the work dir — including the snapshots, the replay logs, and
# the model bundle — is left behind for triage; the CI jobs upload it as an
# artifact. On success it is removed.
#
# Expected -D variables: OASD_GEN OASD_TRAIN OASD_SIMULATE OASD_INSPECT
# WORK_DIR

foreach(var OASD_GEN OASD_TRAIN OASD_SIMULATE OASD_INSPECT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "snapshot_smoke.cmake: missing -D${var}")
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

# Tiny but alert-rich workload: high anomaly ratio so the equivalence check
# is not vacuous, fixed seeds so the replay is deterministic.
run_step(gen.log ${OASD_GEN} --out-dir ${WORK_DIR}
  --grid-rows 10 --grid-cols 10 --pairs 6 --min-trajs 30 --max-trajs 60
  --train-size 400 --min-pair-dist 800 --max-pair-dist 2500
  --anomaly-ratio 0.3)
run_step(train.log ${OASD_TRAIN} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --hidden-dim 16 --embed-dim 16
  --pretrain-samples 60 --joint-samples 120)

set(simulate ${OASD_SIMULATE} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --threads 1 --print-alerts)

# Sorted lines of the given logs that match `pattern`.
function(sorted_lines out pattern)
  set(lines)
  foreach(log ${ARGN})
    file(READ ${WORK_DIR}/${log} content)
    # An unbalanced "[" inside a CMake list element swallows the ";"
    # separators that follow it; the alert ranges print as "[a,b)", so
    # normalize the bracket away before any list operation.
    string(REPLACE "[" "<" content "${content}")
    string(REPLACE "\n" ";" content "${content}")
    foreach(line ${content})
      if(line MATCHES "${pattern}")
        list(APPEND lines "${line}")
      endif()
    endforeach()
  endforeach()
  list(SORT lines)
  set(${out} "${lines}" PARENT_SCOPE)
endfunction()

# The snapshotted service counters resume from the snapshot, so a resumed
# run must end on the uninterrupted run's values. The async pipeline's
# per-process counters (points submitted, alerts delivered) are left out.
set(counters
  "^(fleet_trips_|fleet_points_processed |fleet_alerts_emitted |guard_)")

# Crash + resume must give the uninterrupted run's per-vehicle alert
# multiset (at least one alert) and end on its counters.
function(check_resume what full crash resume)
  sorted_lines(full_alerts "^ALERT " ${full})
  sorted_lines(split_alerts "^ALERT " ${crash} ${resume})
  sorted_lines(full_counters "${counters}" ${full})
  sorted_lines(resumed_counters "${counters}" ${resume})
  list(LENGTH full_alerts n_full)
  if(n_full EQUAL 0)
    message(FATAL_ERROR "snapshot smoke ${what} is vacuous: the "
      "uninterrupted replay produced no alerts")
  endif()
  if(NOT "${full_alerts}" STREQUAL "${split_alerts}" OR
     NOT "${full_counters}" STREQUAL "${resumed_counters}")
    message(FATAL_ERROR
      "restore-equivalence violated in ${what}: uninterrupted != "
      "crash+resume\n--- uninterrupted ---\n${full_alerts}\n"
      "${full_counters}\n--- crash+resume ---\n${split_alerts}\n"
      "${resumed_counters}\n(work dir kept at ${WORK_DIR})")
  endif()
  message(STATUS "snapshot smoke ${what}: ${n_full} alerts and every "
    "snapshotted counter identical across the crash/resume boundary")
endfunction()

# One round: the uninterrupted replay, a crash at the first snapshot boundary
# (~mid-stream of the ~1.6k points), and a fresh-process resume.
function(roundtrip name)
  run_step(${name}_full.log ${simulate} ${ARGN})
  run_step(${name}_crash.log ${simulate} ${ARGN}
    --snapshot-every 800 --max-points 800
    --snapshot-path ${WORK_DIR}/${name}.snap)
  run_step(${name}_resume.log ${simulate} ${ARGN}
    --resume-from ${WORK_DIR}/${name}.snap)
  check_resume("round '${name}'" ${name}_full.log ${name}_crash.log
    ${name}_resume.log)
endfunction()

roundtrip(feed_batch --batch 4)
roundtrip(matched_ingest --matched-ingest --batch 4)
roundtrip(async --async --batch 4)

# A resume need not keep the snapshot's ingest mode: the --batch 4 snapshot
# resumed at --batch 0 feeds its restored 4-trip window point by point.
run_step(feed_batch_resume_feed.log ${simulate} --batch 0
  --resume-from ${WORK_DIR}/feed_batch.snap)
check_resume("resume at --batch 0" feed_batch_full.log feed_batch_crash.log
  feed_batch_resume_feed.log)

# A snapshot must describe cleanly (exercises oasd_inspect dispatch) and
# list every counter under its metrics name; the last one stands for all.
run_step(inspect.log ${OASD_INSPECT} ${WORK_DIR}/feed_batch.snap --trips)
file(READ ${WORK_DIR}/inspect.log inspect_log)
if(NOT inspect_log MATCHES "guard_quarantine_evictions")
  message(FATAL_ERROR "oasd_inspect does not list guard_quarantine_evictions:"
    "\n${inspect_log}\n(work dir kept at ${WORK_DIR})")
endif()

# The combinations the replay still refuses must exit nonzero and say why.
function(expect_refusal name reason)
  execute_process(
    COMMAND ${OASD_SIMULATE} --data-dir ${WORK_DIR}
      --model ${WORK_DIR}/model.rlmb ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "${reason}")
    message(FATAL_ERROR "refusal '${name}' did not refuse with its reason "
      "'${reason}' (exit ${rc}):\n${out}${err}\n"
      "(work dir kept at ${WORK_DIR})")
  endif()
endfunction()

expect_refusal(durable_threads "require --threads 1"
  --threads 2 --snapshot-every 800)
expect_refusal(durable_adapt "--adapt cannot be combined with snapshot"
  --threads 1 --adapt --max-points 800)
expect_refusal(durable_chaos "--chaos is incompatible with snapshot"
  --threads 1 --chaos drop=0.1 --max-points 800)
expect_refusal(async_adapt "--async cannot be combined with --adapt"
  --async --adapt)

message(STATUS "snapshot smoke OK: three round trips and a cross-mode "
  "resume identical across the crash/resume boundary; four refusals "
  "refused")
file(REMOVE_RECURSE ${WORK_DIR})
