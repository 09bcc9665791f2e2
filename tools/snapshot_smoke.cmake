# Snapshot round-trip smoke (ctest target `snapshot_roundtrip_smoke`):
# generate a tiny fleet workload, train a tiny model, replay to a mid-stream
# snapshot and stop (a simulated crash at a snapshot boundary), resume in a
# fresh process, and require the union of the crash-run and resumed-run
# alert streams to equal the uninterrupted run's alert stream exactly.
#
# On failure the work dir — including fleet.snap, the three replay logs, and
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

# Reference: the uninterrupted replay.
run_step(full.log ${OASD_SIMULATE} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --threads 1 --batch 4 --print-alerts)

# Crash at the first snapshot boundary (~mid-stream of the ~1.6k points).
run_step(crash.log ${OASD_SIMULATE} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --threads 1 --batch 4 --print-alerts
  --snapshot-every 800 --max-points 800
  --snapshot-path ${WORK_DIR}/fleet.snap)

# The snapshot must describe cleanly (exercises oasd_inspect dispatch) and
# list every counter under its metrics name; the last one stands for all.
run_step(inspect.log ${OASD_INSPECT} ${WORK_DIR}/fleet.snap --trips)
file(READ ${WORK_DIR}/inspect.log inspect_log)
if(NOT inspect_log MATCHES "guard_quarantine_evictions")
  message(FATAL_ERROR "oasd_inspect does not list guard_quarantine_evictions:"
    "\n${inspect_log}\n(work dir kept at ${WORK_DIR})")
endif()

# Fresh-process resume from the snapshot.
run_step(resume.log ${OASD_SIMULATE} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --threads 1 --batch 4 --print-alerts
  --resume-from ${WORK_DIR}/fleet.snap)

# Per-vehicle alert multisets must match exactly: sort the ALERT lines of
# the uninterrupted run against crash + resume combined.
function(alert_lines out)
  set(lines)
  foreach(log ${ARGN})
    file(READ ${WORK_DIR}/${log} content)
    # An unbalanced "[" inside a CMake list element swallows the ";"
    # separators that follow it; the alert ranges print as "[a,b)", so
    # normalize the bracket away before any list operation.
    string(REPLACE "[" "<" content "${content}")
    string(REPLACE "\n" ";" content "${content}")
    foreach(line ${content})
      if(line MATCHES "^ALERT ")
        list(APPEND lines "${line}")
      endif()
    endforeach()
  endforeach()
  list(SORT lines)
  set(${out} "${lines}" PARENT_SCOPE)
endfunction()

alert_lines(full_alerts full.log)
alert_lines(split_alerts crash.log resume.log)

list(LENGTH full_alerts n_full)
if(n_full EQUAL 0)
  message(FATAL_ERROR
    "smoke is vacuous: the uninterrupted replay produced no alerts")
endif()
if(NOT "${full_alerts}" STREQUAL "${split_alerts}")
  message(FATAL_ERROR
    "restore-equivalence violated: uninterrupted alerts != crash+resume "
    "alerts\n--- uninterrupted ---\n${full_alerts}\n--- crash+resume ---\n"
    "${split_alerts}\n(work dir kept at ${WORK_DIR})")
endif()

message(STATUS "snapshot smoke OK: ${n_full} alerts identical across the "
  "crash/resume boundary")
file(REMOVE_RECURSE ${WORK_DIR})
