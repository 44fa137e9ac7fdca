# Writes a small demo dataset to WORK, reconciles it with `--algo ALGO
# --max-merges 1 --threads 4` (ALGO defaults to depgraph), and fails unless
# the run exits 0 after exactly one merge and reports the merge-budget stop.
#   cmake -DBIN=... -DWORK=... [-DALGO=...] -P expect_merge_budget.cmake
if(NOT DEFINED ALGO)
  set(ALGO depgraph)
endif()
execute_process(COMMAND "${BIN}" --demo "${WORK}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--demo ${WORK}: expected exit 0, got ${rc}: ${err}")
endif()
execute_process(
  COMMAND "${BIN}" --algo ${ALGO} --max-merges 1 --threads 4 "${WORK}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(REMOVE "${WORK}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "--algo ${ALGO} --max-merges 1: expected exit 0, got ${rc}: ${err}")
endif()
if(NOT out MATCHES " 1 merges;" OR NOT out MATCHES "Stop: merge-budget ")
  message(FATAL_ERROR
    "--algo ${ALGO} --max-merges 1: expected 1 merge and a merge-budget "
    "stop, got:\n${out}")
endif()
