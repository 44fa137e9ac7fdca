# Runs `BIN [ARGS...] FLAG VALUE missing-input.txt` and fails unless it exits
# 2 (usage error) with a diagnostic on stderr matching ERR. The input file
# need not exist: a bad flag value must be rejected before any input is read.
#   cmake -DBIN=... [-DARGS=a;b] -DFLAG=... -DVALUE=... -DERR=...
#     -P expect_usage_error.cmake
execute_process(COMMAND "${BIN}" ${ARGS} "${FLAG}" "${VALUE}"
                missing-input.txt
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "${ERR}")
  list(JOIN ARGS " " args)
  message(FATAL_ERROR "${args} ${FLAG} ${VALUE}: expected exit 2 and "
    "\"${ERR}\", got ${rc}: ${err}")
endif()
