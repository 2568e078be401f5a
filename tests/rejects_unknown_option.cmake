# Runs `EXE FLAG 4 alu4` and passes only if it exits with STATUS and
# prints "unknown option 'FLAG'" on stderr: a program must reject an
# option it does not know (a mistyped or retired flag) instead of reading
# it as a file name or ignoring it. The timeout bounds a regression that
# would run the whole workload.
execute_process(COMMAND "${EXE}" "${FLAG}" 4 alu4
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT status EQUAL STATUS OR NOT err MATCHES "unknown option '${FLAG}'")
  message(FATAL_ERROR "exit ${status}, stderr: ${err}")
endif()
