# Runs `EXE ARGS...` (ARGS is one space-separated string) and passes only
# if it exits with STATUS and its stderr matches the regex PATTERN: a
# program must reject an option it does not know (a mistyped or retired
# flag) or a malformed number, instead of reading the option as a file
# name or the number as 0. The timeout bounds a regression that would run
# the whole workload.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT status EQUAL STATUS OR NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR "exit ${status}, stderr: ${err}")
endif()
