# Runs `cec_two_networks --threads 4 alu4` (EXE is the binary) and passes
# only if it exits 1 with "unknown option '--threads'" on stderr: the flag
# must not be read as a file name, and exit 2 would mean UNDECIDED.
execute_process(COMMAND "${EXE}" --threads 4 alu4
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status EQUAL 1 OR NOT err MATCHES "unknown option '--threads'")
  message(FATAL_ERROR "exit ${status}, stderr: ${err}")
endif()
