# Runs `EXE ARGS...` (ARGS, optional, is one space-separated string) and
# passes only if it exits 0 and its stdout holds every line of LINES
# ('|'-separated) verbatim: results a program prints that EXPERIMENTS.md
# or a repro quotes, so a change that moves them fails here first.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE status OUTPUT_VARIABLE out
                ERROR_QUIET TIMEOUT 120)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "exit ${status}")
endif()
string(REPLACE "|" ";" lines "${LINES}")
foreach(line IN LISTS lines)
  string(FIND "${out}" "${line}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing line: ${line}\nstdout: ${out}")
  endif()
endforeach()
