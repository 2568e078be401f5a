# Records `table2_sat_sweeping --journal-out JOURNAL alu4` and passes only
# if the `sweep_inspect --sat` report credits SAT calls to both arms the
# driver runs (RevS and AI+DC+MFFC): every cone fingerprint must carry
# the strategy of the flow that produced it.
execute_process(COMMAND "${TABLE2}" --journal-out "${JOURNAL}" alu4
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "table2_sat_sweeping exit ${status}: ${err}")
endif()
execute_process(COMMAND "${INSPECT}" --sat --quiet "${JOURNAL}"
                RESULT_VARIABLE status OUTPUT_VARIABLE report
                ERROR_VARIABLE err TIMEOUT 60)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "sweep_inspect exit ${status}: ${err}")
endif()
string(FIND "${report}" "SAT time by strategy arm:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no arm table in the --sat report:\n${report}")
endif()
string(SUBSTRING "${report}" ${at} -1 arms)
foreach(arm "RevS" "AI+DC+MFFC")
  string(REPLACE "+" "\\+" pattern "${arm}")
  if(NOT arms MATCHES "\n  ${pattern} +[0-9]+ ")
    message(FATAL_ERROR "arm ${arm} missing from the arm table:\n${arms}")
  endif()
endforeach()
