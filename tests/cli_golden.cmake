# Runs one `oodb` invocation and byte-compares its stdout against a
# checked-in golden; the exit status must be 0.
#
#   cmake -DOODB=<binary> -DARGS="<sub> <flags...>" -DGOLDEN=<file>
#         -DOUT=<scratch file> -P cli_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${OODB} ${args}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "oodb ${ARGS}: exit status ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u ${GOLDEN} ${OUT})
  message(FATAL_ERROR "oodb ${ARGS}: output differs from ${GOLDEN}")
endif()
