# Records a live sampler series with `oodb top --live` and checks the
# whole series pipeline: the run exits 0, the written series passes the
# `check-trace --series` schema check, and the bottleneck report names
# a dominant phase over a run that committed transactions and executed
# actions.
#
#   cmake -DOODB=<binary> -DSERIES=<scratch file> -P top_live.cmake
file(REMOVE ${SERIES})
execute_process(COMMAND ${OODB} top --live --threads=2 --txns=200
                        --series-out=${SERIES} --report
                OUTPUT_VARIABLE report
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "oodb top --live: exit status ${rc}")
endif()
execute_process(COMMAND ${OODB} check-trace --series ${SERIES}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "oodb check-trace --series ${SERIES}: exit status ${rc}")
endif()
if(NOT report MATCHES "\"dominant_phase\": \"[a-z-]+\"")
  message(FATAL_ERROR "report names no dominant phase:\n${report}")
endif()
if(NOT report MATCHES "\"committed\": [1-9]")
  message(FATAL_ERROR "report shows no committed transactions:\n${report}")
endif()
if(NOT report MATCHES "\"operations\": [1-9]")
  message(FATAL_ERROR "report shows no executed actions:\n${report}")
endif()
