# ctest check for ccredf_sweep's usage errors: runs
#   CLI GRID OPTION [VALUE]
# (VALUE only when defined, so -DVALUE= passes an empty argument) and fails
# unless the CLI exits with status 2 and reports "OPTION needs a value" on
# standard error.
if(DEFINED VALUE)
  execute_process(COMMAND "${CLI}" "${GRID}" "${OPTION}" "${VALUE}"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
else()
  execute_process(COMMAND "${CLI}" "${GRID}" "${OPTION}"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
endif()
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "exit status ${status}, want 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${OPTION} needs a value" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks `${OPTION} needs a value`:\n${err}")
endif()
