# ctest check for a CLI's usage errors: runs
#   CLI [ARGS...] OPTION [VALUE]
# (ARGS and VALUE only when defined, so -DVALUE= passes an empty argument)
# and fails unless the CLI exits with status 2 and its standard error
# contains EXPECT (default: "OPTION needs a value").
set(cmd "${CLI}")
if(DEFINED ARGS)
  list(APPEND cmd ${ARGS})
endif()
list(APPEND cmd "${OPTION}")
if(DEFINED VALUE)
  execute_process(COMMAND ${cmd} "${VALUE}"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
else()
  execute_process(COMMAND ${cmd}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
endif()
if(NOT DEFINED EXPECT)
  set(EXPECT "${OPTION} needs a value")
endif()
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "exit status ${status}, want 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks `${EXPECT}`:\n${err}")
endif()
