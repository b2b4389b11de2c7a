# Runs TOOL on INPUT with OPTION and checks how it ends: EXIT is "zero"
# or "nonzero" (a crash is neither), and the combined stdout and stderr
# must match the regular expression MATCH. Usage (see CMakeLists.txt):
#   cmake -DTOOL=<exe> -DINPUT=<file> -DOPTION=<arg> -DEXIT=zero|nonzero
#         -DMATCH=<regex> -P tests/expect_exit.cmake
execute_process(COMMAND "${TOOL}" "${INPUT}" "${OPTION}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(EXIT STREQUAL "zero")
  set(expected "^0$")
else()
  set(expected "^[1-9][0-9]*$")
endif()
if(NOT status MATCHES "${expected}")
  message(FATAL_ERROR "exit status '${status}', expected ${EXIT}:\n${output}")
endif()
if(NOT output MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${output}")
endif()
