# Runs a command that must fail cleanly: exit status 1, a message
# naming the offending input, and nothing on stdout (every rejection
# comes before any output), never a panic or an abort.
#
#   cmake -DCMD=<binary> "-DARGS=<space-separated arguments>"
#         "-DEXPECT=<substring of the output>" -P cli_expect_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit status 1, got '${rc}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "the command printed to stdout before rejecting "
                      "its input\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "output does not contain '${EXPECT}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${out}${err}" "panic:" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "the command panicked instead of naming the input\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
