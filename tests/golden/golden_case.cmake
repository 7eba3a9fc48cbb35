# Runs one golden case and diffs what it prints and writes, byte for
# byte, against the checked-in files.
#
#   cmake -DBIN=<sn40l_run> -DBENCH_DIR=<dir of the bench binaries>
#         -DEXAMPLES_DIR=<dir of the example binaries>
#         -DCASE=<name> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<scratch dir> [-DUPDATE=ON] -P golden_case.cmake
#
# <name>.cmd holds one command line: `sn40l_run ...`, or the name of
# a bench or example binary and its arguments. It runs
# inside WORK_DIR, which starts as a copy of <GOLDEN_DIR>/inputs. Its
# stdout must match <name>.stdout; every file it writes through --json, --controller-log
# or --trace-out must match <name>.<file>. Only host time is masked:
# the sweep summary's "... events in X s (Y events/s" and JSON
# "wall_s" values. UPDATE=ON rewrites the expected files instead.

foreach(var BIN BENCH_DIR EXAMPLES_DIR CASE GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_case.cmake: -D${var}=... is required")
  endif()
endforeach()

file(STRINGS "${GOLDEN_DIR}/${CASE}.cmd" cmd_line LIMIT_COUNT 1)
if(NOT cmd_line MATCHES "^([a-z0-9_]+)( (.*))?$")
  message(FATAL_ERROR "${CASE}.cmd: expected one '<program> ...' line")
endif()
if(CMAKE_MATCH_1 STREQUAL "sn40l_run")
  set(exe "${BIN}")
elseif(EXISTS "${EXAMPLES_DIR}/${CMAKE_MATCH_1}")
  set(exe "${EXAMPLES_DIR}/${CMAKE_MATCH_1}")
else()
  set(exe "${BENCH_DIR}/${CMAKE_MATCH_1}")
endif()
set(cmd_args "${CMAKE_MATCH_3}")
separate_arguments(args UNIX_COMMAND "${cmd_args}")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(GLOB inputs "${GOLDEN_DIR}/inputs/*")
if(inputs)
  file(COPY ${inputs} DESTINATION "${WORK_DIR}")
endif()

execute_process(COMMAND "${exe}" ${args}
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CASE}: exit status '${rc}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()

string(REGEX REPLACE "( simulator events in )[0-9.eE+-]+ s \\([0-9.eE+-]+ events/s"
       "\\1<host> s (<host> events/s" out "${out}")
file(WRITE "${WORK_DIR}/${CASE}.stdout" "${out}")
set(pairs "${CASE}.stdout")

string(REGEX MATCHALL "--(json|controller-log|trace-out)[ =][^ ]+"
       written "${cmd_args}")
foreach(flag IN LISTS written)
  string(REGEX REPLACE "^--[a-z-]+[ =]" "" path "${flag}")
  get_filename_component(name "${path}" NAME)
  if(NOT EXISTS "${WORK_DIR}/${path}")
    message(FATAL_ERROR "${CASE}: the command did not write ${path}")
  endif()
  file(READ "${WORK_DIR}/${path}" body)
  string(REGEX REPLACE "(\"wall_s\": ?)[0-9.eE+-]+" "\\1<host>"
         body "${body}")
  file(WRITE "${WORK_DIR}/${CASE}.${name}" "${body}")
  list(APPEND pairs "${CASE}.${name}")
endforeach()

set(failed "")
foreach(file IN LISTS pairs)
  if(UPDATE)
    file(COPY "${WORK_DIR}/${file}" DESTINATION "${GOLDEN_DIR}")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${file}" "${WORK_DIR}/${file}"
                  RESULT_VARIABLE differs)
  if(differs)
    execute_process(COMMAND diff -u "${GOLDEN_DIR}/${file}"
                            "${WORK_DIR}/${file}"
                    OUTPUT_VARIABLE delta ERROR_QUIET)
    string(APPEND failed "\n${file} differs:\n${delta}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "${CASE}: output differs from tests/golden"
                      " (regenerate with tests/golden/update.sh)${failed}")
endif()
