# Checks docs/CLI.md against the flags sn40l_run registers: every flag
# any --help prints must appear in the doc, and every --flag the doc
# names must be printed by some --help. Wildcards such as --session-*
# are ignored.
#
#   cmake -DBIN=<sn40l_run> -DDOCS=<docs/CLI.md> -P cli_docs_match_help.cmake

cmake_minimum_required(VERSION 3.16) # IN_LIST

foreach(var BIN DOCS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_docs_match_help.cmake: -D${var}=... is required")
  endif()
endforeach()

# The flag names at the start of each help line: "  --flag METAVAR  help"
# or an alias pair "  -j, --jobs N  help".
set(registered "")
foreach(sub top serve sweep cluster)
  set(args ${sub} --help)
  if(sub STREQUAL "top")
    set(args --help)
  endif()
  execute_process(COMMAND "${BIN}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE help ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sn40l_run ${sub} --help exited '${rc}'\n${err}")
  endif()
  string(REGEX MATCHALL "\n  (-[a-z], )?--[a-z0-9-]+" heads "${help}")
  foreach(head IN LISTS heads)
    string(REGEX MATCH "--[a-z0-9-]+" flag "${head}")
    list(APPEND registered "${flag}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES registered)

file(READ "${DOCS}" docs)
string(REGEX REPLACE "--[a-z0-9-]+\\*" "" docs_no_wildcards "${docs}")
string(REGEX MATCHALL "--[a-z0-9][a-z0-9-]*[a-z0-9]" documented
       "${docs_no_wildcards}")
list(REMOVE_DUPLICATES documented)

set(problems "")
foreach(flag IN LISTS registered)
  if(NOT flag IN_LIST documented)
    string(APPEND problems "\n  ${flag} is in --help but not in docs/CLI.md")
  endif()
endforeach()
foreach(flag IN LISTS documented)
  if(NOT flag IN_LIST registered)
    string(APPEND problems "\n  ${flag} is in docs/CLI.md but no --help prints it")
  endif()
endforeach()
if(problems)
  message(FATAL_ERROR "docs/CLI.md and --help disagree:${problems}")
endif()
list(LENGTH registered n)
message(STATUS "docs/CLI.md documents all ${n} registered flags")
