# Runs BIN once per flag given after `--` and fails unless every run exits
# with status 2 and prints the usage synopsis, as for an unknown flag:
#   cmake -DBIN=<tool> -P expect_usage_error.cmake -- <flag>...
set(flags_start -1)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(flags_start EQUAL -1 AND "${CMAKE_ARGV${i}}" STREQUAL "--")
    math(EXPR flags_start "${i} + 1")
  endif()
endforeach()
if(flags_start EQUAL -1 OR flags_start GREATER last)
  message(FATAL_ERROR "no flags given after --")
endif()
foreach(i RANGE ${flags_start} ${last})
  set(flag "${CMAKE_ARGV${i}}")
  execute_process(COMMAND "${BIN}" "${flag}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "${BIN} ${flag}: exit ${rc}, want 2 with usage\n${err}")
  endif()
  message(STATUS "${flag}: rejected with exit 2")
endforeach()
