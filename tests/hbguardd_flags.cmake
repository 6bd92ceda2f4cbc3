# hbguardd's command line, driven as a CTest script:
#
#   cmake -DHBGUARDD=<path to hbguardd> -P hbguardd_flags.cmake
#
# A malformed numeric flag value must exit 2 with a message naming the
# flag, before the daemon binds or starts anything. `--help` must print the
# usage text to stdout and exit 0.
foreach(args "--threads;abc" "--on-delta;99999999999999999999")
  execute_process(COMMAND "${HBGUARDD}" ${args}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 30)
  list(GET args 0 flag)
  string(REPLACE ";" " " shown "${args}")
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "hbguardd ${shown}: exit ${code}, want 2\n${out}${err}")
  endif()
  string(FIND "${err}" "hbguardd: ${flag} takes" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "hbguardd ${shown}: no message naming ${flag} on stderr:\n${err}")
  endif()
endforeach()

execute_process(COMMAND "${HBGUARDD}" --help
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 30)
string(FIND "${out}" "usage: hbguardd" at)
if(NOT code EQUAL 0 OR NOT at EQUAL 0)
  message(FATAL_ERROR "hbguardd --help: exit ${code}, want 0 and the usage text on stdout\n${out}${err}")
endif()
