# Runs a command-line program with one malformed number and requires exit
# status 1 and a diagnostic that quotes the malformed token.
#
#   cmake -DCLI=<program> "-DARGS=<arguments>" -DBAD=<token>
#         [-DGRAPH=<path>] -P cli_rejects_number.cmake
#
# ARGS is one space-separated string. When it contains %GRAPH%, CLI must be
# sfsearch_cli: %GRAPH% stands for GRAPH, and a valid 12-vertex graph is
# written there first, so a command that loads it fails on the number and
# not on a missing file.
string(FIND "${ARGS}" "%GRAPH%" graph_at)
if(NOT graph_at EQUAL -1)
  execute_process(COMMAND ${CLI} generate mori 12 ${GRAPH} 7
                  RESULT_VARIABLE setup_rc OUTPUT_QUIET)
  if(NOT setup_rc EQUAL 0)
    message(FATAL_ERROR "setup: writing ${GRAPH} failed (${setup_rc})")
  endif()
  string(REPLACE "%GRAPH%" "${GRAPH}" ARGS "${ARGS}")
endif()
separate_arguments(cli_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${cli_args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${CLI} ${ARGS}: expected exit status 1, got "
                      "${rc}\n${out}${err}")
endif()
string(FIND "${err}" "'${BAD}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${CLI} ${ARGS}: the diagnostic does not quote "
                      "'${BAD}':\n${err}")
endif()
