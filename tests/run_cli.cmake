# Runs a command-line program once and checks its exit status. A failing
# run (the default expectation, status 1) must print a diagnostic that
# quotes the malformed token or contains the expected text; a successful
# run (STATUS 0) may name text its standard output must contain.
#
#   cmake -DCLI=<program> "-DARGS=<arguments>" [-DSTATUS=<exit status>]
#         [-DBAD=<token> | -DEXPECT=<text>] [-DGRAPH=<path>]
#         -P run_cli.cmake
#
# ARGS is one space-separated string. When it contains %GRAPH%, CLI must be
# sfsearch_cli: %GRAPH% stands for GRAPH, and a valid 12-vertex graph is
# written there first, so a command that loads it fails on its arguments
# and not on a missing file. With a nonzero STATUS one of BAD and EXPECT is
# required: EXPECT covers a well-formed argument the program cannot use,
# which has no malformed token to quote.
if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
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
if(NOT rc EQUAL STATUS)
  message(FATAL_ERROR "${CLI} ${ARGS}: expected exit status ${STATUS}, got "
                      "${rc}\n${out}${err}")
endif()
if(STATUS EQUAL 0)
  if(DEFINED EXPECT)
    string(FIND "${out}" "${EXPECT}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${CLI} ${ARGS}: the output does not contain "
                          "'${EXPECT}':\n${out}")
    endif()
  endif()
elseif(DEFINED EXPECT)
  string(FIND "${err}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${CLI} ${ARGS}: the diagnostic does not contain "
                        "'${EXPECT}':\n${err}")
  endif()
else()
  string(FIND "${err}" "'${BAD}'" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${CLI} ${ARGS}: the diagnostic does not quote "
                        "'${BAD}':\n${err}")
  endif()
endif()
