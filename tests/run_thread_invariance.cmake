# Runs a program with --json once at SFS_THREADS=1 and once at
# SFS_THREADS=4, and checks that both runs exit 0 and write the same,
# non-empty JSONL byte for byte: results must not depend on the worker
# count, whatever order the workers finish their cells in.
#
#   cmake -DCLI=<program> "-DARGS=<arguments>" -DOUT=<path prefix>
#         -P run_thread_invariance.cmake
#
# ARGS is one space-separated string; the script appends
# `--json <OUT>_t<threads>.jsonl`.
separate_arguments(cli_args UNIX_COMMAND "${ARGS}")
foreach(threads 1 4)
  set(jsonl "${OUT}_t${threads}.jsonl")
  file(REMOVE "${jsonl}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E env SFS_THREADS=${threads}
                          ${CLI} ${cli_args} --json ${jsonl}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "SFS_THREADS=${threads} ${CLI} ${ARGS}: expected "
                        "exit status 0, got ${rc}\n${err}")
  endif()
  if(NOT EXISTS "${jsonl}")
    message(FATAL_ERROR "SFS_THREADS=${threads} ${CLI} ${ARGS}: wrote no "
                        "${jsonl}")
  endif()
  file(SIZE "${jsonl}" bytes)
  if(bytes EQUAL 0)
    message(FATAL_ERROR "SFS_THREADS=${threads} ${CLI} ${ARGS}: empty "
                        "${jsonl}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${OUT}_t1.jsonl" "${OUT}_t4.jsonl"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${CLI} ${ARGS}: the JSONL at SFS_THREADS=1 and 4 "
                      "differs (${OUT}_t1.jsonl, ${OUT}_t4.jsonl)")
endif()
