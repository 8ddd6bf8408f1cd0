# Runs `CLI ARGS` (ARGS one space-separated string) and requires exit
# status 1 with EXPECT somewhere in its stderr: an input the tool must
# refuse by name rather than crash on or ignore.
#
#   cmake -DCLI=path/to/mdrr_cli "-DARGS=risk --r=1000000" -DEXPECT=--r \
#         -P tests/cli_rejects.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${ARGS}: exit status '${status}', want 1\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ARGS}: stderr does not name '${EXPECT}'\n${err}")
endif()
