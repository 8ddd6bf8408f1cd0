# Runs `CLI ARGS` (ARGS one space-separated string) and requires exit
# status STATUS (default 1) with EXPECT somewhere in its output. Status 1
# is an input the tool must refuse by name, before any work, rather than
# crash on or ignore: EXPECT is looked for in stderr and stdout must stay
# empty. Any other status looks for EXPECT in stdout.
#
#   cmake -DCLI=path/to/mdrr_cli "-DARGS=risk --r=1000000" -DEXPECT=--r \
#         -P tests/cli_rejects.cmake
if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}")
  message(FATAL_ERROR "${ARGS}: exit status '${status}', want ${STATUS}\n${err}")
endif()
if(STATUS STREQUAL "1")
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${ARGS}: printed output before refusing\n${out}")
  endif()
  set(searched "${err}")
else()
  set(searched "${out}")
endif()
string(FIND "${searched}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ARGS}: output does not name '${EXPECT}'\n${searched}")
endif()
