# The ctest body of one paper binary (ceer_add_paper_bench): runs
# BINARY with its stdout saved to OUT, echoes that stdout, and fails
# when the binary exits nonzero (one of its [CHECK] bands was missed)
# or when the SHA-256 of its stdout differs from NAME's line in TABLE
# (sha256sum format). `tools/check.sh paper-golden --update` rewrites
# TABLE.
#
#   cmake -DBINARY=<exe> -DNAME=<name> -DOUT=<file> -DTABLE=<file>
#         -P paper_check.cmake

get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(COMMAND "${BINARY}" OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE status)
execute_process(COMMAND "${CMAKE_COMMAND}" -E cat "${OUT}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NAME} exited with status ${status}")
endif()

file(SHA256 "${OUT}" digest)
file(STRINGS "${TABLE}" pinned REGEX "  ${NAME}$")
if(NOT pinned STREQUAL "${digest}  ${NAME}")
    message(FATAL_ERROR
        "${NAME}: stdout SHA-256 is ${digest}; ${TABLE} pins "
        "'${pinned}'. If the new output is intended, run "
        "tools/check.sh paper-golden --update and review the diff.")
endif()
