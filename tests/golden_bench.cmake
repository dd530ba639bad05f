# Golden paper tables: runs one bench binary and compares its stdout and its
# BENCH_<id>.json byte for byte with the committed copies in tests/golden/,
# or, with MODE=update, replaces those copies.  ctest runs it as
# golden.<bench>; `cmake --build build --target update-goldens` regenerates
# every golden file.
#
#   cmake -DBENCH=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         [-DMODE=update] -P golden_bench.cmake
#
# The bench runs in an empty WORK_DIR with ANTON_BENCH_DIR=. so the
# "[metrics] ./BENCH_<id>.json" line it prints is the same on every host.
foreach(var BENCH GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_bench.cmake: -D${var}=... is required")
  endif()
endforeach()

get_filename_component(name "${BENCH}" NAME)
string(REGEX REPLACE "^bench_([a-z][0-9]+)_.*$" "\\1" id "${name}")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{ANTON_BENCH_DIR} ".")
execute_process(COMMAND "${BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${WORK_DIR}/${name}.stdout"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} exited with '${rc}'")
endif()

set(failed "")
foreach(file "${name}.stdout" "BENCH_${id}.json")
  if(MODE STREQUAL "update")
    file(COPY "${WORK_DIR}/${file}" DESTINATION "${GOLDEN_DIR}")
    message(STATUS "updated ${GOLDEN_DIR}/${file}")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${GOLDEN_DIR}/${file}" "${WORK_DIR}/${file}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    # Show what moved; diff is advisory, the compare above is the verdict.
    execute_process(COMMAND diff -u "${GOLDEN_DIR}/${file}"
                                    "${WORK_DIR}/${file}")
    list(APPEND failed "${file}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "${name}: output differs from tests/golden/ "
          "(${failed}).  If the change is intended, regenerate with "
          "`cmake --build <build> --target update-goldens` and commit.")
endif()
