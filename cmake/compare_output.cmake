# Runs one experiment binary and compares its stdout byte for byte with a
# committed file:
#
#   cmake -DEXE=<binary> -DEXPECTED=<file> -P cmake/compare_output.cmake
#
# Fails when the binary exits non-zero or prints anything else. A change
# that means to move an experiment's output records the new file with it.

if(NOT DEFINED EXE OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "usage: cmake -DEXE=<binary> -DEXPECTED=<file> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

execute_process(COMMAND "${EXE}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${status}")
endif()

file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${EXPECTED}" NAME)
  set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual_file}" "${actual}")
  message(FATAL_ERROR "stdout of ${EXE} differs from ${EXPECTED}; "
                      "it was written to ${actual_file}\n${actual}")
endif()
