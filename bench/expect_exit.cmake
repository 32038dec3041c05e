# Runs COMMAND with ARGS and fails unless it exits with EXPECT_EXIT and its
# combined output contains EXPECT_OUTPUT and no "===" table header (the
# program stopped before running anything).
#
#   cmake -DCOMMAND=prog "-DARGS=a;b" -DEXPECT_EXIT=2 "-DEXPECT_OUTPUT=usage:" \
#         -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT status STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT_EXIT}:\n${all}")
endif()
string(FIND "${all}" "${EXPECT_OUTPUT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "output lacks '${EXPECT_OUTPUT}':\n${all}")
endif()
string(FIND "${all}" "===" table)
if(NOT table EQUAL -1)
  message(FATAL_ERROR "the program ran before rejecting its arguments:\n${all}")
endif()
