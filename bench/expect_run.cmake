# Runs EXE with the list ARGS and fails unless it exits with EXPECT_RC and
# its stdout+stderr contains every string of the list EXPECT_OUTPUT.
execute_process(COMMAND ${EXE} ${ARGS} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_RC}:\n${out}")
endif()
foreach(want IN LISTS EXPECT_OUTPUT)
  string(FIND "${out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "output lacks \"${want}\":\n${out}")
  endif()
endforeach()
