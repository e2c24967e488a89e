# Runs example_cubrick_shell on its piped demo and checks what it prints:
#
#   cmake -DSHELL=<example_cubrick_shell> -DINPUT=cubrick_shell_demo.txt \
#         -P run_shell_demo.cmake
#
# The shell reads the committed demo instead of whatever stdin the test
# runner inherited, so the run cannot block on an open terminal or socket.
execute_process(COMMAND "${SHELL}" INPUT_FILE "${INPUT}"
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "example_cubrick_shell exited with ${rc}")
endif()
# The demo's grouped SUM: one row per region.
foreach(row "US +10" "BR +20")
  if(NOT out MATCHES "${row}\n")
    message(FATAL_ERROR "example_cubrick_shell printed no row matching '${row}'")
  endif()
endforeach()
