# ctest gates `determinism.audit.*`: `vgrid determinism-audit ARGS` must exit
# 0 (a crash, sanitizer report or leak after PASS still fails) and its PASS
# line must name exactly SECTIONS, in order (an audit that drops a sink
# fails). Needs -DVGRID, -DSECTIONS (comma-separated), -DARGS (space-separated).
separate_arguments(args UNIX_COMMAND "${ARGS}")
string(REPLACE "," " [0-9]+ B, " pattern "${SECTIONS}")
execute_process(COMMAND "${VGRID}" determinism-audit ${args}
                OUTPUT_VARIABLE stdout RESULT_VARIABLE rc)
message("${stdout}")
if(NOT rc EQUAL 0 OR
   NOT stdout MATCHES "PASS: .*\\(${pattern} [0-9]+ B; [0-9]+ bytes")
  message(FATAL_ERROR "vgrid determinism-audit ${ARGS} exited ${rc}, "
                      "expected 0 and a PASS line naming ${SECTIONS}")
endif()
