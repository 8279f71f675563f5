# ctest gate `cli_rejects_bad_flags`: a misspelled, repeated or undeclared
# flag, a boolean flag given a value, an unknown --env and a negative count
# each fail with a diagnostic naming the culprit, never run some other
# configuration. A well-formed command line still runs (exit 0), so the
# gate cannot pass by rejecting everything. Needs -DVGRID.

# expect(<exit code> <stderr substring> <vgrid arguments>...)
function(expect code diagnostic)
  execute_process(COMMAND "${VGRID}" ${ARGN} OUTPUT_QUIET
                  ERROR_VARIABLE stderr RESULT_VARIABLE rc TIMEOUT 60)
  string(FIND "${stderr}" "${diagnostic}" at)
  if(NOT rc EQUAL code OR at EQUAL -1)
    string(JOIN " " command_line ${ARGN})
    message(FATAL_ERROR "vgrid ${command_line} exited ${rc}, expected "
                        "${code} with '${diagnostic}'; stderr:\n${stderr}")
  endif()
endfunction()

expect(2 "unknown flag --hostz" fleet --hostz 5)
expect(2 "unknown flag --metric-only" determinism-audit fig5 --metric-only)
expect(2 "unknown flag --no-dpr" mc --no-dpr)
expect(2 "repeated --jobs" fleet --jobs 1 --jobs 2)
expect(2 "--selfcheck takes no value" tails fleet --selfcheck=yes)
expect(2 "unknown environment 'nosuch'" guest matrix --env nosuch --reps 1)
expect(2 "unknown environment 'nosuch'" host --env nosuch --reps 1)
# Wrapped to 2^64 - 1, these would add workunits until memory runs out.
expect(1 "--workunits expects a non-negative" trace grid --workunits -1)
expect(1 "--workunits expects a non-negative" watch grid --workunits -1)
expect(0 "" fleet --hosts 50 --jobs 1)
