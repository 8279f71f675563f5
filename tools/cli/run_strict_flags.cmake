# ctest gate `cli_rejects_bad_flags`: a misspelled, repeated or undeclared
# flag, a boolean flag given a value, an unknown --env, a negative count and
# a positional the synopsis does not declare (or an unknown target id) each
# fail with a diagnostic naming the culprit, never run some other
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
# The journal runs only for the commands that render it; there is no flag
# to turn it off.
expect(2 "unknown flag --no-eventlog" trace fleet --no-eventlog)
# Nor is a journal or sampler flag accepted where nothing reads it.
expect(2 "unknown flag --ring" fleet --ring 5)
expect(2 "unknown flag --timeseries" watch fleet --timeseries)
# A word the synopsis does not declare, or an unknown figure beside a known
# one, is never ignored (running the default 1000 hosts, or fig1 alone).
expect(2 "unexpected argument '5000'" fleet 5000)
expect(2 "no such target 'fig9'" figures fig1 fig9 --reps 1)
expect(2 "unexpected argument 'fig2'" profile fig1 fig2 --reps 1)
expect(2 "unexpected argument 'fig2'" determinism-audit fig1 fig2 --reps 1)
# Wrapped to 2^64 - 1, these would add workunits until memory runs out.
expect(1 "--workunits expects a non-negative" trace grid --workunits -1)
expect(1 "--workunits expects a non-negative" watch grid --workunits -1)
expect(0 "" fleet --hosts 50 --jobs 1)
