# ctest gate `bench_diff.rejects_malformed_tolerance`: a tolerance flag
# value that is not a plain finite number >= 0 must be a usage error
# (exit 2), and well-formed values must still pass the committed baseline
# against itself (exit 0), so the gate cannot pass by rejecting everything.
if(NOT DEFINED BENCH_DIFF OR NOT DEFINED BASELINE)
  message(FATAL_ERROR
          "run_malformed_tolerance.cmake needs -DBENCH_DIFF, -DBASELINE")
endif()

function(expect_usage_error flag value)
  execute_process(
    COMMAND "${BENCH_DIFF}" "${BASELINE}" "${BASELINE}" --gate
            "${flag}" "${value}"
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "bench_diff ${flag} ${value} exited ${rc}, expected usage error 2")
  endif()
endfunction()

foreach(value IN ITEMS "25%" "-0.5" "nan" "inf" "0.25x")
  expect_usage_error(--rel-tol "${value}")
endforeach()
foreach(value IN ITEMS "50us" "0.5" "-1")
  expect_usage_error(--abs-ns "${value}")
endforeach()

execute_process(
  COMMAND "${BENCH_DIFF}" "${BASELINE}" "${BASELINE}" --gate
          --rel-tol 0.25 --abs-ns 50000
  OUTPUT_QUIET
  RESULT_VARIABLE rc_ok)
if(NOT rc_ok EQUAL 0)
  message(FATAL_ERROR "bench_diff rejected well-formed tolerances (${rc_ok})")
endif()
