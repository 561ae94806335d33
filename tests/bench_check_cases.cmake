# ctest driver for the bench_check CLI contract. Invoked as
#   cmake -DBENCH_CHECK=<bench_check> -DFIXTURES=<tests/bench_check_fixtures>
#         -P bench_check_cases.cmake
# Pins the metric classification (informational vs ratio vs exact), the
# --tol/--min/--ignore overrides, and the exit-code contract (0 ok,
# 1 regression, 2 usage error) against fixture baselines.

if(NOT BENCH_CHECK OR NOT FIXTURES)
  message(FATAL_ERROR "usage: cmake -DBENCH_CHECK=... -DFIXTURES=... -P bench_check_cases.cmake")
endif()

# expect_check(<exit> <stream:out|err> <regex> <args...>)
function(expect_check expected_exit stream pattern)
  execute_process(COMMAND ${BENCH_CHECK} ${ARGN}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT exit_code EQUAL expected_exit)
    message(SEND_ERROR "bench_check ${ARGN}: exit ${exit_code}, want ${expected_exit}\n${stdout}${stderr}")
    return()
  endif()
  if(stream STREQUAL "out")
    set(haystack "${stdout}")
  else()
    set(haystack "${stderr}")
  endif()
  if(NOT haystack MATCHES "${pattern}")
    message(SEND_ERROR "bench_check ${ARGN}: ${stream} does not match '${pattern}'\n${stdout}${stderr}")
  endif()
endfunction()

set(BASE ${FIXTURES}/baseline.json)

# Identical files compare clean.
expect_check(0 out "bench_check: ok" ${BASE} ${BASE})

# Hardware-dependent drift (wall seconds, rates, jobs, the host record) is
# informational; a ratio within tolerance passes; new metrics are reported,
# not failed.
expect_check(0 out "bench_check: ok" ${BASE} ${FIXTURES}/fresh_ok.json)
expect_check(0 out "info serial_wall_s" ${BASE} ${FIXTURES}/fresh_ok.json)
expect_check(0 out "info compiler" ${BASE} ${FIXTURES}/fresh_ok.json)
expect_check(0 out "info build_type" ${BASE} ${FIXTURES}/fresh_ok.json)
expect_check(0 out "new  extra_metric" ${BASE} ${FIXTURES}/fresh_ok.json)

# Cluster throughput is a rate (hardware-dependent: informational), but the
# epoch-batch counters are outputs of the deterministic protocol, so they
# compare exact even though they only exist because of a wall-clock
# optimization.
expect_check(0 out "info cluster_jobs_per_s" ${BASE} ${FIXTURES}/fresh_ok.json)
expect_check(0 out "ok   arrival_batches" ${BASE} ${FIXTURES}/fresh_ok.json)
expect_check(0 out "ok   batched_arrivals" ${BASE} ${FIXTURES}/fresh_ok.json)

# A regressed run: deterministic counts changed (cells, arrival_batches), a
# ratio below tolerance, and a boolean flipped — four findings, exit 1. The
# slower cluster_jobs_per_s stays informational even in a failing run.
expect_check(1 out "bench_check: 4 regressions" ${BASE} ${FIXTURES}/fresh_regressed.json)
expect_check(1 out "FAIL cells" ${BASE} ${FIXTURES}/fresh_regressed.json)
expect_check(1 out "FAIL arrival_batches.*deterministic value changed" ${BASE} ${FIXTURES}/fresh_regressed.json)
expect_check(1 out "FAIL speedup" ${BASE} ${FIXTURES}/fresh_regressed.json)
expect_check(1 out "FAIL output_identical" ${BASE} ${FIXTURES}/fresh_regressed.json)
expect_check(1 out "info cluster_jobs_per_s" ${BASE} ${FIXTURES}/fresh_regressed.json)

# --tol tightens (or loosens) a single metric's band.
expect_check(1 out "FAIL speedup" ${BASE} ${FIXTURES}/fresh_ok.json --tol speedup=0.1)
expect_check(0 out "bench_check: ok" ${BASE} ${FIXTURES}/fresh_regressed.json
             --tol speedup=0.9 --ignore cells,output_identical,arrival_batches)

# --min imposes an absolute floor on a fresh metric.
expect_check(0 out "events_speedup.*>= 2" ${BASE} ${FIXTURES}/fresh_ok.json
             --min events_speedup=2)
expect_check(1 out "below --min 99" ${BASE} ${FIXTURES}/fresh_ok.json
             --min events_speedup=99)

# Usage / IO errors are exit 2 with a pointed message.
expect_check(0 out "usage: bench_check" --help)
expect_check(2 err "usage: bench_check" ${BASE})
expect_check(2 err "unknown flag --bogus" ${BASE} ${BASE} --bogus)
expect_check(2 err "cannot open" ${BASE} ${FIXTURES}/does_not_exist.json)
expect_check(2 err "bad --tol entry" ${BASE} ${BASE} --tol speedup)
expect_check(2 err "bad --min entry" ${BASE} ${BASE} --min speedup=abc)

# Degenerate inputs are usage errors, not clean passes: a null metric means
# the bench aborted mid-write, and an empty object has nothing to compare
# (it would otherwise vacuously pass every check).
expect_check(2 err "metric 'speedup' is null" ${FIXTURES}/baseline_null.json ${BASE})
expect_check(2 err "metric 'speedup' is null" ${BASE} ${FIXTURES}/baseline_null.json)
expect_check(2 err "has no metrics" ${BASE} ${FIXTURES}/fresh_empty.json)
expect_check(2 err "has no metrics" ${FIXTURES}/fresh_empty.json ${BASE})

message(STATUS "bench_check CLI checks done")
