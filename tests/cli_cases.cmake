# ctest driver for tool CLI contracts. Invoked as
#   cmake -DREPORT=<pdpa_report> -DPRV=<prv_stats> -DSIM=<pdpa_sim>
#         -DBATCH=<pdpa_batch> -DLINT=<pdpa_lint> -DBENCH_DIR=<build/bench>
#         -DWORKDIR=<scratch> -P cli_cases.cmake
# Bad invocations must be usage errors (exit 2 with a pointed message), not
# silently-wrong output; --help is exit 0.

if(NOT REPORT OR NOT PRV OR NOT SIM OR NOT BATCH OR NOT LINT OR NOT BENCH_DIR OR NOT WORKDIR)
  message(FATAL_ERROR
          "usage: cmake -DREPORT=... -DPRV=... -DSIM=... -DBATCH=... -DLINT=... -DBENCH_DIR=... "
          "-DWORKDIR=... -P cli_cases.cmake")
endif()
file(MAKE_DIRECTORY ${WORKDIR})

# expect_cli(<exit> <stream:out|err> <regex> <command...>)
function(expect_cli expected_exit stream pattern)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT exit_code EQUAL expected_exit)
    message(SEND_ERROR "${ARGN}: exit ${exit_code}, want ${expected_exit}\n${stdout}${stderr}")
    return()
  endif()
  if(stream STREQUAL "out")
    set(haystack "${stdout}")
  else()
    set(haystack "${stderr}")
  endif()
  if(NOT haystack MATCHES "${pattern}")
    message(SEND_ERROR "${ARGN}: ${stream} does not match '${pattern}'\n${stdout}${stderr}")
  endif()
endfunction()

# pdpa_report
expect_cli(0 out "usage: pdpa_report" ${REPORT} --help)
expect_cli(2 err "usage: pdpa_report" ${REPORT})
expect_cli(2 err "unknown flag --bogus" ${REPORT} --bogus ${WORKDIR}/ev.jsonl)
expect_cli(2 err "bad --jobs entry 'x'" ${REPORT} ${WORKDIR}/ev.jsonl --jobs 1,x)
expect_cli(2 err "cannot open" ${REPORT} ${WORKDIR}/does_not_exist.jsonl)
expect_cli(2 err "usage: pdpa_report" ${REPORT} a.jsonl b.jsonl)

# Positive control: a well-formed (if tiny) event log renders cleanly.
file(WRITE ${WORKDIR}/ev.jsonl
"{\"type\":\"run_start\",\"policy\":\"PDPA\",\"workload\":\"w1\",\"load\":\"0.6\",\"seed\":\"42\",\"cpus\":\"60\"}\n")
expect_cli(0 out "run 1: policy PDPA" ${REPORT} ${WORKDIR}/ev.jsonl)

# A prof_span record renders as the host-time profile table (hits column is
# the deterministic part; the report echoes the ns fields as milliseconds).
file(WRITE ${WORKDIR}/prof.jsonl
"{\"type\":\"prof_meta\",\"tool\":\"pdpa_sim\",\"spans\":1}\n{\"type\":\"prof_span\",\"span\":\"rm.quantum\",\"hits\":123,\"total_ns\":4000000,\"self_ns\":1000000}\n")
expect_cli(0 out "host-time profile .hits are deterministic" ${REPORT} ${WORKDIR}/prof.jsonl)
expect_cli(0 out "rm\\.quantum +123 +4\\.000 +1\\.000" ${REPORT} ${WORKDIR}/prof.jsonl)

# prv_stats
expect_cli(0 out "usage: prv_stats" ${PRV} --help)
expect_cli(2 err "usage: prv_stats" ${PRV})
expect_cli(2 err "unknown flag --bogus" ${PRV} --bogus ${WORKDIR}/t.prv)
expect_cli(2 err "cannot open" ${PRV} ${WORKDIR}/does_not_exist.prv)

# pdpa_sim: the profiling/tracing flags are documented, malformed values are
# usage errors, and the smoke run actually produces a profile and a trace.
expect_cli(0 out "--trace_out" ${SIM} --help)
expect_cli(0 out "--prof_out" ${SIM} --help)
expect_cli(2 err "unknown flag --bogus" ${SIM} --bogus)
expect_cli(2 err "malformed flag value" ${SIM} --workload w1 --load not-a-number)
expect_cli(0 out "host-time profile .hits are deterministic" ${SIM} --workload w1 --load 0.6 --prof)
expect_cli(0 out "trace events written to" ${SIM} --workload w1 --load 0.6
           --trace_out ${WORKDIR}/sim_trace.json)
if(NOT EXISTS ${WORKDIR}/sim_trace.json)
  message(SEND_ERROR "pdpa_sim --trace_out did not create sim_trace.json")
endif()
expect_cli(0 out "span hits written to" ${SIM} --workload w1 --load 0.6
           --prof_out ${WORKDIR}/sim_prof.jsonl)
# rm.tick, not rm.quantum: the default policy (PDPA) is quantum-passive, so
# a live profile has tick spans but no quantum spans.
expect_cli(0 out "rm.tick" ${REPORT} ${WORKDIR}/sim_prof.jsonl)
# Every output file is checked before anything is reported as written.
expect_cli(2 err "cannot open /nonexistent/x.swf" ${SIM} --workload w1 --load 0.6
           --swf-out /nonexistent/x.swf)
expect_cli(2 err "cannot open /nonexistent/x.prv" ${SIM} --workload w1 --load 0.6
           --prv-out /nonexistent/x.prv)
expect_cli(2 err "cannot open /nonexistent/x.pcf" ${SIM} --workload w1 --load 0.6
           --pcf-out /nonexistent/x.pcf)

# pdpa_batch: same contract for the sweep driver.
expect_cli(0 out "usage: pdpa_batch" ${BATCH} --help)
expect_cli(0 out "--slowdown" ${BATCH} --help)
expect_cli(0 out "--prof_out" ${BATCH} --help)
expect_cli(2 err "unknown flag --bogus" ${BATCH} --bogus)
expect_cli(2 err "malformed flag value" ${BATCH} --workloads w1 --loads 0.6 --jobs not-a-number)
expect_cli(0 out "slowdown_p50,slowdown_p95,slowdown_p99"
           ${BATCH} --workloads w1 --loads 0.6 --policies equip --seeds 1 --slowdown)
expect_cli(0 err "host-time profile .hits are deterministic"
           ${BATCH} --workloads w1 --loads 0.6 --policies equip --seeds 1 --prof)
expect_cli(0 err "trace events written to"
           ${BATCH} --workloads w1 --loads 0.6 --policies equip --seeds 1
           --trace_out ${WORKDIR}/batch_trace.json)
if(NOT EXISTS ${WORKDIR}/batch_trace.json)
  message(SEND_ERROR "pdpa_batch --trace_out did not create batch_trace.json")
endif()

# Cluster mode (src/cluster): the flags are documented, bad values are usage
# errors, incompatible single-node features are rejected, the smoke runs
# carry the "<policy>@<placement>" marker, and the engine is serial, so the
# retired shard-count flags are unknown.
expect_cli(0 out "--cpus_per_node" ${SIM} --help)
expect_cli(0 out "--placement rr|mf|ll" ${SIM} --help)
expect_cli(2 err "unknown flag --shards" ${SIM} --workload w1 --load 0.6
           --nodes 3 --cpus_per_node 20 --shards 2)
expect_cli(2 err "unknown --placement bogus" ${SIM} --nodes 4 --placement bogus)
expect_cli(2 err "must be >= 1" ${SIM} --nodes 0)
expect_cli(2 err "single-node only" ${SIM} --nodes 2 --view)
expect_cli(0 out "policy PDPA@mf, .* peak node ML" ${SIM} --workload w1 --load 0.6
           --nodes 3 --cpus_per_node 20 --placement mf)
expect_cli(0 out "--placement LIST" ${BATCH} --help)
expect_cli(2 err "unknown placement bogus" ${BATCH} --nodes 4 --placement bogus)
expect_cli(2 err "must be >= 1" ${BATCH} --nodes 0)
expect_cli(2 err "unknown flag --cluster_shards" ${BATCH} --workloads w1 --loads 0.6
           --nodes 3 --cpus_per_node 20 --cluster_shards 2)
expect_cli(0 out "PDPA@ll" ${BATCH} --workloads w1 --loads 0.6 --policies pdpa
           --nodes 3 --cpus_per_node 20 --placement rr,ll)

# Reference mode (DESIGN.md §7): one --reference flag per tool, with or
# without --nodes. A cluster run can be profiled: the controller-plane
# spans show up in the table.
expect_cli(0 out "--reference" ${SIM} --help)
expect_cli(0 out "--reference" ${BATCH} --help)
expect_cli(0 out "policy PDPA, .* peak ML" ${SIM} --workload w1 --load 0.6 --reference)
expect_cli(0 out "workload,load,policy" ${BATCH} --workloads w1 --loads 0.6 --policies equip
           --reference)
expect_cli(0 out "policy PDPA@rr" ${SIM} --workload w1 --load 0.6
           --nodes 3 --cpus_per_node 20 --reference)
expect_cli(0 out "cluster.place" ${SIM} --workload w1 --load 0.6
           --nodes 3 --cpus_per_node 20 --prof)
expect_cli(0 out "cluster.barrier_wait" ${SIM} --workload w1 --load 0.6
           --nodes 3 --cpus_per_node 20 --prof)

# pdpa_lint --explain: every rule id resolves to its summary, rationale, and
# escape hatch; unknown ids are usage errors. (The full lint contract lives
# in lint_fixture_test.cmake — this pins just the explain surface.)
expect_cli(0 out "rule: ptr-taint" ${LINT} --explain ptr-taint)
expect_cli(0 out "rationale:" ${LINT} --explain ptr-taint)
expect_cli(0 out "escape hatch:" ${LINT} --explain ptr-taint)
expect_cli(0 out "ptr-taint-ok" ${LINT} --explain ptr-taint)
expect_cli(0 out "PDPA_LOCK_RANK" ${LINT} --explain lock-order)
expect_cli(2 err "unknown rule 'bogus' .see --list-rules." ${LINT} --explain bogus)

# Reference mode must not change a byte: pdpa_batch --reference (every
# cell cold, a tick at every grid point, one cluster barrier per arrival)
# prints the same CSV as the default fast paths, on a single-SMP grid and
# on a 3-node grid. The fork log line is info-level, on stderr.
expect_cli(0 err "cells forked" ${BATCH} --workloads w2 --loads 1.0
           --policies equip,pdpa --seeds 2 --log_level info)
function(expect_same_csv what)
  execute_process(COMMAND ${BATCH} ${ARGN}
                  OUTPUT_VARIABLE fast_csv RESULT_VARIABLE fast_exit ERROR_QUIET)
  execute_process(COMMAND ${BATCH} ${ARGN} --reference
                  OUTPUT_VARIABLE reference_csv RESULT_VARIABLE reference_exit ERROR_QUIET)
  if(NOT fast_exit EQUAL 0 OR NOT reference_exit EQUAL 0)
    message(SEND_ERROR "pdpa_batch ${what} reference A/B exited ${fast_exit}/${reference_exit}")
  elseif(NOT fast_csv MATCHES "workload,load,policy")
    message(SEND_ERROR "pdpa_batch ${what} printed no sweep CSV")
  elseif(NOT fast_csv STREQUAL reference_csv)
    message(SEND_ERROR "pdpa_batch --reference changed the ${what} sweep CSV bytes")
  endif()
endfunction()
expect_same_csv("single-node" --workloads w1,w2 --loads 0.6,1.0
                --policies irix,equip,equal_eff,pdpa --seeds 2)
expect_same_csv("3-node" --workloads w1 --loads 0.6,1.0 --policies equip,pdpa --seeds 2
                --nodes 3 --cpus_per_node 20 --placement rr,mf,ll)

# pdpa_sim --reference on a cluster writes the same event log and
# time-series as the default run.
foreach(mode fast reference)
  set(extra "")
  if(mode STREQUAL "reference")
    set(extra --reference)
  endif()
  expect_cli(0 out "time-series: merged cluster CSV" ${SIM} --workload w1 --load 0.6
             --nodes 3 --cpus_per_node 20 --placement mf ${extra}
             --events_out ${WORKDIR}/cluster_${mode}.jsonl
             --timeseries_out ${WORKDIR}/cluster_${mode}_ts.csv)
endforeach()
foreach(artifact .jsonl _ts.csv)
  file(READ ${WORKDIR}/cluster_fast${artifact} fast_bytes)
  file(READ ${WORKDIR}/cluster_reference${artifact} reference_bytes)
  if(fast_bytes STREQUAL "" OR NOT fast_bytes STREQUAL reference_bytes)
    message(SEND_ERROR "pdpa_sim --nodes 3 --reference changed cluster${artifact}")
  endif()
endforeach()

# The BENCH_*.json tools: --help prints usage without running, and an
# unknown flag or a malformed value is a usage error before any work.
foreach(bench cluster_bench hotpath_bench serialization_bench sweep_bench prof_bench)
  expect_cli(0 out "usage: ${bench}" ${BENCH_DIR}/${bench} --help)
  expect_cli(2 err "unknown flag --bogus" ${BENCH_DIR}/${bench} --bogus)
  expect_cli(2 err "malformed flag value" ${BENCH_DIR}/${bench} --repeat not-a-number)
endforeach()
# prof_bench's factors are relative to a sweep_bench baseline: a missing or
# unparseable baseline is an error naming the file, never a factor of 0.
expect_cli(2 err "cannot open sweep baseline .*does_not_exist.json" ${BENCH_DIR}/prof_bench
           --sweep_baseline ${WORKDIR}/does_not_exist.json)
file(WRITE ${WORKDIR}/bad_sweep.json "{\"cells\": 64}\n")
expect_cli(2 err "bad_sweep.json has no positive serial_cells_per_s" ${BENCH_DIR}/prof_bench
           --sweep_baseline ${WORKDIR}/bad_sweep.json)

message(STATUS "cli contract checks done")
