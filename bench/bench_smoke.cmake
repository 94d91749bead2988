# Smoke test for the bench observability and fault-tolerance paths: runs a
# small bench with --metrics_out and fails if the binary errors, the
# snapshot is missing, or the snapshot lacks the pipeline counters it must
# contain. When GRID_BIN is also given, two drills run on that grid bench:
#
#  * kill/resume: a crash failpoint kills it mid-grid, a second run resumes
#    from --checkpoint_dir (re-auditing one deleted cell from the cached
#    test scores), and the resumed stdout must be byte-identical to an
#    uninterrupted run;
#  * parallel hang-and-recover: a --jobs run must reproduce the sequential
#    report byte for byte, a hang failpoint under --cell_timeout_s must be
#    contained by the watchdog as an error entry (exit 0), and after
#    deleting the degraded cells' checkpoints a rerun must heal back to the
#    baseline report.
#
# When CLI_BIN (the fairem CLI) is also given, a telemetry drill checks
# that worker metric shipping makes the --jobs 2 snapshot agree with the
# sequential one on every audit/datagen/harness counter, that
# `fairem benchdiff` on the pair exits 0, and that a deliberately
# impossible --fail_on threshold flips the exit to non-zero.
#
# Invoked by CTest as:
#   cmake -DBENCH_BIN=<path> [-DGRID_BIN=<path>] [-DCLI_BIN=<path>] \
#         -DWORK_DIR=<dir> -P bench_smoke.cmake

if(NOT DEFINED BENCH_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "bench_smoke.cmake requires -DBENCH_BIN and -DWORK_DIR")
endif()

set(metrics_file "${WORK_DIR}/bench_smoke_metrics.json")
file(REMOVE "${metrics_file}")

execute_process(
  COMMAND "${BENCH_BIN}" --scale 0.25 --metrics_out "${metrics_file}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE bench_stdout
  ERROR_VARIABLE bench_stderr)

if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "bench exited with ${exit_code}\nstdout:\n${bench_stdout}\n"
      "stderr:\n${bench_stderr}")
endif()

if(NOT EXISTS "${metrics_file}")
  message(FATAL_ERROR "--metrics_out produced no file at ${metrics_file}")
endif()

file(READ "${metrics_file}" snapshot)

if(snapshot STREQUAL "")
  message(FATAL_ERROR "metrics snapshot is empty")
endif()

# An all-empty registry means the bench ran without touching any counters —
# the instrumentation is broken even if the run "succeeded".
string(REGEX REPLACE "[ \t\r\n]" "" compact "${snapshot}")
if(compact MATCHES "\"counters\":{}")
  message(FATAL_ERROR "metrics snapshot has no counters:\n${snapshot}")
endif()

foreach(key
    "fairem.datagen.datasets_generated"
    "fairem.block.candidates"
    "fairem.block.calls")
  if(NOT snapshot MATCHES "\"${key}\"")
    message(FATAL_ERROR
        "metrics snapshot is missing expected key ${key}:\n${snapshot}")
  endif()
endforeach()

message(STATUS "bench_smoke OK: snapshot at ${metrics_file} has all keys")

if(NOT DEFINED GRID_BIN)
  return()
endif()

# --- kill/resume drill ------------------------------------------------------

set(ckpt_dir "${WORK_DIR}/bench_smoke_checkpoints")
file(REMOVE_RECURSE "${ckpt_dir}")

# Uninterrupted baseline (no checkpoints involved).
execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE baseline_stdout
  ERROR_VARIABLE grid_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "grid bench baseline exited with ${exit_code}\nstderr:\n${grid_stderr}")
endif()

# Kill the run on its third grid cell; the first two cells must already be
# checkpointed by then.
execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --checkpoint_dir "${ckpt_dir}"
          --failpoints "grid_cell=crash(1,2)"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE crash_stdout
  ERROR_VARIABLE crash_stderr)
if(exit_code EQUAL 0)
  message(FATAL_ERROR "crash failpoint did not kill the grid bench")
endif()

file(GLOB survivors "${ckpt_dir}/*.json")
list(LENGTH survivors survivor_count)
if(survivor_count EQUAL 0)
  message(FATAL_ERROR
      "killed run left no checkpoints in ${ckpt_dir}\n"
      "stderr:\n${crash_stderr}")
endif()

# Delete the first cell's file (BooleanRuleMatcher, supported everywhere)
# but not its cached scores: the resume must re-audit that cell from the
# scores the killed run saved, without a refit, and still reproduce the
# report byte for byte.
file(GLOB reaudited_cell "${ckpt_dir}/*.single.BooleanRuleMatcher.json")
list(LENGTH reaudited_cell reaudited_count)
if(NOT reaudited_count EQUAL 1 OR survivor_count LESS 2)
  message(FATAL_ERROR
      "killed run did not checkpoint its first two cells: ${survivors}")
endif()
file(REMOVE "${reaudited_cell}")

# Resume from the surviving checkpoints.
set(resume_metrics "${WORK_DIR}/bench_smoke_resume_metrics.json")
file(REMOVE "${resume_metrics}")
execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --checkpoint_dir "${ckpt_dir}"
          --metrics_out "${resume_metrics}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE resumed_stdout
  ERROR_VARIABLE resume_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "resumed grid bench exited with ${exit_code}\n"
      "stderr:\n${resume_stderr}")
endif()

if(NOT resumed_stdout STREQUAL baseline_stdout)
  message(FATAL_ERROR
      "resumed report differs from the uninterrupted run\n"
      "--- baseline ---\n${baseline_stdout}\n"
      "--- resumed ---\n${resumed_stdout}")
endif()

file(READ "${resume_metrics}" resume_snapshot)
if(NOT resume_snapshot MATCHES
   "\"fairem.robust.checkpoint_cells_loaded\": [1-9]")
  message(FATAL_ERROR
      "resumed run shows no checkpoint hits:\n${resume_snapshot}")
endif()
if(NOT resume_snapshot MATCHES "\"fairem.harness.score_cache_hits\": [1-9]")
  message(FATAL_ERROR
      "resumed run audited no cell from cached scores:\n${resume_snapshot}")
endif()

message(STATUS
    "bench_smoke OK: resume reproduced the report from ${survivor_count} "
    "surviving checkpoints, one cell re-audited from cached scores")

# --- parallel hang-and-recover drill ----------------------------------------

# 1. A clean supervised parallel run must match the sequential baseline.
execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --jobs 4
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE parallel_stdout
  ERROR_VARIABLE parallel_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "parallel grid bench exited with ${exit_code}\n"
      "stderr:\n${parallel_stderr}")
endif()
if(NOT parallel_stdout STREQUAL baseline_stdout)
  message(FATAL_ERROR
      "--jobs 4 report differs from the sequential run\n"
      "--- sequential ---\n${baseline_stdout}\n"
      "--- parallel ---\n${parallel_stdout}")
endif()

# 2. Hang one matcher's fit in every worker that runs it; the watchdog must
# kill those workers at the deadline and the run must still finish cleanly,
# degrading just that matcher to an error entry.
set(hang_ckpt_dir "${WORK_DIR}/bench_smoke_hang_checkpoints")
file(REMOVE_RECURSE "${hang_ckpt_dir}")
execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --jobs 4 --cell_timeout_s 10
          --retry_attempts 1 --checkpoint_dir "${hang_ckpt_dir}"
          --failpoints "matcher_fit.NBMatcher=hang(1)"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE hang_stdout
  ERROR_VARIABLE hang_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "hung grid bench was not contained (exit ${exit_code})\n"
      "stderr:\n${hang_stderr}")
endif()
if(NOT hang_stdout MATCHES "errors \\(cells unavailable after retries\\)")
  message(FATAL_ERROR
      "hang run rendered no degraded error entry\n${hang_stdout}")
endif()
if(NOT hang_stdout MATCHES "watchdog")
  message(FATAL_ERROR
      "degraded entry does not name the watchdog kill\n${hang_stdout}")
endif()

# 3. Delete the degraded cells' checkpoints and rerun: the healed parallel
# run must reproduce the uninterrupted baseline byte for byte.
file(GLOB degraded "${hang_ckpt_dir}/*NBMatcher*.json")
list(LENGTH degraded degraded_count)
if(degraded_count EQUAL 0)
  message(FATAL_ERROR
      "hang run persisted no checkpoint for the degraded cells")
endif()
file(REMOVE ${degraded})
execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --jobs 4
          --checkpoint_dir "${hang_ckpt_dir}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE healed_stdout
  ERROR_VARIABLE healed_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "healed grid bench exited with ${exit_code}\n"
      "stderr:\n${healed_stderr}")
endif()
if(NOT healed_stdout STREQUAL baseline_stdout)
  message(FATAL_ERROR
      "healed report differs from the uninterrupted run\n"
      "--- baseline ---\n${baseline_stdout}\n"
      "--- healed ---\n${healed_stdout}")
endif()

message(STATUS
    "bench_smoke OK: parallel run matched sequential, hang was contained, "
    "and ${degraded_count} degraded cell(s) healed on rerun")

# --- intra-cell threading drill ---------------------------------------------

# 1. The --intra_jobs 4 report must be byte-identical to the sequential
# baseline: the chunked parallel-for writes results by index, so threading
# must never change the bytes — on any machine, including single-core CI.
set(intra1_metrics "${WORK_DIR}/bench_smoke_intra1_metrics.json")
set(intra4_metrics "${WORK_DIR}/bench_smoke_intra4_metrics.json")
file(REMOVE "${intra1_metrics}" "${intra4_metrics}")
execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --intra_jobs 1
          --metrics_out "${intra1_metrics}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE intra1_stdout
  ERROR_VARIABLE intra1_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "--intra_jobs 1 grid bench exited with ${exit_code}\n"
      "stderr:\n${intra1_stderr}")
endif()
execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --intra_jobs 4
          --metrics_out "${intra4_metrics}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE intra4_stdout
  ERROR_VARIABLE intra4_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "--intra_jobs 4 grid bench exited with ${exit_code}\n"
      "stderr:\n${intra4_stderr}")
endif()
if(NOT intra4_stdout STREQUAL baseline_stdout)
  message(FATAL_ERROR
      "--intra_jobs 4 report differs from the sequential run\n"
      "--- sequential ---\n${baseline_stdout}\n"
      "--- intra_jobs 4 ---\n${intra4_stdout}")
endif()

# 2. The threaded run must actually have exercised the pool and the
# prepared-text cache — a byte-identical report produced by silently
# falling back to sequential code would pass check 1 while proving nothing.
file(READ "${intra4_metrics}" intra4_snapshot)
foreach(key
    "fairem.pool.parallel_fors"
    "fairem.pool.tasks"
    "fairem.pool.workers"
    "fairem.pool.queue_wait_seconds"
    "fairem.prepared.builds"
    "fairem.prepared.cache_hits"
    "fairem.feature.build_table_seconds")
  if(NOT intra4_snapshot MATCHES "\"${key}")
    message(FATAL_ERROR
        "--intra_jobs 4 snapshot is missing ${key}:\n${intra4_snapshot}")
  endif()
endforeach()
if(NOT intra4_snapshot MATCHES "\"fairem.pool.workers\": 3")
  message(FATAL_ERROR
      "--intra_jobs 4 run did not report 3 pool workers (caller + 3 = 4):\n"
      "${intra4_snapshot}")
endif()

message(STATUS
    "bench_smoke OK: --intra_jobs 4 matched the sequential report and "
    "exercised the pool + prepared cache")

# --- telemetry equivalence + benchdiff gate drill ---------------------------

if(NOT DEFINED CLI_BIN)
  return()
endif()

# 1. The same sweep sequentially and under --jobs 2 must land on identical
# audit/datagen/harness counters: in parallel mode those counts happen in
# forked workers and only reach the parent snapshot via telemetry shipping.
set(seq_metrics "${WORK_DIR}/bench_smoke_seq_metrics.json")
set(par_metrics "${WORK_DIR}/bench_smoke_par_metrics.json")
file(REMOVE "${seq_metrics}" "${par_metrics}")

execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --metrics_out "${seq_metrics}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE seq_stdout
  ERROR_VARIABLE seq_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "sequential telemetry run exited with ${exit_code}\n"
      "stderr:\n${seq_stderr}")
endif()

execute_process(
  COMMAND "${GRID_BIN}" --scale 0.25 --jobs 2 --progress
          --metrics_out "${par_metrics}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE par_stdout
  ERROR_VARIABLE par_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "--jobs 2 telemetry run exited with ${exit_code}\n"
      "stderr:\n${par_stderr}")
endif()
if(NOT par_stderr MATCHES "grid [0-9]+/[0-9]+ done")
  message(FATAL_ERROR
      "--progress produced no progress line on stderr:\n${par_stderr}")
endif()

file(READ "${seq_metrics}" seq_snapshot)
file(READ "${par_metrics}" par_snapshot)
set(counter_regex "\"fairem\\.(audit|datagen|harness)\\.[a-z_]+\": [0-9]+")
string(REGEX MATCHALL "${counter_regex}" seq_counters "${seq_snapshot}")
string(REGEX MATCHALL "${counter_regex}" par_counters "${par_snapshot}")
list(LENGTH seq_counters seq_counter_count)
if(seq_counter_count EQUAL 0)
  message(FATAL_ERROR
      "sequential snapshot has no audit/datagen/harness counters:\n"
      "${seq_snapshot}")
endif()
list(SORT seq_counters)
list(SORT par_counters)
if(NOT seq_counters STREQUAL par_counters)
  message(FATAL_ERROR
      "--jobs 2 counters diverge from the sequential run (worker telemetry "
      "lost or double-counted)\n"
      "--- sequential ---\n${seq_counters}\n"
      "--- jobs 2 ---\n${par_counters}")
endif()

# 2. benchdiff on the equivalent pair must pass cleanly...
execute_process(
  COMMAND "${CLI_BIN}" benchdiff "${seq_metrics}" "${par_metrics}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE diff_stdout
  ERROR_VARIABLE diff_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "benchdiff on equivalent snapshots exited with ${exit_code}\n"
      "stdout:\n${diff_stdout}\nstderr:\n${diff_stderr}")
endif()

# 3. ...and an impossible threshold (the unchanged counter's ratio of 1.0
# exceeds 0.5x) must flip the gate to a non-zero exit.
execute_process(
  COMMAND "${CLI_BIN}" benchdiff "${seq_metrics}" "${par_metrics}"
          --fail_on "fairem.audit.cells_evaluated>0.5x"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE gate_stdout
  ERROR_VARIABLE gate_stderr)
if(exit_code EQUAL 0)
  message(FATAL_ERROR
      "benchdiff --fail_on did not trip on a regressing threshold\n"
      "stdout:\n${gate_stdout}")
endif()
if(NOT gate_stderr MATCHES "REGRESSION")
  message(FATAL_ERROR
      "tripped benchdiff gate printed no REGRESSION line\n"
      "stderr:\n${gate_stderr}")
endif()

message(STATUS
    "bench_smoke OK: --jobs 2 telemetry matched sequential counters and the "
    "benchdiff gate tripped as expected")

# --- intra_jobs speedup gate (multi-core hosts only) ------------------------

# The feature-table build must get at least 1.5x faster at --intra_jobs 4
# (mean build seconds ratio below 1/1.5 ~= 0.67). Only meaningful with
# enough cores to actually run 4 threads; single-core CI still ran the
# byte-equality and pool-metrics checks above.
cmake_host_system_information(RESULT core_count QUERY NUMBER_OF_LOGICAL_CORES)
if(core_count GREATER_EQUAL 4)
  execute_process(
    COMMAND "${CLI_BIN}" benchdiff "${intra1_metrics}" "${intra4_metrics}"
            --fail_on "fairem.feature.build_table_seconds.mean>0.67x"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE speedup_stdout
    ERROR_VARIABLE speedup_stderr)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
        "--intra_jobs 4 did not reach 1.5x on the feature-table build "
        "(${core_count} cores)\n"
        "stdout:\n${speedup_stdout}\nstderr:\n${speedup_stderr}")
  endif()
  message(STATUS
      "bench_smoke OK: --intra_jobs 4 cleared the 1.5x feature-build gate "
      "on ${core_count} cores")
else()
  message(STATUS
      "bench_smoke: ${core_count} core(s); skipping the intra_jobs speedup "
      "gate (byte-equality still verified)")
endif()

# --- sampling profiler drill ------------------------------------------------

# Profile the same grid sweep sequentially and under --jobs 2 (PROF_BIN is a
# second grid bench so this drill exercises the profiler plumbing on a bench
# the earlier drills did not touch). The folded outputs must be non-empty,
# the --jobs 2 profile must merge stacks from the parent AND at least one
# forked worker, `fairem proftop --by stage` must attribute at least 90% of
# samples to named spans, and the sequential/parallel per-stage shares must
# agree within a loose tolerance (same work, different process layout).

if(NOT DEFINED PROF_BIN)
  return()
endif()

set(prof_seq "${WORK_DIR}/bench_smoke_seq_profile.folded")
set(prof_par "${WORK_DIR}/bench_smoke_par_profile.folded")
file(REMOVE "${prof_seq}" "${prof_par}")

execute_process(
  COMMAND "${PROF_BIN}" --scale 0.25 --profile_out "${prof_seq}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE prof_seq_stdout
  ERROR_VARIABLE prof_seq_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "profiled sequential grid bench exited with ${exit_code}\n"
      "stderr:\n${prof_seq_stderr}")
endif()

execute_process(
  COMMAND "${PROF_BIN}" --scale 0.25 --jobs 2 --profile_out "${prof_par}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE prof_par_stdout
  ERROR_VARIABLE prof_par_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "profiled --jobs 2 grid bench exited with ${exit_code}\n"
      "stderr:\n${prof_par_stderr}")
endif()

foreach(folded "${prof_seq}" "${prof_par}")
  if(NOT EXISTS "${folded}")
    message(FATAL_ERROR "--profile_out produced no file at ${folded}")
  endif()
  file(READ "${folded}" folded_text)
  if(folded_text STREQUAL "")
    message(FATAL_ERROR "folded profile ${folded} is empty")
  endif()
endforeach()

# The merged --jobs 2 profile must carry frames from >= 2 processes: the
# parent and at least one forked worker (shipped over the telemetry pipe).
file(READ "${prof_par}" par_folded)
if(NOT par_folded MATCHES "process:parent;")
  message(FATAL_ERROR
      "--jobs 2 folded profile has no parent stacks:\n${par_folded}")
endif()
if(NOT par_folded MATCHES "process:worker_[0-9]+;")
  message(FATAL_ERROR
      "--jobs 2 folded profile has no worker stacks (profile shipping "
      "broken):\n${par_folded}")
endif()

# proftop --by stage must attribute >= 90% of samples to named spans.
# Integer math on the greppable "attributed N/M samples" line avoids float
# comparisons: N/M >= 0.9 <=> 10*N >= 9*M.
foreach(folded "${prof_seq}" "${prof_par}")
  execute_process(
    COMMAND "${CLI_BIN}" proftop "${folded}" --by stage
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE proftop_stdout
    ERROR_VARIABLE proftop_stderr)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
        "proftop --by stage exited with ${exit_code} on ${folded}\n"
        "stderr:\n${proftop_stderr}")
  endif()
  if(NOT proftop_stdout MATCHES
     "attributed ([0-9]+)/([0-9]+) samples")
    message(FATAL_ERROR
        "proftop printed no attribution line for ${folded}\n${proftop_stdout}")
  endif()
  math(EXPR attributed_x10 "${CMAKE_MATCH_1} * 10")
  math(EXPR total_x9 "${CMAKE_MATCH_2} * 9")
  if(attributed_x10 LESS total_x9)
    message(FATAL_ERROR
        "proftop attributed only ${CMAKE_MATCH_1}/${CMAKE_MATCH_2} samples "
        "to named spans (< 90%) for ${folded}\n${proftop_stdout}")
  endif()
endforeach()

# The sequential and --jobs 2 stage shares describe the same work, so they
# must agree within a loose tolerance on every stage holding >= 10% of
# either profile (sampling noise dominates below that).
execute_process(
  COMMAND "${CLI_BIN}" proftop "${prof_seq}" --by stage
          --compare "${prof_par}" --tolerance 0.40 --min_share 0.10
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE compare_stdout
  ERROR_VARIABLE compare_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "sequential vs --jobs 2 stage shares drifted (exit ${exit_code})\n"
      "stdout:\n${compare_stdout}\nstderr:\n${compare_stderr}")
endif()

message(STATUS
    "bench_smoke OK: profiled sequential + --jobs 2 runs, merged worker "
    "stacks, >= 90% span attribution, stage shares agree")

# ---------------------------------------------------------------------------
# Serve drill: the always-on daemon under closed-loop load, clean and under
# chaos. The clean run asserts every request succeeds and the cached probe
# is byte-identical; the chaos run (crash failpoints in the cell workers)
# asserts every request still terminates definitely. Both runs end in a
# SIGTERM drain that must flush daemon metrics durably.

file(REMOVE "${WORK_DIR}/BENCH_serve.json"
     "${WORK_DIR}/bench_serve_daemon_metrics.json")
execute_process(
  COMMAND "${SERVE_BIN}" --scale 0.25
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE serve_stdout
  ERROR_VARIABLE serve_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "clean serve bench exited with ${exit_code}\n"
      "stdout:\n${serve_stdout}\nstderr:\n${serve_stderr}")
endif()
if(NOT serve_stdout MATCHES "serve bench OK")
  message(FATAL_ERROR
      "clean serve bench did not report OK:\n${serve_stdout}")
endif()
foreach(artifact "BENCH_serve.json" "bench_serve_daemon_metrics.json")
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "serve bench left no ${artifact}")
  endif()
endforeach()
file(READ "${WORK_DIR}/bench_serve_daemon_metrics.json" drain_metrics)
foreach(metric
    "fairem.serve.requests_total"
    "fairem.serve.requests_ok"
    "fairem.serve.shutdowns")
  if(NOT drain_metrics MATCHES "\"${metric}\"")
    message(FATAL_ERROR
        "durable drain metrics are missing ${metric}:\n${drain_metrics}")
  endif()
endforeach()

# Client-observed p95 gate. Self-diff: the absolute threshold applies to
# the NEW value, so gating a file against itself still catches a slow run.
execute_process(
  COMMAND "${CLI_BIN}" benchdiff
          "${WORK_DIR}/BENCH_serve.json" "${WORK_DIR}/BENCH_serve.json"
          --fail_on "fairem.serve.client.latency_seconds.p95>15.0abs"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE diff_stdout
  ERROR_VARIABLE diff_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "serve client p95 latency gate failed (exit ${exit_code})\n"
      "stdout:\n${diff_stdout}\nstderr:\n${diff_stderr}")
endif()

# Chaos: every other cell computation crashes its worker mid-flight; the
# respawn budget and deadline watchdog must still give every client a
# definite answer, and the post-load probe must match the clean payload
# shape byte-for-byte across retries (asserted inside the bench).
execute_process(
  COMMAND "${SERVE_BIN}" --scale 0.25 --failpoints "grid_cell=crash(0.5)"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE chaos_stdout
  ERROR_VARIABLE chaos_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "chaos serve bench exited with ${exit_code}\n"
      "stdout:\n${chaos_stdout}\nstderr:\n${chaos_stderr}")
endif()
if(NOT chaos_stdout MATCHES "serve bench OK")
  message(FATAL_ERROR
      "chaos serve bench did not report OK:\n${chaos_stdout}")
endif()

message(STATUS
    "bench_smoke OK: serve daemon survived clean + chaos load, p95 gated, "
    "drain metrics durable")

# ---------------------------------------------------------------------------
# Route drill (DESIGN.md §15): the same closed loop against a 3-backend
# fleet behind the shard router. One backend is SIGKILLed as the load opens
# and restarted after it: the bench itself asserts zero client-visible
# failures, byte-identity with a direct daemon answer, and that the corpse
# rejoins without a router restart; here we additionally gate the router's
# durable drain metrics and the client p95 with `fairem benchdiff`.

file(REMOVE "${WORK_DIR}/BENCH_serve_route.json"
     "${WORK_DIR}/bench_route_daemon_metrics.json")
execute_process(
  COMMAND "${SERVE_BIN}" --route --scale 0.25
          --checkpoint_dir "${WORK_DIR}/route_ckpt"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE route_stdout
  ERROR_VARIABLE route_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "route bench exited with ${exit_code}\n"
      "stdout:\n${route_stdout}\nstderr:\n${route_stderr}")
endif()
if(NOT route_stdout MATCHES "serve bench OK")
  message(FATAL_ERROR
      "route bench did not report OK:\n${route_stdout}")
endif()
foreach(artifact "BENCH_serve_route.json" "bench_route_daemon_metrics.json")
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "route bench left no ${artifact}")
  endif()
endforeach()
file(READ "${WORK_DIR}/bench_route_daemon_metrics.json" route_metrics)
foreach(metric
    "fairem.route.queries_total"
    "fairem.route.failovers"
    "fairem.route.shutdowns")
  if(NOT route_metrics MATCHES "\"${metric}\"")
    message(FATAL_ERROR
        "durable route drain metrics are missing ${metric}:\n"
        "${route_metrics}")
  endif()
endforeach()

# Losing a fleet member must stay invisible to clients: failed_queries in
# the router's own drain snapshot has to be exactly zero. Self-diff: the
# absolute threshold applies to the NEW value.
execute_process(
  COMMAND "${CLI_BIN}" benchdiff
          "${WORK_DIR}/bench_route_daemon_metrics.json"
          "${WORK_DIR}/bench_route_daemon_metrics.json"
          --fail_on "fairem.route.failed_queries>0.5abs"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE diff_stdout
  ERROR_VARIABLE diff_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "route failed_queries gate failed (exit ${exit_code})\n"
      "stdout:\n${diff_stdout}\nstderr:\n${diff_stderr}")
endif()

# And the client-observed p95 through the router stays bounded even with a
# backend dying mid-run — hedging and failover, not timeouts, absorb it.
execute_process(
  COMMAND "${CLI_BIN}" benchdiff
          "${WORK_DIR}/BENCH_serve_route.json"
          "${WORK_DIR}/BENCH_serve_route.json"
          --fail_on "fairem.serve.client.latency_seconds.p95>15.0abs"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE diff_stdout
  ERROR_VARIABLE diff_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "route client p95 latency gate failed (exit ${exit_code})\n"
      "stdout:\n${diff_stdout}\nstderr:\n${diff_stderr}")
endif()

message(STATUS
    "bench_smoke OK: shard router absorbed a mid-load backend SIGKILL with "
    "zero client-visible failures, rejoin verified, p95 gated")

# ---------------------------------------------------------------------------
# Tracing drill (DESIGN.md §16): the routed drill again with distributed
# tracing on. Two runs share the route drill's checkpoint dir (so cell
# computes are cached and p95 measures serving overhead, not recompute
# noise):
#   1. clean — gates the cost of tracing: client p95 with tracing on must
#      stay within 1.10x of the tracing-off route run above;
#   2. chaos (worker crashes + the drill's own backend SIGKILL) — gates
#      trace completeness: >= 95% of OK cell queries must still carry a
#      full router+daemon hop timeline, and the slow-query log the fleet
#      wrote must render through `fairem slowlog` and `fairem tracetop`.

file(REMOVE "${WORK_DIR}/BENCH_serve_route_trace.json"
     "${WORK_DIR}/bench_serve_slow.jsonl")
execute_process(
  COMMAND "${SERVE_BIN}" --route --trace --scale 0.25
          --checkpoint_dir "${WORK_DIR}/route_ckpt"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE trace_stdout
  ERROR_VARIABLE trace_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "trace route bench exited with ${exit_code}\n"
      "stdout:\n${trace_stdout}\nstderr:\n${trace_stderr}")
endif()
if(NOT trace_stdout MATCHES "serve bench OK")
  message(FATAL_ERROR
      "trace route bench did not report OK:\n${trace_stdout}")
endif()
if(NOT EXISTS "${WORK_DIR}/BENCH_serve_route_trace.json")
  message(FATAL_ERROR "trace route bench left no BENCH_serve_route_trace.json")
endif()

# Tracing must be close to free: tracing-on p95 within 1.10x of the
# tracing-off route run (same drill shape, same warmed checkpoints), and
# even the clean run must deliver complete hop timelines.
execute_process(
  COMMAND "${CLI_BIN}" benchdiff
          "${WORK_DIR}/BENCH_serve_route.json"
          "${WORK_DIR}/BENCH_serve_route_trace.json"
          --fail_on "fairem.serve.client.latency_seconds.p95>1.10x"
          --fail_on "fairem.serve.trace.completeness_ratio<0.95abs"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE diff_stdout
  ERROR_VARIABLE diff_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "tracing overhead / completeness gate failed (exit ${exit_code})\n"
      "stdout:\n${diff_stdout}\nstderr:\n${diff_stderr}")
endif()

# Chaos run: worker crashes on top of the backend SIGKILL. Retries,
# failovers, and hedges all still stitch into one timeline per query —
# completeness stays gated at 0.95.
execute_process(
  COMMAND "${SERVE_BIN}" --route --trace --scale 0.25
          --checkpoint_dir "${WORK_DIR}/route_ckpt"
          --failpoints "grid_cell=crash(0.5)"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE trace_chaos_stdout
  ERROR_VARIABLE trace_chaos_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "chaos trace route bench exited with ${exit_code}\n"
      "stdout:\n${trace_chaos_stdout}\nstderr:\n${trace_chaos_stderr}")
endif()
if(NOT trace_chaos_stdout MATCHES "serve bench OK")
  message(FATAL_ERROR
      "chaos trace route bench did not report OK:\n${trace_chaos_stdout}")
endif()
execute_process(
  COMMAND "${CLI_BIN}" benchdiff
          "${WORK_DIR}/BENCH_serve_route_trace.json"
          "${WORK_DIR}/BENCH_serve_route_trace.json"
          --fail_on "fairem.serve.trace.completeness_ratio<0.95abs"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE diff_stdout
  ERROR_VARIABLE diff_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "chaos trace completeness gate failed (exit ${exit_code})\n"
      "stdout:\n${diff_stdout}\nstderr:\n${diff_stderr}")
endif()

# The fleet (router + backends, 1 ms threshold) must have left a
# span-carrying slow-query log that both renderers consume cleanly.
if(NOT EXISTS "${WORK_DIR}/bench_serve_slow.jsonl")
  message(FATAL_ERROR "trace route bench left no bench_serve_slow.jsonl")
endif()
execute_process(
  COMMAND "${CLI_BIN}" slowlog "${WORK_DIR}/bench_serve_slow.jsonl"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE slowlog_stdout
  ERROR_VARIABLE slowlog_stderr)
if(NOT exit_code EQUAL 0 OR NOT slowlog_stdout MATCHES "slow quer")
  message(FATAL_ERROR
      "fairem slowlog could not render the slow-query log "
      "(exit ${exit_code})\n"
      "stdout:\n${slowlog_stdout}\nstderr:\n${slowlog_stderr}")
endif()
execute_process(
  COMMAND "${CLI_BIN}" tracetop "${WORK_DIR}/bench_serve_slow.jsonl"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE tracetop_stdout
  ERROR_VARIABLE tracetop_stderr)
if(NOT exit_code EQUAL 0 OR NOT tracetop_stdout MATCHES "critical path")
  message(FATAL_ERROR
      "fairem tracetop could not summarize the slow-query log "
      "(exit ${exit_code})\n"
      "stdout:\n${tracetop_stdout}\nstderr:\n${tracetop_stderr}")
endif()

message(STATUS
    "bench_smoke OK: distributed tracing added <= 1.10x p95 overhead, "
    ">= 95% of routed queries kept complete hop timelines under chaos, "
    "and the slow-query log rendered through slowlog + tracetop")

# ---------------------------------------------------------------------------
# SIMD drill (DESIGN.md §17): the vectorized similarity kernels against
# their scalar seed baseline. FAIREM_SIMD=off routes every kernel through
# the original per-call scalar code and skips token interning entirely, so
# the off-run is the honest pre-optimization baseline, not a detuned
# vector path. Three checks:
#   1. determinism — the micro bench's per-drill checksums (its entire
#      stdout) and both grid benches' reports must be byte-identical across
#      dispatch modes;
#   2. telemetry — the SIMD run's snapshot must carry the
#      fairem.simd.{dispatch_level,kernel_calls,scratch_reuses} metrics;
#   3. speedup — on hosts that dispatch at SSE4.2 or better, `fairem
#      benchdiff` gates the vectorized kernels: >= ~3x on long-string
#      Levenshtein and q-gram set intersections (mean ratio <= 0.34), with
#      softer regression guards on the overhead-bound short-string drills.

if(NOT DEFINED MICRO_BIN)
  return()
endif()

set(simd_scalar_metrics "${WORK_DIR}/bench_smoke_simd_scalar.json")
set(simd_vector_metrics "${WORK_DIR}/bench_smoke_simd_vector.json")
file(REMOVE "${simd_scalar_metrics}" "${simd_vector_metrics}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env FAIREM_SIMD=off
          "${MICRO_BIN}" --reps 5 --metrics_out "${simd_scalar_metrics}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE micro_scalar_stdout
  ERROR_VARIABLE micro_scalar_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "FAIREM_SIMD=off micro bench exited with ${exit_code}\n"
      "stderr:\n${micro_scalar_stderr}")
endif()

execute_process(
  COMMAND "${MICRO_BIN}" --reps 5 --metrics_out "${simd_vector_metrics}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE micro_vector_stdout
  ERROR_VARIABLE micro_vector_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "micro bench exited with ${exit_code}\n"
      "stderr:\n${micro_vector_stderr}")
endif()

# 1a. The micro bench prints one "BENCHVAL <drill> <%.17g checksum>" line
# per drill and nothing else on stdout; a single flipped double bit in any
# kernel shows up here.
if(NOT micro_vector_stdout STREQUAL micro_scalar_stdout)
  message(FATAL_ERROR
      "SIMD kernels diverge from the scalar baseline\n"
      "--- FAIREM_SIMD=off ---\n${micro_scalar_stdout}\n"
      "--- vectorized ---\n${micro_vector_stdout}")
endif()
if(NOT micro_vector_stdout MATCHES "BENCHVAL lev_long ")
  message(FATAL_ERROR
      "micro bench printed no checksum lines:\n${micro_vector_stdout}")
endif()

# 1b. Both grid benches' full reports, FAIREM_SIMD=off vs the SIMD-on
# baselines captured earlier in this script.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env FAIREM_SIMD=off
          "${GRID_BIN}" --scale 0.25
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE grid_scalar_stdout
  ERROR_VARIABLE grid_scalar_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "FAIREM_SIMD=off grid bench exited with ${exit_code}\n"
      "stderr:\n${grid_scalar_stderr}")
endif()
if(NOT grid_scalar_stdout STREQUAL baseline_stdout)
  message(FATAL_ERROR
      "FAIREM_SIMD=off grid report differs from the SIMD-on run\n"
      "--- SIMD on ---\n${baseline_stdout}\n"
      "--- FAIREM_SIMD=off ---\n${grid_scalar_stdout}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env FAIREM_SIMD=off
          "${PROF_BIN}" --scale 0.25
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE prof_scalar_stdout
  ERROR_VARIABLE prof_scalar_stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
      "FAIREM_SIMD=off second grid bench exited with ${exit_code}\n"
      "stderr:\n${prof_scalar_stderr}")
endif()
if(NOT prof_scalar_stdout STREQUAL prof_seq_stdout)
  message(FATAL_ERROR
      "FAIREM_SIMD=off second grid report differs from the SIMD-on run\n"
      "--- SIMD on ---\n${prof_seq_stdout}\n"
      "--- FAIREM_SIMD=off ---\n${prof_scalar_stdout}")
endif()

# 2. The vectorized run must surface its dispatch telemetry.
file(READ "${simd_vector_metrics}" simd_snapshot)
foreach(key
    "fairem.simd.dispatch_level"
    "fairem.simd.kernel_calls"
    "fairem.simd.scratch_reuses")
  if(NOT simd_snapshot MATCHES "\"${key}\"")
    message(FATAL_ERROR
        "SIMD metrics snapshot is missing ${key}:\n${simd_snapshot}")
  endif()
endforeach()

# 3. Speedup gates, only where the hardware actually dispatches a vector
# tier (level >= 2 is SSE4.2; 0 would mean the escape hatch, 1 the portable
# bit-parallel path on non-x86 hosts — still byte-checked above).
string(REGEX MATCH "\"fairem\\.simd\\.dispatch_level\": ([0-9]+)"
       _ "${simd_snapshot}")
set(dispatch_level "${CMAKE_MATCH_1}")
if(dispatch_level GREATER_EQUAL 2)
  execute_process(
    COMMAND "${CLI_BIN}" benchdiff
            "${simd_scalar_metrics}" "${simd_vector_metrics}"
            --fail_on "fairem.bench.micro.lev_long_seconds.mean>0.34x"
            --fail_on "fairem.bench.micro.token_qgram_seconds.mean>0.34x"
            --fail_on "fairem.bench.micro.token_word_seconds.mean>0.45x"
            --fail_on "fairem.bench.micro.lev_short_seconds.mean>0.60x"
            --fail_on "fairem.bench.micro.all_measures_seconds.mean>1.10x"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE simd_diff_stdout
    ERROR_VARIABLE simd_diff_stderr)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
        "vectorized kernels missed their speedup gates at dispatch level "
        "${dispatch_level}\n"
        "stdout:\n${simd_diff_stdout}\nstderr:\n${simd_diff_stderr}")
  endif()
  message(STATUS
      "bench_smoke OK: SIMD kernels byte-identical to scalar on the micro "
      "checksums + both grid reports, speedup gates cleared at dispatch "
      "level ${dispatch_level}")
else()
  message(STATUS
      "bench_smoke: dispatch level ${dispatch_level} (< SSE4.2); SIMD "
      "byte-identity verified, speedup gates skipped")
endif()
