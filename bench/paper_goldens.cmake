# Golden lane for the 14 benches on the paper-bench driver
# (bench/paper_bench.h). Each runs at --scale 0.25 and must exit 0, print
# bench/golden/<bench>.txt byte for byte on stdout, and leave
# BENCH_<bench>.json in the work dir. Three more cases pin three fixes:
# Table 5 at --scale 0.05 --seed 1 prints "-" for a disparity of an
# undefined rate, Figures 2/3 under --intra_jobs 2 print the same stdout
# with the flag reaching the thread pool (fairem.pool.workers 1), and
# Figures 6/7 under --jobs 2 print each grid once (forked workers must not
# inherit unflushed stdout). The Table 7 and Figure 14 snapshots must show
# each dataset generated and each (dataset, matcher) fitted once, and the
# Figures 6/7 snapshot each matcher fitted once for both grids. Invoked by
# CTest:
#   cmake -DBENCH_DIR=<dir> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir> -P <this>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(failures "")

# Runs `bench` with the remaining arguments as case `name`, expecting exit
# 0, the stdout in `golden` and a fresh BENCH_<bench>.json.
macro(expect_golden name golden bench)
  file(REMOVE "${WORK_DIR}/BENCH_${bench}.json")
  execute_process(COMMAND "${BENCH_DIR}/${bench}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_FILE "${WORK_DIR}/${name}.out"
                  ERROR_FILE "${WORK_DIR}/${name}.err"
                  RESULT_VARIABLE code TIMEOUT 600)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${golden}.txt"
                          "${WORK_DIR}/${name}.out"
                  RESULT_VARIABLE differs)
  if(NOT code STREQUAL "0")
    list(APPEND failures "${name}: exited ${code}, see ${name}.err")
  elseif(differs)
    list(APPEND failures "${name}: stdout differs from golden/${golden}.txt")
  elseif(NOT EXISTS "${WORK_DIR}/BENCH_${bench}.json")
    list(APPEND failures "${name}: no BENCH_${bench}.json")
  endif()
endmacro()

# Expects `"<key>": <value>` in the bench's last snapshot.
macro(expect_metric bench key value)
  set(snapshot "")
  if(EXISTS "${WORK_DIR}/BENCH_${bench}.json")
    file(READ "${WORK_DIR}/BENCH_${bench}.json" snapshot)
  endif()
  if(NOT snapshot MATCHES "\"${key}\": ${value}[,\n]")
    list(APPEND failures "${bench}: snapshot lacks \"${key}\": ${value}")
  endif()
endmacro()

foreach(bench
    bench_fig6_7_dblp_acm bench_fig8_18_itunes bench_fig10_dblp_scholar
    bench_fig11_12_cricket bench_fig13_17_cameras bench_fig19_20_shoes
    bench_table5_nofly bench_table6_faculty bench_table7_sensitivity
    bench_table9_overall bench_fig2_3_social_grids bench_fig4_synergies
    bench_fig14_threshold_maps bench_auc_parity)
  expect_golden(${bench} ${bench} ${bench} --scale 0.25)
endforeach()
foreach(bench bench_table7_sensitivity bench_fig14_threshold_maps)
  expect_metric(${bench} fairem.datagen.datasets_generated 4)
endforeach()
expect_metric(bench_table7_sensitivity fairem.harness.matcher_runs 48)
expect_metric(bench_fig14_threshold_maps fairem.harness.matcher_runs 51)
expect_metric(bench_fig6_7_dblp_acm fairem.harness.matcher_runs 13)

expect_golden(table5_undefined_rate bench_table5_nofly_scale0.05_seed1
              bench_table5_nofly --scale 0.05 --seed 1)
expect_golden(fig2_3_intra_jobs bench_fig2_3_social_grids
              bench_fig2_3_social_grids --scale 0.25 --intra_jobs 2)
expect_metric(bench_fig2_3_social_grids fairem.pool.workers 1)
expect_golden(fig6_7_jobs2 bench_fig6_7_dblp_acm
              bench_fig6_7_dblp_acm --scale 0.25 --jobs 2)

if(failures)
  list(JOIN failures "\n" report)
  message(FATAL_ERROR "paper_goldens (work dir ${WORK_DIR}):\n${report}")
endif()
message(STATUS "paper_goldens OK")
