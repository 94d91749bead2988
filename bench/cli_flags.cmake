# Every flag-parsing bench in BENCH_BINS ('|'-separated) and every `fairem`
# subcommand must exit 1 on --no_such_flag and name it on stderr, and the
# CLI must reject a non-integer --jobs and a negative --seed. Every case
# fails while parsing flags, so the lane takes seconds. Invoked by CTest:
#   cmake -DBENCH_BINS=<a>|<b> -DCLI_BIN=<path> -DWORK_DIR=<dir> -P <this>

set(failures "")
macro(expect_rejected needle)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT code STREQUAL "1" OR NOT err MATCHES "${needle}")
    list(APPEND failures "'${ARGN}' exited ${code}: ${err}")
  endif()
endmacro()

string(REPLACE "|" ";" bench_bins "${BENCH_BINS}")
foreach(bin ${bench_bins})
  expect_rejected(--no_such_flag "${bin}" --no_such_flag)
endforeach()
foreach(command list generate audit pipeline grid benchdiff proftop serve
                route query slowlog tracetop)
  expect_rejected(--no_such_flag "${CLI_BIN}" ${command} --no_such_flag)
endforeach()
expect_rejected(--jobs "${CLI_BIN}" grid Cricket --jobs 2.5)
expect_rejected(--seed "${CLI_BIN}" generate Cricket cli_flags_D --seed -1)

if(failures)
  list(JOIN failures "\n" report)
  message(FATAL_ERROR "cli_flags: a command line was not rejected:\n${report}")
endif()
