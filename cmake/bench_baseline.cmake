# Runs the two anchor benches (micro_kernels, fig5_speedup) and writes a
# machine-readable BENCH_baseline.json for later performance PRs to diff
# against. Invoked by the `bench_baseline` custom target as:
#   cmake -DMICRO_KERNELS=<path> -DFIG5_SPEEDUP=<path> -DOUT_JSON=<path>
#         [-DPRESET_NAME=<name>] -P bench_baseline.cmake
#
# Schema 3 adds a "context" block (logical core count of the machine that
# produced the numbers + configure-preset name) so cross-machine comparisons
# are at least flagged: bench_compare prints both contexts next to any
# regression warning. Schema 4 adds the kernel_pairs_per_second summary.
# The embedded google-benchmark output keeps its own context minus the
# executable path and host name.

if(NOT MICRO_KERNELS OR NOT FIG5_SPEEDUP OR NOT OUT_JSON)
  message(FATAL_ERROR
    "bench_baseline: MICRO_KERNELS, FIG5_SPEEDUP and OUT_JSON are required")
endif()

get_filename_component(out_dir "${OUT_JSON}" DIRECTORY)
set(micro_json "${out_dir}/micro_kernels.json")

message(STATUS "bench_baseline: running micro_kernels ...")
execute_process(
  COMMAND "${MICRO_KERNELS}"
          --benchmark_out=${micro_json} --benchmark_out_format=json
          --benchmark_min_time=0.05
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE micro_out
  ERROR_VARIABLE micro_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "micro_kernels failed (${rc}):\n${micro_out}\n${micro_err}")
endif()

message(STATUS "bench_baseline: running fig5_speedup ...")
execute_process(
  COMMAND "${FIG5_SPEEDUP}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE fig5_out
  ERROR_VARIABLE fig5_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig5_speedup failed (${rc}):\n${fig5_out}\n${fig5_err}")
endif()

# Pull the per-(N, p) modeled-seconds/speedup lines out of the fig5 log:
#   N=500 p= 4 modeled 0.123 s (modeled speedup 4.56, projected paper-w^4 speedup 7.8)
set(fig5_entries "")
string(REGEX MATCHALL
  "N=[0-9]+ p=[ ]*[0-9]+ modeled [0-9.eE+-]+ s \\(modeled speedup [0-9.eE+-]+, projected paper-w\\^4 speedup [0-9.eE+-]+\\)"
  fig5_lines "${fig5_out}")
if(NOT fig5_lines)
  message(FATAL_ERROR
    "bench_baseline: no 'N=... p=... modeled ...' lines matched in the "
    "fig5_speedup output — its print format drifted; update the regex "
    "above.\nOutput was:\n${fig5_out}")
endif()
foreach(line IN LISTS fig5_lines)
  string(REGEX REPLACE
    "N=([0-9]+) p=[ ]*([0-9]+) modeled ([0-9.eE+-]+) s \\(modeled speedup ([0-9.eE+-]+), projected paper-w\\^4 speedup ([0-9.eE+-]+)\\)"
    "{\"n\": \\1, \"p\": \\2, \"modeled_seconds\": \\3, \"modeled_speedup\": \\4, \"projected_paper_w4_speedup\": \\5}"
    entry "${line}")
  list(APPEND fig5_entries "${entry}")
endforeach()
list(JOIN fig5_entries ",\n      " fig5_array)

file(READ "${micro_json}" micro_content)
string(TIMESTAMP now UTC)

cmake_host_system_information(RESULT host_cores QUERY NUMBER_OF_LOGICAL_CORES)
if(NOT PRESET_NAME)
  set(PRESET_NAME "none")
endif()

# Pull every benchmark's cells_per_second counter (the alignment engine
# benches) and pairs_per_second counter (the all-pairs distance benches,
# e.g. BM_KmerDistanceMatrix and BM_InducedKimura) into flat summaries so
# perf PRs can diff kernel throughput without walking the full
# google-benchmark JSON.
# The name class admits ':' and '.' for suffixed benchmark names like
# BM_ProgressiveAlign/4/real_time or future threads:N arg labels.
function(summarise_counter counter out_var)
  set(pattern
      "\"name\": \"([A-Za-z0-9_/:.]+)\",[^}]*\"${counter}\": ([0-9.e+-]+)")
  set(entries "")
  string(REGEX MATCHALL "${pattern}" lines "${micro_content}")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "${pattern}"
      "{\"name\": \"\\1\", \"${counter}\": \\2}" entry "${line}")
    list(APPEND entries "${entry}")
  endforeach()
  list(JOIN entries ",\n      " joined)
  set(${out_var} "${joined}" PARENT_SCOPE)
endfunction()
summarise_counter(cells_per_second kernel_array)
summarise_counter(pairs_per_second pairs_array)

# google-benchmark's own context names the micro_kernels executable's path
# and the host; a committed baseline records what ran, not where it was
# built, so both lines are dropped from the embedded copy. Each is followed
# by more context keys, and only a line ending in a comma is removed, so
# the JSON stays valid and keeps google-benchmark's layout.
string(REGEX REPLACE "\n[ ]*\"(executable|host_name)\": \"[^\"\n]*\","
       "" micro_content "${micro_content}")

file(WRITE "${OUT_JSON}" "{
  \"schema\": 4,
  \"generated_utc\": \"${now}\",
  \"context\": {
    \"hardware_concurrency\": ${host_cores},
    \"preset\": \"${PRESET_NAME}\"
  },
  \"description\": \"Baseline perf numbers: google-benchmark micro kernels + Fig.5 modeled speedup sweep. Regenerate with the bench_baseline target.\",
  \"kernel_cells_per_second\": {
    \"entries\": [
      ${kernel_array}
    ]
  },
  \"kernel_pairs_per_second\": {
    \"entries\": [
      ${pairs_array}
    ]
  },
  \"fig5_speedup\": {
    \"entries\": [
      ${fig5_array}
    ]
  },
  \"micro_kernels\": ${micro_content}
}
")

message(STATUS "bench_baseline: wrote ${OUT_JSON}")
