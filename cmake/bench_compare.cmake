# Compares the kernel_cells_per_second summary of a freshly produced
# BENCH_baseline.json against the committed per-PR baseline and WARNS (never
# fails) on regressions beyond the threshold — CI runners are noisy, so this
# is a tripwire for reviewers, not a gate. Every benchmark that exports a
# cells_per_second counter is covered automatically (the pairwise/striped
# engine kernels, the distance-matrix drivers, and since PR 4 the
# profile-DP kernels BM_ProfileDp* and the task-parallel progressive pass
# BM_ProgressiveAlign/<threads> — whose counter is measured against wall
# time, so the 1-vs-4-thread entries carry the scheduler speedup).
# The kernel_pairs_per_second summary (the all-pairs k-mer and
# induced-Kimura matrices, BM_KmerDistanceMatrix and BM_InducedKimura, also
# against wall time) is compared by the same rule. A kernel
# present in the committed baseline but absent from the current run also
# warns: a silently dropped or renamed bench must not pass as green.
# Invoked as:
#   cmake -DBASELINE=BENCH_pr4.json -DCURRENT=build/BENCH_baseline.json
#         [-DTHRESHOLD_PERCENT=80] -P cmake/bench_compare.cmake

if(NOT BASELINE OR NOT CURRENT)
  message(FATAL_ERROR "bench_compare: BASELINE and CURRENT are required")
endif()
if(NOT THRESHOLD_PERCENT)
  set(THRESHOLD_PERCENT 80)  # warn below 80% of baseline (>20% regression)
endif()

# Converts a JSON number (possibly scientific notation, e.g. "3.08e+09")
# into a plain integer (truncated). CMake's math() is int64-only, so the
# ratio test below runs on integers scaled by THRESHOLD_PERCENT.
function(sci_to_int value out_var)
  if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?([eE]\\+?(-?[0-9]+))?$")
    set(${out_var} "" PARENT_SCOPE)
    return()
  endif()
  set(int_part "${CMAKE_MATCH_1}")
  set(frac "${CMAKE_MATCH_3}")
  set(exp "${CMAKE_MATCH_5}")
  if(exp STREQUAL "")
    set(exp 0)
  endif()
  string(LENGTH "${frac}" frac_len)
  math(EXPR shift "${exp} - ${frac_len}")
  set(digits "${int_part}${frac}")
  if(shift GREATER 0)
    foreach(_ RANGE 1 ${shift})
      set(digits "${digits}0")
    endforeach()
  elseif(shift LESS 0)
    math(EXPR keep "0 - ${shift}")
    string(LENGTH "${digits}" dlen)
    if(dlen LESS_EQUAL keep)
      set(digits 0)
    else()
      math(EXPR dlen "${dlen} - ${keep}")
      string(SUBSTRING "${digits}" 0 ${dlen} digits)
    endif()
  endif()
  # Strip leading zeros so math() does not read octal.
  string(REGEX REPLACE "^0+([0-9])" "\\1" digits "${digits}")
  set(${out_var} "${digits}" PARENT_SCOPE)
endfunction()

file(READ "${BASELINE}" baseline_json)
file(READ "${CURRENT}" current_json)

# Schema 3 context block (hardware_concurrency + preset). Schema 2
# baselines predate it; report "unknown" rather than failing so old
# committed baselines keep comparing.
function(describe_context json out_var)
  string(JSON ctx ERROR_VARIABLE ctx_err GET "${json}" context)
  if(ctx_err)
    set(${out_var} "unknown (schema 2)" PARENT_SCOPE)
    return()
  endif()
  string(JSON cores ERROR_VARIABLE e1 GET "${ctx}" hardware_concurrency)
  string(JSON preset ERROR_VARIABLE e2 GET "${ctx}" preset)
  set(${out_var} "${cores} cores, preset '${preset}'" PARENT_SCOPE)
endfunction()
describe_context("${baseline_json}" baseline_ctx)
describe_context("${current_json}" current_ctx)
set(context_note
    " [baseline: ${baseline_ctx}; current: ${current_ctx}]")

# Compares one summary section (`counter` per benchmark name) of the
# current run against the committed baseline. A baseline without the
# section (schema < 4 has no kernel_pairs_per_second) counts as having no
# entries: each current kernel prints "no baseline entry" and nothing
# warns. Adds to `compared` and `regressed` in the caller's scope.
function(compare_section section counter)
  # name -> counter value of the committed baseline.
  set(base_names "")
  string(JSON base_entries ERROR_VARIABLE base_err
         GET "${baseline_json}" ${section} entries)
  if(base_err)
    set(base_len 0)
  else()
    string(JSON base_len LENGTH "${base_entries}")
  endif()
  if(base_len GREATER 0)
    math(EXPR base_last "${base_len} - 1")
    foreach(i RANGE 0 ${base_last})
      string(JSON name GET "${base_entries}" ${i} name)
      string(JSON value GET "${base_entries}" ${i} ${counter})
      string(MAKE_C_IDENTIFIER "${name}" key)
      sci_to_int("${value}" base_${key})
      list(APPEND base_names "${name}")
    endforeach()
  endif()

  string(JSON cur_entries ERROR_VARIABLE cur_err
         GET "${current_json}" ${section} entries)
  if(cur_err)
    set(cur_len 0)
  else()
    string(JSON cur_len LENGTH "${cur_entries}")
  endif()
  if(cur_len GREATER 0)
    math(EXPR cur_last "${cur_len} - 1")
    foreach(i RANGE 0 ${cur_last})
      string(JSON name GET "${cur_entries}" ${i} name)
      string(JSON value GET "${cur_entries}" ${i} ${counter})
      string(MAKE_C_IDENTIFIER "${name}" key)
      list(REMOVE_ITEM base_names "${name}")
      if(NOT DEFINED base_${key} OR base_${key} STREQUAL "" OR
         base_${key} EQUAL 0)
        message(STATUS "bench_compare: ${name}: no baseline entry (new bench)")
        continue()
      endif()
      sci_to_int("${value}" cur_int)
      if(cur_int STREQUAL "")
        continue()
      endif()
      math(EXPR compared "${compared} + 1")
      math(EXPR lhs "${cur_int} * 100")
      math(EXPR rhs "${base_${key}} * ${THRESHOLD_PERCENT}")
      if(lhs LESS rhs)
        math(EXPR regressed "${regressed} + 1")
        message(WARNING "bench_compare: ${name} regressed: ${value} "
                        "${counter} vs baseline ${base_${key}} (below "
                        "${THRESHOLD_PERCENT}%)${context_note}")
      endif()
    endforeach()
  endif()

  # Baseline kernels the current run did not report at all.
  foreach(name IN LISTS base_names)
    message(WARNING "bench_compare: ${name} is in ${BASELINE} but missing "
                    "from the current run (bench dropped or renamed?)"
                    "${context_note}")
  endforeach()
  set(compared ${compared} PARENT_SCOPE)
  set(regressed ${regressed} PARENT_SCOPE)
endfunction()

set(compared 0)
set(regressed 0)
compare_section(kernel_cells_per_second cells_per_second)
compare_section(kernel_pairs_per_second pairs_per_second)

message(STATUS "bench_compare: ${compared} kernels compared against "
               "${BASELINE}; ${regressed} below ${THRESHOLD_PERCENT}%"
               "${context_note}")
