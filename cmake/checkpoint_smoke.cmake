# CTest script: end-to-end checkpoint/resume smoke through the salign CLI.
#   1. generate a synthetic family,
#   2. align it with --checkpoint-dir and --stats,
#   3. verify the checkpoint with `salign stages --verify`,
#   4. delete the output and re-run with --resume,
#   5. require byte-identical output and a fully-resumed stage report.
# Steps 2-5 run twice: with --procs 4 (every Sample-Align-D stage) and with
# --procs 1 --polish (the single-rank run: bucket-align, then polish).
# Invoked as:
#   cmake -DSALIGN_CLI=<path> -DWORK_DIR=<dir> -P checkpoint_smoke.cmake
# The --stats reports of every run are left in WORK_DIR
# (stage_stats_<round>_*.txt) so CI can upload them as an artifact.

if(NOT SALIGN_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "checkpoint_smoke: SALIGN_CLI and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(in_fasta "${WORK_DIR}/family.fasta")

execute_process(
  COMMAND "${SALIGN_CLI}" generate --kind rose --out "${in_fasta}"
          --n 24 --length 60 --seed 11
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "salign generate failed (${rc}):\n${out}\n${err}")
endif()

# One checkpoint -> verify -> resume round; ARGN are the align options.
function(checkpoint_round round)
  set(fresh_fasta "${WORK_DIR}/${round}_fresh.fasta")
  set(resumed_fasta "${WORK_DIR}/${round}_resumed.fasta")
  set(ckpt_dir "${WORK_DIR}/${round}_checkpoint")

  execute_process(
    COMMAND "${SALIGN_CLI}" align --in "${in_fasta}" --out "${fresh_fasta}"
            ${ARGN} --checkpoint-dir "${ckpt_dir}" --stats
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE stats_fresh)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${round}: fresh align failed (${rc}):\n${out}\n${stats_fresh}")
  endif()
  file(WRITE "${WORK_DIR}/stage_stats_${round}_fresh.txt" "${stats_fresh}")
  if(NOT EXISTS "${ckpt_dir}/manifest.tsv")
    message(FATAL_ERROR "${round}: no manifest.tsv written in ${ckpt_dir}")
  endif()

  execute_process(
    COMMAND "${SALIGN_CLI}" stages --dir "${ckpt_dir}" --verify
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stages_out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${round}: salign stages --verify failed (${rc}):\n${stages_out}\n${err}")
  endif()
  if(NOT stages_out MATCHES "all artifacts verified")
    message(FATAL_ERROR
      "${round}: stages --verify did not verify:\n${stages_out}")
  endif()

  # Kill the "process state" (the output), keep the checkpoint, resume.
  file(REMOVE "${fresh_fasta}")
  execute_process(
    COMMAND "${SALIGN_CLI}" align --in "${in_fasta}" --out "${resumed_fasta}"
            ${ARGN} --checkpoint-dir "${ckpt_dir}" --resume --stats
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE stats_resumed)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${round}: resumed align failed (${rc}):\n${out}\n${stats_resumed}")
  endif()
  file(WRITE "${WORK_DIR}/stage_stats_${round}_resumed.txt" "${stats_resumed}")
  if(NOT stats_resumed MATCHES "([0-9]+) of ([0-9]+) stages resumed")
    message(FATAL_ERROR
      "${round}: no resume report in --stats:\n${stats_resumed}")
  endif()
  if(CMAKE_MATCH_1 EQUAL 0 OR NOT CMAKE_MATCH_1 EQUAL CMAKE_MATCH_2)
    message(FATAL_ERROR
      "${round}: expected every stage resumed, got "
      "${CMAKE_MATCH_1}/${CMAKE_MATCH_2}:\n${stats_resumed}")
  endif()
  set(stages "${CMAKE_MATCH_2}")

  # The resumed run must be bit-identical to the fresh one. The fresh output
  # was deleted above, so regenerate it from scratch (no checkpoint) and diff.
  execute_process(
    COMMAND "${SALIGN_CLI}" align --in "${in_fasta}" --out "${fresh_fasta}"
            ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${round}: re-run align failed (${rc}):\n${out}\n${err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${fresh_fasta}" "${resumed_fasta}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${round}: resumed output differs from fresh output "
      "(${fresh_fasta} vs ${resumed_fasta})")
  endif()

  message(STATUS
    "checkpoint_smoke ${round}: checkpoint -> verify -> resume bit-identical "
    "(${stages} stages)")
endfunction()

checkpoint_round(p4 --procs 4)
checkpoint_round(p1_polish --procs 1 --polish)
