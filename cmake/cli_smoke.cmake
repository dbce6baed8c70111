# CTest script: round-trips a tiny synthetic FASTA through the salign CLI.
# Invoked as:
#   cmake -DSALIGN_CLI=<path> -DWORK_DIR=<dir> -P cli_smoke.cmake
# Fails (FATAL_ERROR) on any non-zero exit or empty/malformed output.

if(NOT SALIGN_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "cli_smoke: SALIGN_CLI and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(in_fasta "${WORK_DIR}/tiny.fasta")
set(out_fasta "${WORK_DIR}/aligned.fasta")

execute_process(
  COMMAND "${SALIGN_CLI}" generate --kind rose --out "${in_fasta}"
          --n 8 --length 60 --seed 7
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "salign generate failed (${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS "${in_fasta}")
  message(FATAL_ERROR "salign generate did not write ${in_fasta}")
endif()

execute_process(
  COMMAND "${SALIGN_CLI}" align --in "${in_fasta}" --out "${out_fasta}"
          --procs 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "salign align failed (${rc}):\n${out}\n${err}")
endif()

file(READ "${out_fasta}" aligned)
string(REGEX MATCHALL ">" headers "${aligned}")
list(LENGTH headers num_records)
if(NOT num_records EQUAL 8)
  message(FATAL_ERROR
    "expected 8 FASTA records in ${out_fasta}, found ${num_records}")
endif()

# The alignment must preserve every input sequence once gaps are stripped;
# `salign score` against the input would need a reference alignment, so the
# cheap invariant here is record count + non-empty rows.
string(REGEX REPLACE "\n+$" "" aligned "${aligned}")
if(aligned STREQUAL "")
  message(FATAL_ERROR "aligned output is empty")
endif()

message(STATUS "cli_smoke: generate -> align round-trip OK (8 records)")

# Work-conserving bucket-align: ranks that finish lend their worker to the
# merges of ranks still aligning. Which worker runs a merge never changes
# the output, so --threads 1 and --threads 3 at --procs 4 are byte-identical,
# and --stats reports the merges that ran on a lent worker.
set(lend_fasta "${WORK_DIR}/lend.fasta")
execute_process(
  COMMAND "${SALIGN_CLI}" generate --kind rose --out "${lend_fasta}"
          --n 400 --length 120 --seed 11
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "salign generate failed (${rc}):\n${out}\n${err}")
endif()
foreach(threads 1 3)
  execute_process(
    COMMAND "${SALIGN_CLI}" align --in "${lend_fasta}"
            --out "${WORK_DIR}/lend_t${threads}.fasta"
            --procs 4 --threads ${threads} --stats
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "salign align --threads ${threads} failed (${rc}):\n${out}\n${err}")
  endif()
  set(stats_t${threads} "${out}${err}")
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK_DIR}/lend_t1.fasta" "${WORK_DIR}/lend_t3.fasta"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "--procs 4: --threads 1 and --threads 3 outputs differ")
endif()
string(REGEX MATCH "lent merges +\\| +\\| ([0-9]+)/([0-9]+) merges"
       lent_row "${stats_t1}")
if(NOT lent_row)
  message(FATAL_ERROR "--stats printed no lent-merges row:\n${stats_t1}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "no merge ran on a lent worker: ${lent_row}")
endif()
message(STATUS "cli_smoke: --procs 4 threads 1/3 identical; ${lent_row}")
