# CTest script: the serve daemon's kill -9 crash drill, through the real
# CLI binary and a real process kill — the recovery path an operator hits.
#   1. generate one long-running family and two quick ones, plus clean
#      reference alignments for all three,
#   2. start `salign serve`, submit all three jobs (the long one first so
#      it is running while the others queue),
#   3. kill -9 the daemon mid-job — the journal must show the job torn
#      mid-`running`, and its checkpoint prefix must `stages --verify`,
#   4. restart the daemon on the same socket (stale-socket reclaim) and
#      journal — the replay must resume every job to completion,
#   5. byte-compare all three outputs against the fresh references,
#   6. `salign serve --stop` must drain and unlink the socket.
# Invoked as:
#   cmake -DSALIGN_CLI=<path> -DWORK_DIR=<dir> -P serve_smoke.cmake
# Every run's output is kept in WORK_DIR (serve_*.log) for CI upload.

if(NOT SALIGN_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "serve_smoke: SALIGN_CLI and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(sock "${WORK_DIR}/d.sock")
set(journal "${WORK_DIR}/journal")
set(pid_file "${WORK_DIR}/daemon.pid")

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

# Every failure past this point raises through here: it kills the daemon
# named in ${pid_file} if it is still alive, so a failed drill leaves no
# `salign serve` behind, then raises the same FATAL_ERROR text. The
# arguments are read one by one so a semicolon inside one survives.
function(fail)
  if(EXISTS "${pid_file}")
    file(READ "${pid_file}" pid)
    string(STRIP "${pid}" pid)
    if(pid)
      execute_process(
        COMMAND sh -c "kill -0 ${pid} 2>/dev/null && kill -9 ${pid}")
    endif()
  endif()
  set(text "")
  math(EXPR last "${ARGC} - 1")
  foreach(i RANGE ${last})
    string(APPEND text "${ARGV${i}}")
  endforeach()
  message(FATAL_ERROR "${text}")
endfunction()

function(run_cli log_name want_rc)
  execute_process(
    COMMAND "${SALIGN_CLI}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  file(APPEND "${WORK_DIR}/serve_${log_name}.log"
       "$ salign ${ARGN}\nexit: ${rc}\n${out}${err}\n")
  if(NOT rc EQUAL ${want_rc})
    fail(
      "serve_smoke[${log_name}]: salign ${ARGN}\n"
      "expected exit ${want_rc}, got ${rc}:\n${out}\n${err}")
  endif()
  set(cli_out "${out}" PARENT_SCOPE)
endfunction()

# Polls `file` (up to timeout_s) until it contains `needle`.
function(wait_for_content file needle timeout_s what)
  math(EXPR tries "${timeout_s} * 5")
  foreach(i RANGE ${tries})
    if(EXISTS "${file}")
      file(READ "${file}" content)
      string(FIND "${content}" "${needle}" pos)
      if(NOT pos EQUAL -1)
        return()
      endif()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  endforeach()
  fail(
    "serve_smoke: timed out (${timeout_s}s) waiting for ${what} "
    "(${needle} in ${file})")
endfunction()

function(start_daemon log_name)
  execute_process(
    COMMAND sh -c "'${SALIGN_CLI}' serve --socket '${sock}' \
--journal-dir '${journal}' --queue-limit 8 \
> '${WORK_DIR}/serve_${log_name}.log' 2>&1 & echo $! > '${pid_file}'"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    fail("serve_smoke: could not launch the daemon (${rc})")
  endif()
  # The daemon logs this line right after the socket is bound.
  wait_for_content("${WORK_DIR}/serve_${log_name}.log" "serving on" 30
                   "daemon startup")
endfunction()

function(wait_daemon_dead timeout_s)
  file(READ "${pid_file}" pid)
  string(STRIP "${pid}" pid)
  math(EXPR tries "${timeout_s} * 5")
  foreach(i RANGE ${tries})
    execute_process(COMMAND sh -c "kill -0 ${pid} 2>/dev/null"
                    RESULT_VARIABLE alive)
    if(NOT alive EQUAL 0)
      return()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  endforeach()
  fail("serve_smoke: daemon pid ${pid} did not exit")
endfunction()

# ---------------------------------------------------------------------------
# 1. inputs and clean references
# ---------------------------------------------------------------------------

# Sized so the first job runs for seconds (release build) — long enough
# that the kill below lands mid-run, never so marginal that a fast machine
# finishes first. Sanitizer presets only widen the window. The kill lands
# 0.3-0.5 s after the job is journaled `running`: a 500x600 family had
# dropped to ~0.25 s at --procs 8 on a 4-core x86-64 host and finished
# first; 800x1600 takes ~2 s there.
run_cli(setup 0 generate --kind rose --n 800 --length 1600 --relatedness 300
        --seed 7 --out "${WORK_DIR}/big.fasta")
run_cli(setup 0 generate --kind rose --n 30 --length 80 --seed 8
        --out "${WORK_DIR}/fam2.fasta")
run_cli(setup 0 generate --kind rose --n 24 --length 90 --seed 9
        --out "${WORK_DIR}/fam3.fasta")

run_cli(setup 0 align --in "${WORK_DIR}/big.fasta"
        --out "${WORK_DIR}/ref1.afa" --procs 8)
run_cli(setup 0 align --in "${WORK_DIR}/fam2.fasta"
        --out "${WORK_DIR}/ref2.afa" --procs 4)
run_cli(setup 0 align --in "${WORK_DIR}/fam3.fasta"
        --out "${WORK_DIR}/ref3.afa" --procs 4)

# ---------------------------------------------------------------------------
# 2. serve + submit three jobs
# ---------------------------------------------------------------------------

start_daemon(run1)

run_cli(submit 0 submit --socket "${sock}" --in "${WORK_DIR}/big.fasta"
        --out "${WORK_DIR}/job1.afa" --procs 8)
run_cli(submit 0 submit --socket "${sock}" --in "${WORK_DIR}/fam2.fasta"
        --out "${WORK_DIR}/job2.afa" --procs 4)
run_cli(submit 0 submit --socket "${sock}" --in "${WORK_DIR}/fam3.fasta"
        --out "${WORK_DIR}/job3.afa" --procs 4)
run_cli(submit 0 jobs --socket "${sock}")

# ---------------------------------------------------------------------------
# 3. kill -9 mid-job
# ---------------------------------------------------------------------------

wait_for_content("${journal}/jobs/j000001.json" "\"state\":\"running\"" 60
                 "job 1 to start")
# Give it a beat to get into the pipeline, then kill without mercy.
execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.3)
execute_process(COMMAND sh -c "kill -9 $(cat '${pid_file}')"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  fail("serve_smoke: kill -9 failed (${rc})")
endif()
wait_daemon_dead(30)

# The journal must be torn exactly mid-`running` — the durable ack means
# the interrupted job and both queued jobs survived the kill.
file(READ "${journal}/jobs/j000001.json" job1)
string(FIND "${job1}" "\"state\":\"running\"" pos)
if(pos EQUAL -1)
  fail(
    "serve_smoke: expected job 1 journaled 'running' at the kill, got:\n"
    "${job1}")
endif()
if(NOT EXISTS "${sock}")
  fail("serve_smoke: kill -9 should leave the stale socket")
endif()

# Whatever checkpoint prefix the kill left must verify clean.
if(EXISTS "${journal}/ckpt/j000001/manifest.tsv")
  run_cli(verify 0 stages --dir "${journal}/ckpt/j000001" --verify)
endif()

# ---------------------------------------------------------------------------
# 4. restart: replay resumes all three jobs
# ---------------------------------------------------------------------------

start_daemon(run2)
wait_for_content("${WORK_DIR}/serve_run2.log" "re-queued for resume" 10
                 "journal replay of the interrupted job")

wait_for_content("${journal}/jobs/j000001.json" "\"state\":\"done\"" 240
                 "job 1 to resume and finish")
wait_for_content("${journal}/jobs/j000002.json" "\"state\":\"done\"" 120
                 "job 2 to finish")
wait_for_content("${journal}/jobs/j000003.json" "\"state\":\"done\"" 120
                 "job 3 to finish")
run_cli(jobs_after 0 jobs --socket "${sock}")

# ---------------------------------------------------------------------------
# 5. byte-compare against the fresh references
# ---------------------------------------------------------------------------

foreach(i RANGE 1 3)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/ref${i}.afa" "${WORK_DIR}/job${i}.afa"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    fail(
      "serve_smoke: job ${i} output differs from a fresh run — the resume "
      "was not bit-identical")
  endif()
endforeach()

# ---------------------------------------------------------------------------
# 6. graceful stop
# ---------------------------------------------------------------------------

run_cli(stop 0 serve --socket "${sock}" --stop)
wait_daemon_dead(30)
if(EXISTS "${sock}")
  fail("serve_smoke: clean shutdown must unlink the socket")
endif()

message(STATUS "serve_smoke: kill -9 drill passed — journal replayed, "
               "3/3 jobs resumed bit-identical, clean stop")
