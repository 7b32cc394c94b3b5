# End-to-end smoke sweep for the rdcn_sim CLI: a tiny scenario (two
# algorithm specs, two cache sizes) must run through the registries and
# write a well-formed CSV — header naming every column, one row per
# checkpoint.  Registered as a tier1 ctest so the CLI can never silently
# rot.
#
# Usage: cmake -DSIM=<rdcn_sim binary> -DCSV=<output csv> -P check_sim_smoke.cmake
execute_process(
  COMMAND ${SIM}
    --topology=torus:rows=3,cols=3 --racks=9
    --workload=flow_pool:pairs=30,skew=1.1 --requests=3000
    --algorithms=r_bma:engine=lru,bma --b=2,4
    --trials=2 --checkpoints=4 --seed=7
    --csv=${CSV}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdcn_sim exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(NOT EXISTS ${CSV})
  message(FATAL_ERROR "rdcn_sim did not write ${CSV}")
endif()
file(STRINGS ${CSV} lines)
list(LENGTH lines line_count)
# 1 header + one row per checkpoint.
if(NOT line_count EQUAL 5)
  message(FATAL_ERROR "expected 5 CSV lines (header + 4 checkpoints), got ${line_count}:\n${lines}")
endif()

list(GET lines 0 header)
set(expected_header "requests,r_bma:engine=lru(b=2),r_bma:engine=lru(b=4),bma(b=2),bma(b=4)")
if(NOT header STREQUAL expected_header)
  message(FATAL_ERROR "CSV header mismatch:\n  got:  ${header}\n  want: ${expected_header}")
endif()

# Every data row carries one value per column.
foreach(i RANGE 1 4)
  list(GET lines ${i} row)
  string(REGEX MATCHALL "," commas "${row}")
  list(LENGTH commas comma_count)
  if(NOT comma_count EQUAL 4)
    message(FATAL_ERROR "CSV row ${i} malformed (want 5 fields): ${row}")
  endif()
endforeach()

message(STATUS "rdcn_sim smoke sweep OK: ${line_count} lines, header + 4 checkpoint rows")

# Streamed twin of the sweep above: same scenario replayed through
# --stream (the workload regenerated per task at constant memory).  The
# ledger columns must be bit-identical to the materialized run — both
# replay the same requests — so beyond being well-formed, the CSV must
# match the materialized CSV line for line, and the printed workload
# statistics must match too.
execute_process(
  COMMAND ${SIM}
    --topology=torus:rows=3,cols=3 --racks=9
    --workload=flow_pool:pairs=30,skew=1.1 --requests=3000
    --algorithms=r_bma:engine=lru,bma --b=2,4
    --trials=2 --checkpoints=4 --seed=7
    --stream
    --csv=${CSV}.streamed
  RESULT_VARIABLE stream_rc
  OUTPUT_VARIABLE stream_out
  ERROR_VARIABLE stream_err)
if(NOT stream_rc EQUAL 0)
  message(FATAL_ERROR "rdcn_sim --stream exited with ${stream_rc}\nstdout:\n${stream_out}\nstderr:\n${stream_err}")
endif()
# Both modes fold the trace statistics over the same requests, so the
# workload line (name, size, gini, locality) must match exactly.
set(workload_re "workload=[^\n]* gini=[^\n]* locality64=[^\n]*")
string(REGEX MATCH "${workload_re}" workload_line "${out}")
string(REGEX MATCH "${workload_re}" stream_workload_line "${stream_out}")
if(workload_line STREQUAL "")
  message(FATAL_ERROR "rdcn_sim printed no workload statistics line:\n${out}")
endif()
if(NOT stream_workload_line STREQUAL workload_line)
  message(FATAL_ERROR "rdcn_sim --stream workload line differs from the materialized run:\n  materialized: ${workload_line}\n  streamed:     ${stream_workload_line}")
endif()

file(STRINGS ${CSV}.streamed stream_lines)
if(NOT stream_lines STREQUAL lines)
  message(FATAL_ERROR "streamed CSV differs from materialized CSV:\n  materialized: ${lines}\n  streamed:     ${stream_lines}")
endif()

message(STATUS "rdcn_sim --stream smoke sweep OK: CSV and workload statistics identical to the materialized run")

# A run shape the simulator cannot replay (fewer requests than checkpoints)
# must come back as a spec error — exit 2 with the reason on stderr — not
# as an assertion abort.
execute_process(
  COMMAND ${SIM} --requests=3 --checkpoints=8
  RESULT_VARIABLE shape_rc
  OUTPUT_VARIABLE shape_out
  ERROR_VARIABLE shape_err)
if(NOT shape_rc EQUAL 2)
  message(FATAL_ERROR "rdcn_sim --requests=3 --checkpoints=8 exited with ${shape_rc}, want 2\nstdout:\n${shape_out}\nstderr:\n${shape_err}")
endif()
if(NOT shape_err MATCHES "requests \\(3\\) must be >= checkpoints \\(8\\)")
  message(FATAL_ERROR "rdcn_sim did not report the bad run shape:\n${shape_err}")
endif()

message(STATUS "rdcn_sim bad run shape OK: exit 2 with a spec error")
