# End-to-end checks of `tfi campaign` and `tfi figures` through their
# command line: each check runs the CLI with a fresh results cache (so the
# trials run live) and validates what it printed or exported.
#
#   cmake -DTFI=path/to/tfi -DWORK=scratch/dir -DCHECK=<check> \
#         -P tfi_campaign_cli.cmake
#
# <check> is one of:
#   jobs       a 4-worker campaign completes all 40 of its trials
#   fastpath   fast path at 4 workers and slow path at 1 worker print the
#              same summary and export the same propagation-trace rows and
#              heatmap
#   obs        the metrics JSON, propagation-trace JSONL and chrome trace
#              exports are valid JSON and hold what their readers need
#   telemetry  the events JSONL holds a header, then exactly the events tfi
#              reports as written, one trial_done per trial, campaign_finish
#              last; the metrics counted every trial; the heatmap is JSON
#   figures    `tfi figures table1` prints Table 1 and its total row, an
#              unknown figure name exits 2 listing the valid names, and a
#              small fig5 runs its campaigns and prints its category table
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var TFI WORK CHECK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "-D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs `tfi campaign gzip <args...>` in WORK with a results cache of its own
# and fails unless it exits 0. Sets <name>_OUT and <name>_ERR to what it
# printed.
function(tfi_campaign name)
  set(ENV{TFI_CACHE_DIR} "${WORK}/cache_${name}")
  execute_process(COMMAND "${TFI}" campaign gzip ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR "tfi campaign gzip ${args}: exit ${rc}\n${out}${err}")
  endif()
  set(${name}_OUT "${out}" PARENT_SCOPE)
  set(${name}_ERR "${err}" PARENT_SCOPE)
endfunction()

# Fails unless `text` contains `needle`.
function(expect_contains what text needle)
  string(FIND "${text}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${what} lacks ${needle}")
  endif()
endfunction()

# Fails unless `json` parses.
function(expect_json what json)
  string(JSON type ERROR_VARIABLE err TYPE "${json}")
  if(NOT err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "${what} is not JSON: ${err}")
  endif()
endfunction()

# Reads the JSONL file `path`, failing on any line that is not JSON. Sets
# <prefix>_COUNT and one variable <prefix>_<i> per line, so that no line is
# split at a ';' as a CMake list would be.
function(read_jsonl path prefix)
  file(READ "${WORK}/${path}" text)
  set(n 0)
  while(NOT text STREQUAL "")
    string(FIND "${text}" "\n" nl)
    if(nl EQUAL -1)
      set(line "${text}")
      set(text "")
    else()
      string(SUBSTRING "${text}" 0 ${nl} line)
      math(EXPR next "${nl} + 1")
      string(SUBSTRING "${text}" ${next} -1 text)
    endif()
    expect_json("${path} line ${n}" "${line}")
    set(${prefix}_${n} "${line}" PARENT_SCOPE)
    math(EXPR n "${n} + 1")
  endwhile()
  set(${prefix}_COUNT ${n} PARENT_SCOPE)
endfunction()

# Sets `out` to the heatmap export `path` with its wall-clock stamp blanked.
function(read_heatmap path out)
  file(READ "${WORK}/${path}" json)
  expect_json("${path}" "${json}")
  string(JSON json SET "${json}" generated_at "\"\"")
  set(${out} "${json}" PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "jobs")
  tfi_campaign(run --trials 40 --jobs 4)
  expect_contains("tfi campaign --jobs 4 summary" "${run_OUT}" "trials=40 ")

elseif(CHECK STREQUAL "fastpath")
  tfi_campaign(slow --trials 40 --jobs 1 --no-fast-path
               --prop-trace slow.jsonl --heatmap-json slow_heatmap.json)
  tfi_campaign(fast --trials 40 --jobs 4
               --prop-trace fast.jsonl --heatmap-json fast_heatmap.json)
  if(NOT slow_OUT STREQUAL fast_OUT)
    message(FATAL_ERROR "summaries differ:\n${slow_OUT}\nvs\n${fast_OUT}")
  endif()
  read_jsonl(slow.jsonl slow)
  read_jsonl(fast.jsonl fast)
  if(NOT slow_COUNT EQUAL 41 OR NOT fast_COUNT EQUAL 41)
    message(FATAL_ERROR "want a header and 40 rows, got ${slow_COUNT} and "
                        "${fast_COUNT} lines")
  endif()
  # Line 0 is the header, stamped with the wall clock.
  foreach(i RANGE 1 40)
    if(NOT slow_${i} STREQUAL fast_${i})
      message(FATAL_ERROR "propagation-trace row ${i} differs:\n"
                          "${slow_${i}}\nvs\n${fast_${i}}")
    endif()
  endforeach()
  read_heatmap(slow_heatmap.json slow_heatmap)
  read_heatmap(fast_heatmap.json fast_heatmap)
  if(NOT slow_heatmap STREQUAL fast_heatmap)
    message(FATAL_ERROR "heatmap exports differ")
  endif()

elseif(CHECK STREQUAL "obs")
  tfi_campaign(run --trials 20 --metrics-json metrics.json
               --prop-trace prop.jsonl --chrome-trace trace.json)
  file(READ "${WORK}/metrics.json" metrics)
  expect_json(metrics.json "${metrics}")
  expect_contains(metrics.json "${metrics}" "\"pipe.rob.occupancy\"")
  expect_contains(metrics.json "${metrics}" "\"campaign.trials\"")

  read_jsonl(prop.jsonl prop)
  if(NOT prop_COUNT EQUAL 21)
    message(FATAL_ERROR "prop.jsonl: want a header and 20 rows, got "
                        "${prop_COUNT} lines")
  endif()
  foreach(key type schema_version generated_at)
    string(JSON value ERROR_VARIABLE err GET "${prop_0}" ${key})
    if(NOT err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "prop.jsonl header lacks ${key}: ${prop_0}")
    endif()
  endforeach()
  foreach(i RANGE 1 20)
    foreach(key outcome category arch_divergence_cycle trial)
      string(JSON value ERROR_VARIABLE err GET "${prop_${i}}" ${key})
      if(NOT err STREQUAL "NOTFOUND")
        message(FATAL_ERROR "prop.jsonl row ${i} lacks ${key}: ${prop_${i}}")
      endif()
    endforeach()
  endforeach()

  file(READ "${WORK}/trace.json" trace)
  expect_json(trace.json "${trace}")
  # Golden-run occupancy counters and per-trial spans.
  expect_contains(trace.json "${trace}" "\"traceEvents\"")
  expect_contains(trace.json "${trace}" "\"ph\":\"C\"")
  expect_contains(trace.json "${trace}" "\"ph\":\"X\"")

elseif(CHECK STREQUAL "telemetry")
  tfi_campaign(run --trials 80 --jobs 2 --events-jsonl events.jsonl
               --metrics-json metrics.json --heatmap-json heatmap.json)
  string(REGEX MATCH "wrote ([0-9]+) events" wrote "${run_ERR}")
  if(NOT wrote)
    message(FATAL_ERROR "tfi did not report the events it wrote:\n${run_ERR}")
  endif()
  set(written ${CMAKE_MATCH_1})
  read_jsonl(events.jsonl ev)
  math(EXPR want "${written} + 1")
  if(NOT ev_COUNT EQUAL want)
    message(FATAL_ERROR "events.jsonl has ${ev_COUNT} lines, want the "
                        "header and the ${written} written events")
  endif()
  expect_contains("events.jsonl line 0" "${ev_0}" "\"type\":\"header\"")
  set(trial_done 0)
  math(EXPR last "${ev_COUNT} - 1")
  foreach(i RANGE 1 ${last})
    string(FIND "${ev_${i}}" "\"ev\":\"trial_done\"" at)
    if(NOT at EQUAL -1)
      math(EXPR trial_done "${trial_done} + 1")
    endif()
  endforeach()
  if(NOT trial_done EQUAL 80)
    message(FATAL_ERROR "events.jsonl has ${trial_done} trial_done events, "
                        "want one per trial")
  endif()
  expect_contains("events.jsonl last line" "${ev_${last}}"
                  "\"ev\":\"campaign_finish\"")

  file(READ "${WORK}/metrics.json" metrics)
  string(JSON counted GET "${metrics}" counters campaign.trials)
  if(NOT counted EQUAL 80)
    message(FATAL_ERROR "metrics counted ${counted} trials, want 80")
  endif()
  read_heatmap(heatmap.json heatmap)

elseif(CHECK STREQUAL "figures")
  set(ENV{TFI_CACHE_DIR} "${WORK}/cache")
  execute_process(COMMAND "${TFI}" figures table1 RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tfi figures table1: exit ${rc}\n${out}${err}")
  endif()
  expect_contains("tfi figures table1" "${out}"
                  "Table 1 — state category inventory")
  expect_contains("tfi figures table1" "${out}" "total (injected)")

  execute_process(COMMAND "${TFI}" figures nosuch RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "tfi figures nosuch: exit ${rc}, want 2\n${err}")
  endif()
  expect_contains("tfi figures nosuch" "${err}"
                  "table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11")

  execute_process(COMMAND "${TFI}" figures fig5 --trials 4 --points 2
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tfi figures fig5: exit ${rc}\n${out}${err}")
  endif()
  expect_contains("tfi figures fig5" "${out}"
                  "Figure 5 — outcomes by state category (latches only)")
  expect_contains("tfi figures fig5" "${out}" "uArch match%")

else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
