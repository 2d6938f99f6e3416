#!/usr/bin/env bash
# Tier-1 verify, preset-driven. The same steps run locally and in GitHub
# Actions (.github/workflows/ci.yml) — the workflow jobs invoke this script
# with explicit steps so the two can never drift.
#
#   scripts/ci.sh [step...]
#   steps: ci | pregate | asan | tsan | durability | bench-smoke | perf
#          | storm | perf-refresh
#
#   ci           configure + build + ctest with the "ci" CMake preset
#                (RelWithDebInfo, -Wall -Wextra). The fast `unit`-labeled
#                tier runs first (ctest -L unit) so a broken build fails in
#                seconds, then the heavier service/stats tiers, then the
#                orchestrator suite again until it fails, at most 3 times.
#                EMUTILE_BUILD_TYPE, when set, overrides the preset's
#                CMAKE_BUILD_TYPE — how the Actions matrix runs
#                {Release, Debug} through one preset.
#   pregate      build the "asan" preset and run only its `unit`-labeled
#                tests — the fail-fast gate the sanitizer job runs before
#                committing to the slow instrumented service/stats suites.
#   asan         the "asan" preset: AddressSanitizer over the concurrency-
#                heavy service/campaign/orchestrator/adaptive tests.
#   tsan         the "tsan" preset: ThreadSanitizer over the lock-free
#                metrics registry (test_obs hammer) and the multi-threaded
#                service suite — the lane that keeps the relaxed-atomic
#                recording paths honestly race-free. The durability tier
#                rides along, so drain/reattach cross the same locks under
#                TSan that the service suite hammers, and so does the core
#                suite, whose clones route concurrently over one shared RR
#                graph.
#   durability   the crash-kill lane: run only the `durability`-labeled tests
#                (journal round-trips, SIGKILL-at-fault-point recovery, the
#                drain/handoff admission checks) under the instrumented
#                "asan" build — fork-heavy and SIGKILL-happy on purpose, so
#                it gets its own step instead of riding inside asan's ctest
#                preset. The randomized kill test prints its seed; rerun a
#                failure with EMUTILE_KILL_SEED=<seed> scripts/ci.sh
#                durability to replay the exact kill schedule.
#   bench-smoke  build bench/campaign_sweep under the "ci" preset and run a
#                tiny sweep (2 threads x 1 replica, determinism-checked);
#                the per-scenario CSV lands in build/bench-smoke/ for the
#                workflow to upload as an artifact. Ends with daemon_smoke
#                (one daemon on its Unix socket, one spec submitted cold
#                then warm with emutile_submit --wait and once through
#                --spool: identical reports, cache hits) and fleet_smoke: a real 3-daemon fleet on TCP
#                loopback (ephemeral ports read back from each daemon's
#                serviced.tcp file) driven through emutile_orchestrate,
#                asserting the merged report and the stitched fleet trace,
#                then once more with a 10-minute --poll-ms, which must still
#                finish (shards are collected when their WAIT answers) with
#                a byte-identical report.
#   perf         the perf-regression lane: run session_profile,
#                campaign_sweep, and fleet_scale on the pinned small grids
#                below, then compare their metrics JSON against the
#                checked-in baselines in bench/baselines/ with a 25%
#                tolerance band (tools/perf_compare; guarded keys are
#                machine-portable ratios and deterministic work units —
#                absolute seconds never gate). fleet_scale additionally
#                fails outright if a merged fleet report is not
#                byte-identical to the direct run. Artifacts land in
#                build/perf/ and are uploaded by CI on success and failure
#                alike.
#   storm        the submit-storm lane: drive the service front end with the
#                pinned epoll load generator (bench/submit_storm), then the
#                same SUBMITs as direct submit_text calls, and compare
#                against bench/baselines/submit_storm.json. The guarded key
#                is storm_endpoint_overhead_ratio — direct calls/s over wire
#                SUBMIT replies/s, measured in the same run on the same
#                machine, which regresses (grows) when the endpoint gets
#                slower relative to the service it fronts; absolute req/s
#                and latency quantiles ride along as informational keys.
#                Artifacts land in build/storm/ and are uploaded by CI on
#                success and failure alike.
#   perf-refresh rerun the same pinned grids (perf + storm) and write their
#                metrics JSON straight into bench/baselines/ — how the
#                baselines are regenerated locally after an intentional perf
#                change.
#
# No arguments reproduces the historical default: ci then asan
# (EMUTILE_SKIP_ASAN=1 skips the sanitizer pass).
set -euo pipefail
cd "$(dirname "$0")/.."

# The pinned grid of the perf lane. Small on purpose (CI minutes), and the
# baselines were recorded with exactly these arguments — change them and the
# baselines together (perf-refresh).
PERF_PROFILE_ARGS=(--designs styr,sand --sessions 2 --tiles 6 --patterns 128
                   --threads 2)
PERF_SWEEP_ARGS=(2 1)
PERF_TOLERANCE=0.25

# The pinned shape of the storm lane. 512 clients x 32 one-shot requests per
# client over a single epoll generator thread (the generator must stay
# lighter than the servers under test), with a small --max-pending so the
# shed path is exercised; the baseline was recorded with exactly these
# arguments — change them and the baseline together (perf-refresh).
STORM_ARGS=(--clients 512 --requests-per-client 32 --max-pending 8)

# The pinned shape of the fleet-scaling lane: the bench's own defaults
# spelled out (16 sessions through in-process fleets of 1/2/4/8 instances).
# The guarded key is fleet_scale_ratio — largest-fleet wall time normalized
# by the best hardware-allowed speedup, relative to the one-instance fleet —
# so the gate tracks coordination overhead, not machine speed. The baseline
# was recorded with exactly these arguments (perf-refresh).
FLEET_SCALE_ARGS=(--sizes 1,2,4,8 --replicas 8 --patterns 96 --tiles 6)

run_preset() {
  local preset=$1
  cmake --preset "$preset" \
    ${EMUTILE_BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$EMUTILE_BUILD_TYPE"}
  cmake --build --preset "$preset"
  if [[ "$preset" == ci ]]; then
    # Fail-fast pre-gate: the `unit`-labeled tier takes seconds; only when
    # it is green do the heavier service/stats tiers run.
    ctest --preset "$preset" -L unit
    ctest --preset "$preset" -LE unit
    # The coordinator suite's snapshot checks race work stealing; three
    # back-to-back passes make a timing-dependent assertion fail here
    # rather than at random on a multi-core machine.
    ctest --preset "$preset" -R test_orchestrator --repeat until-fail:3
  else
    ctest --preset "$preset"
  fi
}

pregate() {
  # The sanitizer job's fail-fast gate: build the instrumented tree once and
  # run just the fast unit-labeled tests before the asan step reuses the
  # same build for the slow concurrency suites. --test-dir bypasses the asan
  # test preset (its name filter excludes the unit tier), so mirror the
  # preset's environment explicitly.
  cmake --preset asan
  cmake --build --preset asan
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan -L unit --output-on-failure -j 4
}

durability() {
  # The crash-kill suite under ASan: build the instrumented tree (shared
  # with the asan/pregate steps) and run just the durability-labeled tier.
  # --test-dir bypasses the asan test preset's name filter, so mirror its
  # environment explicitly; EMUTILE_KILL_SEED passes through untouched for
  # replaying a logged randomized-kill schedule.
  cmake --preset asan
  cmake --build --preset asan
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan -L durability --output-on-failure -j 2
}

bench_smoke() {
  cmake --preset ci
  cmake --build --preset ci --target bench_campaign_sweep \
    bench_submit_storm emutile_serviced emutile_submit emutile_orchestrate \
    emutile_top
  mkdir -p build/bench-smoke
  ./build/campaign_sweep 2 1 build/bench-smoke/campaign_sweep.csv \
    | tee build/bench-smoke/campaign_sweep.log
  # A tiny storm: not a perf gate (that's the storm step), just proof that
  # the epoll endpoint survives a concurrent one-shot burst in the same
  # environment the fleet smoke runs in.
  ./build/submit_storm --clients 64 --requests-per-client 4 \
    --json build/bench-smoke/submit_storm.json \
    | tee build/bench-smoke/submit_storm.log
  daemon_smoke
  fleet_smoke
}

# The small campaign both smokes submit: 9sym, 2 error kinds x 3 replicas.
write_smoke_spec() {
  cat > "$1" <<'EOF'
emutile-campaign v1
design 9sym
error_kind wrong-polarity
error_kind wrong-connection
tiling 6 0.3 1 12 4
sessions_per_scenario 3
master_seed 424242
num_patterns 96
end
EOF
}

# One daemon on its Unix socket, one spec submitted twice through
# emutile_submit --wait: cold, then warm from the result cache. Each WAIT
# parks in the reactor until its campaign turns terminal, so this drives the
# real binary's WAIT wake-up path. Then the same spec once more through
# emutile_submit --spool, the daemon's file-drop intake. A functional check,
# not a timing gate: every submission must finish, the reports must be
# byte-identical, and the daemon's cache must report hits. `timeout` turns a WAIT that is never
# answered into a failure instead of a hung job. The daemon runs under a
# 256-descriptor limit and then serves 300 more warm resubmits: a daemon
# that kept finished campaigns' files open would run out of descriptors
# long before the last one.
daemon_smoke() {
  local dir=build/bench-smoke/daemon
  rm -rf "$dir"
  mkdir -p "$dir"
  ( ulimit -n 256 && exec ./build/emutile_serviced --root "$dir" --threads 2 \
      --snapshot-every 0 --slow-request-ms 30000 ) > "$dir/daemon.log" 2>&1 &
  local pid=$!
  stop_daemon() {
    touch "$dir/stop" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  }
  trap stop_daemon RETURN

  local tries=0
  until ./build/emutile_submit --root "$dir" --list > /dev/null 2>&1; do
    (( ++tries > 100 )) && { echo "daemon_smoke: daemon never came up" >&2
                             cat "$dir/daemon.log" >&2; return 1; }
    sleep 0.1
  done

  write_smoke_spec "$dir/smoke.spec"
  local run
  local ids=()
  for run in cold warm; do
    timeout 300 ./build/emutile_submit --root "$dir" --wait "$dir/smoke.spec" \
      | tee "$dir/$run.log"
    grep -q ': OK finished$' "$dir/$run.log"
    ids+=("$(sed -n 's/^.* -> \([^ ]*\).*$/\1/p' "$dir/$run.log")")
  done
  cmp "$dir/out/${ids[0]}/report.json" "$dir/out/${ids[1]}/report.json"

  # The daemon's spool intake through the real binaries: the same spec
  # dropped into <root>/spool runs under an id that starts with the spooled
  # file's stem, and must report what the socket run reported.
  local spooled
  spooled=$(./build/emutile_submit --root "$dir" --spool "$dir/smoke.spec" \
              | tee "$dir/spool.log" \
              | sed -n 's/^.* -> spooled as \([^ ]*\)\.spec.*$/\1/p')
  [[ -n $spooled ]] || { echo "daemon_smoke: spool submission failed" >&2
                         return 1; }
  if ! timeout 300 bash -c "until compgen -G '$dir/out/$spooled-*/report.json' \
                              > /dev/null; do sleep 0.1; done"; then
    echo "daemon_smoke: spooled campaign $spooled never reported" >&2
    cat "$dir/daemon.log" >&2
    return 1
  fi
  cmp "$dir/out/${ids[0]}/report.json" "$dir/out/$spooled"-*/report.json

  ./build/emutile_submit --root "$dir" --cache | tee "$dir/cache.log"
  local hits
  hits=$(sed -n 's/^OK .* hits=\([0-9]*\) .*$/\1/p' "$dir/cache.log")
  [[ ${hits:-0} -gt 0 ]] || { echo "daemon_smoke: no cache hits" >&2
                              return 1; }

  local n
  for (( n = 1; n <= 300; ++n )); do
    if ! timeout 60 ./build/emutile_submit --root "$dir" --wait \
           "$dir/smoke.spec" > "$dir/resubmit.log" 2>&1 ||
       ! grep -q ': OK finished$' "$dir/resubmit.log"; then
      echo "daemon_smoke: warm resubmit $n did not finish" >&2
      cat "$dir/resubmit.log" "$dir/daemon.log" >&2
      return 1
    fi
  done

  stop_daemon
  trap - RETURN
  echo "daemon_smoke: cold, warm and spooled reports identical," \
       "cache hits=$hits, 300 resubmits finished under a 256-fd limit"
}

# A real 3-instance fleet end to end, over TCP loopback: three daemons on
# ephemeral ports, one orchestrated campaign, then assert the observability
# artifacts — merged fleet metrics and a stitched fleet trace with spans
# from every instance — exist and are well-formed. This is both the
# distributed-tracing acceptance check and the cross-host transport smoke:
# the fleet config is assembled from each daemon's published serviced.tcp
# address file, exactly the way a multi-machine deployment would do it.
fleet_smoke() {
  local fleet_dir=build/bench-smoke/fleet
  rm -rf "$fleet_dir"
  mkdir -p "$fleet_dir"

  local pids=()
  stop_fleet() {
    local i
    for i in 1 2 3; do touch "$fleet_dir/i$i/stop" 2>/dev/null || true; done
    local pid
    for pid in "${pids[@]}"; do wait "$pid" 2>/dev/null || true; done
  }
  trap stop_fleet RETURN

  local i
  for i in 1 2 3; do
    mkdir -p "$fleet_dir/i$i"
    ./build/emutile_serviced --root "$fleet_dir/i$i" --threads 2 \
      --tcp 127.0.0.1:0 --snapshot-every 0 --slow-request-ms 30000 \
      > "$fleet_dir/i$i/daemon.log" 2>&1 &
    pids+=($!)
  done

  # Each daemon resolves its ephemeral port and publishes the bound address
  # in <root>/serviced.tcp; wait for all three before writing the fleet
  # config from those published addresses.
  local tries=0
  until [[ -s $fleet_dir/i1/serviced.tcp && -s $fleet_dir/i2/serviced.tcp \
           && -s $fleet_dir/i3/serviced.tcp ]]; do
    (( ++tries > 100 )) && { echo "fleet_smoke: daemons never came up" >&2
                             cat "$fleet_dir"/i*/daemon.log >&2; return 1; }
    sleep 0.1
  done

  {
    echo "emutile-fleet v1"
    for i in 1 2 3; do
      # serviced.tcp holds the URI form (tcp:host:port); the fleet config's
      # tcp kind wants the bare host:port.
      echo "instance i$i tcp $(sed 's/^tcp://' "$fleet_dir/i$i/serviced.tcp")"
    done
    echo "end"
  } > "$fleet_dir/fleet.cfg"

  write_smoke_spec "$fleet_dir/smoke.spec"

  ./build/emutile_orchestrate --fleet "$fleet_dir/fleet.cfg" \
    --spec "$fleet_dir/smoke.spec" --out "$fleet_dir" --shards 3 \
    | tee "$fleet_dir/orchestrate.log"

  # The same campaign again with a 10-minute STATUS cadence: every shard must
  # still be collected when its parked WAIT answers, so the run finishes well
  # inside the timeout, merges the same bytes, and the filtered trace stitch
  # still reaches all three instances.
  mkdir -p "$fleet_dir/wait"
  timeout 120 ./build/emutile_orchestrate --fleet "$fleet_dir/fleet.cfg" \
    --spec "$fleet_dir/smoke.spec" --out "$fleet_dir/wait" --shards 3 \
    --poll-ms 600000 | tee "$fleet_dir/wait/orchestrate.log"
  cmp "$fleet_dir/report.json" "$fleet_dir/wait/report.json"
  grep -q 'from 3 instance(s)' "$fleet_dir/wait/orchestrate.log"

  # One console snapshot while the fleet is still up — the live path the
  # operator tooling exercises (LIST + METRICS + TRACESPANS per instance).
  ./build/emutile_top --fleet "$fleet_dir/fleet.cfg" --iterations 1 \
    --no-clear | tee "$fleet_dir/top.log"
  grep -q "instance(s)" "$fleet_dir/top.log"

  stop_fleet
  trap - RETURN

  # The observability artifacts the workflow uploads must be non-empty and
  # carry the stitched trace: spans from all three instances under the run's
  # single trace id (the orchestrate log prints that line).
  test -s "$fleet_dir/report.json"
  test -s "$fleet_dir/fleet_metrics.txt"
  test -s "$fleet_dir/fleet_metrics.json"
  test -s "$fleet_dir/fleet_trace.json"
  grep -q '"traceEvents"' "$fleet_dir/fleet_trace.json"
  grep -q 'campaign.run' "$fleet_dir/fleet_trace.json"
  grep -q 'orchestrate.dispatch' "$fleet_dir/fleet_trace.json"
  grep -q 'from 3 instance(s)' "$fleet_dir/orchestrate.log"
  echo "fleet_smoke: stitched fleet trace OK"
}

build_perf_binaries() {
  cmake --preset ci
  cmake --build --preset ci \
    --target bench_session_profile bench_campaign_sweep bench_fleet_scale \
    perf_compare
}

run_perf_grid() {
  # $1: directory receiving the metrics JSON (build/perf or bench/baselines).
  local out_dir=$1
  mkdir -p "$out_dir" build/perf
  ./build/session_profile "${PERF_PROFILE_ARGS[@]}" \
    --json "$out_dir/session_profile.json" \
    | tee build/perf/session_profile.log
  ./build/campaign_sweep "${PERF_SWEEP_ARGS[@]}" \
    build/perf/campaign_sweep.csv "$out_dir/campaign_sweep.json" \
    | tee build/perf/campaign_sweep.log
  # fleet_scale exits nonzero if any merged fleet report diverges from the
  # direct run, so the perf lane doubles as a determinism gate.
  ./build/fleet_scale "${FLEET_SCALE_ARGS[@]}" \
    --root build/perf/fleet-scale \
    --json "$out_dir/fleet_scale.json" \
    | tee build/perf/fleet_scale.log
}

perf() {
  build_perf_binaries
  run_perf_grid build/perf
  ./build/perf_compare bench/baselines/session_profile.json \
    build/perf/session_profile.json "$PERF_TOLERANCE"
  ./build/perf_compare bench/baselines/campaign_sweep.json \
    build/perf/campaign_sweep.json "$PERF_TOLERANCE"
  ./build/perf_compare bench/baselines/fleet_scale.json \
    build/perf/fleet_scale.json "$PERF_TOLERANCE"
}

build_storm_binaries() {
  cmake --preset ci
  cmake --build --preset ci --target bench_submit_storm perf_compare
}

run_storm() {
  # $1: directory receiving the metrics JSON (build/storm or bench/baselines).
  local out_dir=$1
  mkdir -p "$out_dir" build/storm
  ./build/submit_storm "${STORM_ARGS[@]}" \
    --json "$out_dir/submit_storm.json" \
    | tee build/storm/submit_storm.log
}

storm() {
  build_storm_binaries
  run_storm build/storm
  ./build/perf_compare bench/baselines/submit_storm.json \
    build/storm/submit_storm.json "$PERF_TOLERANCE"
}

perf_refresh() {
  build_perf_binaries
  build_storm_binaries
  run_perf_grid bench/baselines
  run_storm bench/baselines
  echo "perf baselines regenerated in bench/baselines/ — review and commit"
}

steps=("$@")
if [[ ${#steps[@]} -eq 0 ]]; then
  steps=(ci)
  [[ "${EMUTILE_SKIP_ASAN:-0}" != "1" ]] && steps+=(asan)
fi

# Validate the whole step list up front: a typo must stop the run with a
# distinct exit code *before* any step has spent minutes building.
for step in "${steps[@]}"; do
  case "$step" in
    ci|asan|tsan|pregate|durability|bench-smoke|perf|storm|perf-refresh) ;;
    *)
      echo "unknown step '$step'" \
           "(ci | pregate | asan | tsan | durability | bench-smoke | perf |" \
           "storm | perf-refresh)" >&2
      exit 64
      ;;
  esac
done

for step in "${steps[@]}"; do
  step_start=$SECONDS
  case "$step" in
    ci|asan|tsan) run_preset "$step" ;;
    pregate) pregate ;;
    durability) durability ;;
    bench-smoke) bench_smoke ;;
    perf) perf ;;
    storm) storm ;;
    perf-refresh) perf_refresh ;;
  esac
  echo "ci.sh: step '$step' finished in $((SECONDS - step_start))s"
done
