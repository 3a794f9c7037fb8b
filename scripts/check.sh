#!/usr/bin/env bash
# Full pre-merge check: build and run the test suite in the normal
# configuration AND under ASan+UBSan (RNL_SANITIZE=address). The zero-copy
# data plane hands out views into reusable buffers, so lifetime mistakes tend
# to pass plain tests and only show up under the sanitizers.
#
# Usage: scripts/check.sh [--metrics] [--faults] [--lint] [--fuzz] [--tsan] [--bench] [--trace] [--model] [--soak] [--all] [jobs]
#   --metrics  additionally run the observability smoke binary
#              (examples/metrics_smoke) from the sanitizer build: boots a
#              sim testbed, routes traffic, and asserts metrics.dump is
#              well-formed JSON with nonzero frame counters.
#   --faults   additionally re-run the session fault-tolerance suite (link
#              cuts, liveness eviction, rejoin, stale epochs, peer-restart
#              codec desync, stalled consumers, shedding, overload eviction)
#              under ASan+UBSan with verbose output. The teardown/rejoin and
#              overload-eviction paths free and rebind per-site state while
#              transport callbacks may still be on the stack, which is
#              exactly the class of bug only the sanitizers catch.
#   --lint     static-analysis gate. Prefers clang-tidy with the checked-in
#              .clang-tidy profile (bugprone-*, clang-analyzer-*, cert-*,
#              performance-*); when clang-tidy is not installed, falls back
#              to a separate GCC build with RNL_LINT=ON (-Werror plus the
#              curated warning set in CMakeLists.txt). Fails on any new
#              diagnostic either way. Also runs a warn-only clang-format
#              check when clang-format is installed, and always runs the
#              concurrency-discipline lint (scripts/lint_concurrency.py):
#              relaxed-ordering justification comments, shared-type member
#              audit, owner-thread DCHECKs in posted handlers — failing
#              with path:line pointers, plus its seeded-fixture selftest.
#   --fuzz     adversarial-input gate. Builds with RNL_FUZZ=ON and replays
#              the checked-in corpus (tests/corpus/) through every harness
#              with extra chunking variants; when the compiler supports
#              -fsanitize=fuzzer (clang), additionally runs each libFuzzer
#              binary for a bounded 10k-iteration exploration.
#   --tsan     rebuild with RNL_SANITIZE=thread and run the concurrency
#              surface under ThreadSanitizer: the metrics registry contract
#              tests, the logger threshold-retune test, the transport
#              egress accounting paths (watermarks, drain callbacks), the
#              cross-shard SPSC wire rings, and the threaded sharded
#              route-server lifecycle (kill/rejoin + concurrent snapshots).
#   --bench    shard-scaling bench smoke: run bench_routeserver_scaling in
#              --quick mode and assert that every sharded row, from 1 shard
#              (the central funnel) up to one shard per user, drove the
#              forward fast path and delivered (frames_routed,
#              fast_path_frames and delivered_frames > 0), kept every wire
#              shard-local (zero cross-shard frames, zero wire-ring drops),
#              and that 2 shards still divide the work (critical-path CPU
#              speedup >= 1.15x). Catches a bench regression where frames
#              stop traversing decode -> port lookup -> egress and the
#              numbers go vacuous, or where shards re-serialize on a shared
#              lock.
#   --model    deterministic model-check gate: re-run the modelcheck ctests
#              (bounded-exhaustive schedule exploration of the SPSC wire
#              ring, seqlock SpanRing, posted-command teardown, and metrics
#              hot path, ≥10k interleavings each) from the plain build.
#   --all      convenience: run every gate above, so pre-merge runs stop
#              hand-enumerating flags.
#   --soak     fleet-scale chaos soak (E14): run bench_fleet --quick at a
#              fixed seed — 1k sites on a sharded route server with a
#              journal-backed service plane driven through cuts, stalls,
#              overload waves, abandons, and a server kill/restart — then
#              assert the report's invariants (bounded port tables, zero
#              retained ports, journal recovery with torn-tail truncation,
#              deploys kept landing, a reason for every failed deploy) from
#              the emitted report, and print each failed deploy. Also
#              asserts replay determinism: the report must match the
#              committed BENCH_fleet.json on every field except the
#              wall-clock ones (wall_ms, deploys.p50_us, deploys.p99_us),
#              printing each key that differs. A change that alters soak
#              behaviour regenerates BENCH_fleet.json in the same commit.
#   --trace    tracing smoke: run examples/trace_smoke (a 2-site forwarding
#              burst over TCP loopback at 1-in-1 head sampling, which
#              asserts >= 1 complete cross-process trace and the sub-span
#              sum invariant), then re-parse its Perfetto export with a real
#              JSON parser and check the trace-event shape.
set -euo pipefail

cd "$(dirname "$0")/.."

metrics=0
faults=0
lint=0
fuzz=0
tsan=0
bench=0
trace=0
model=0
soak=0
jobs=""
for arg in "$@"; do
  case "$arg" in
    --metrics) metrics=1 ;;
    --faults) faults=1 ;;
    --lint) lint=1 ;;
    --fuzz) fuzz=1 ;;
    --tsan) tsan=1 ;;
    --bench) bench=1 ;;
    --trace) trace=1 ;;
    --model) model=1 ;;
    --soak) soak=1 ;;
    --all) metrics=1; faults=1; lint=1; fuzz=1; tsan=1; bench=1; trace=1; model=1; soak=1 ;;
    *) jobs="$arg" ;;
  esac
done
jobs="${jobs:-$(nproc)}"

build_config() {
  local dir="$1"
  shift
  echo "=== configure $dir ($*) ==="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "=== build $dir ==="
  cmake --build "$dir" -j "$jobs"
}

run_config() {
  local dir="$1"
  build_config "$@"
  echo "=== ctest $dir ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

run_config build
run_config build-sanitize -DCMAKE_BUILD_TYPE=Debug -DRNL_SANITIZE=address

if [[ "$metrics" == 1 ]]; then
  echo "=== metrics smoke (sanitized) ==="
  ./build-sanitize/examples/metrics_smoke
fi

if [[ "$faults" == 1 ]]; then
  echo "=== fault-tolerance suite (sanitized) ==="
  ./build-sanitize/tests/ris_routeserver_test \
    --gtest_filter='*Rejoin*:*Reconnect*:*Liveness*:*StaleEpoch*:*Disconnect*:*Shed*:*Stalled*:*Overload*:*Sweep*:*Batch*:*Coalesc*'
  ./build-sanitize/tests/transport_test \
    --gtest_filter='SimStream.*:TcpLoopback.RunOncePollRetriesOnEintr:TcpLoopback.*Egress*'
  ./build-sanitize/tests/wire_test \
    --gtest_filter='*Reset*:*PeerRestart*:*Epoch*'
  ./build-sanitize/tests/labservice_test \
    --gtest_filter='*Overloaded*'
  # Sharded route server: kill-mid-traffic rejoin across a shard boundary,
  # cross-shard wire teardown, and ring-full drops -- the paths that free
  # per-site state on one shard while the peer shard still holds WireEnds.
  ./build-sanitize/tests/sharded_test \
    --gtest_filter='*Rejoin*:*Disconnect*:*RingDrops*:*RingFull*'
  # Reconnect jitter determinism: per-site RNG streams must keep --faults
  # replays byte-stable even when other consumers drain the shared RNG.
  ./build-sanitize/tests/ris_extras_test \
    --gtest_filter='ReconnectJitter.*'
fi

if [[ "$lint" == 1 ]]; then
  echo "=== lint: concurrency discipline (scripts/lint_concurrency.py) ==="
  python3 scripts/lint_concurrency.py
  python3 scripts/lint_concurrency.py --selftest
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== lint: clang-tidy (.clang-tidy profile) ==="
    # compile_commands.json comes from the plain build configure above.
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    mapfile -t sources < <(find src fuzz -name '*.cpp' | sort)
    clang-tidy -p build --warnings-as-errors='*' --quiet "${sources[@]}"
  else
    echo "=== lint: clang-tidy not installed; GCC -Werror fallback (RNL_LINT=ON) ==="
    run_config build-lint -DRNL_LINT=ON
  fi
  if command -v clang-format >/dev/null 2>&1; then
    echo "=== format check (warn-only) ==="
    if ! find src fuzz tests -name '*.cpp' -o -name '*.h' \
        | xargs clang-format --dry-run -Werror >/dev/null 2>&1; then
      echo "WARNING: clang-format found style drift (not failing the gate)."
      echo "         Run: clang-format -i on the files listed above."
    fi
  else
    echo "(clang-format not installed; skipping warn-only format check)"
  fi
fi

if [[ "$fuzz" == 1 ]]; then
  echo "=== fuzz: corpus replay (RNL_FUZZ=ON, sanitized when available) ==="
  run_config build-fuzz -DCMAKE_BUILD_TYPE=Debug -DRNL_FUZZ=ON -DRNL_SANITIZE=address
  for harness in message_decoder tunnel_roundtrip decompressor json api journal dispatch; do
    echo "--- replay: $harness (16 chunking variants) ---"
    "./build-fuzz/fuzz/replay_${harness}" --variants 16 "tests/corpus/${harness}"
    if [[ -x "./build-fuzz/fuzz/fuzz_${harness}" ]]; then
      echo "--- libFuzzer: $harness (10k bounded iterations) ---"
      "./build-fuzz/fuzz/fuzz_${harness}" -runs=10000 -max_len=4096 \
        "tests/corpus/${harness}"
    fi
  done
fi

if [[ "$bench" == 1 ]]; then
  echo "=== bench: shard-scaling fast-path smoke (--quick) ==="
  build_config build
  ./build/bench/bench_routeserver_scaling --quick --out build/BENCH_quick.json
  python3 - <<'EOF'
import json
with open("build/BENCH_quick.json") as f:
    report = json.load(f)
sharded = report["sharded_rows"]
assert sharded, "bench emitted no sharded rows"
assert any(row["shards"] == 2 for row in sharded), "no 2-shard row"
for row in sharded:
    where = f"shards={row['shards']} transport={row['transport']}"
    assert row["frames_routed"] > 0, f"{where}: frames_routed == 0"
    assert row["fast_path_frames"] > 0, f"{where}: fast_path_frames == 0"
    assert row["delivered_frames"] > 0, f"{where}: delivered_frames == 0"
    assert row["cross_shard_ring_drops"] == 0, f"{where}: wire ring dropped"
    assert row["cross_shard_frames"] == 0, \
        f"{where}: shard-local wires crossed the rings"
    if row["shards"] == 2:
        # Quick-mode floor: measured ~1.8x (sim) / 2.2-2.4x (tcp) on the
        # critical-path CPU metric; below 1.15x the shards are serialized.
        speedup = row["critical_path_speedup"]
        assert speedup >= 1.15, \
            f"{where}: shard speedup {speedup:.2f}x < 1.15x"
print(f"bench smoke OK: {len(sharded)} sharded rows, "
      f"fast path live and shard scaling intact")
EOF
fi

if [[ "$trace" == 1 ]]; then
  echo "=== trace: cross-process tracing smoke (sanitized) ==="
  ./build-sanitize/examples/trace_smoke build-sanitize/trace_smoke_perfetto.json
  python3 - <<'EOF'
import json
with open("build-sanitize/trace_smoke_perfetto.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "Perfetto export has no events"
phases = {e["ph"] for e in events}
assert "M" in phases, "no process/thread metadata events"
assert "X" in phases, "no complete span events"
spans = [e for e in events if e["ph"] == "X"]
assert all("dur" in e and "ts" in e for e in spans), "span missing ts/dur"
ids = {e["args"]["trace_id"] for e in spans if "args" in e}
assert len(ids) > 1, "spans do not carry distinct trace ids"
print(f"perfetto OK: {len(events)} events, {len(spans)} spans, "
      f"{len(ids)} trace ids")
EOF
fi

if [[ "$model" == 1 ]]; then
  echo "=== model: bounded-exhaustive schedule exploration ==="
  # The harnesses assert ≥10k distinct interleavings each; a violation
  # prints the exact schedule trace plus an mc1: replay token.
  ctest --test-dir build -R 'ModelCheck' --output-on-failure -j "$jobs"
fi

if [[ "$soak" == 1 ]]; then
  echo "=== soak: fleet-scale chaos soak (E14, fixed seed) ==="
  build_config build
  # The binary already exits nonzero on any invariant violation; the JSON
  # re-check below guards against the report and the verdict drifting apart.
  ./build/bench/bench_fleet --quick --seed 42 \
    --store build/fleet_soak_store --out build/BENCH_fleet_quick.json
  python3 - <<'EOF'
import json
with open("build/BENCH_fleet_quick.json") as f:
    report = json.load(f)
assert report["ok"], f"soak failed: {report['failures']}"
assert report["sites"] >= 1000, "soak ran below fleet scale"
server = report["server"]
assert server["retained_ports"] == 0, "retained inventory leaked"
assert server["pending_dispatch"] == 0, "connections stuck in dispatch"
assert server["sites_forgotten"] >= 1, "retention sweep never fired"
store = report["store"]
assert store["recoveries"] >= 1, "journal never recovered"
assert store["torn_tail_truncations"] >= 1, "torn tail not exercised"
assert store["records_replayed"] > 0, "recovery replayed nothing"
deploys = report["deploys"]
assert deploys["ok"] > 0, "no deploy succeeded under chaos"
assert "p99_us" in deploys, "deploy latency missing from report"
assert len(deploys["failures"]) == deploys["failed"], \
    "a failed deploy carries no reason"
for failure in deploys["failures"]:
    print(f"deploy failed: cycle {failure['cycle']}, {failure['step']}: "
          f"{failure['error']}")
faults = report["faults"]
total = sum(faults.values())

# Replay determinism: same seed, same soak. Only wall-clock fields may move.
def flatten(node, prefix=""):
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: node}

wall_clock = {"wall_ms", "deploys.p50_us", "deploys.p99_us"}
with open("BENCH_fleet.json") as f:
    committed = flatten(json.load(f))
fresh = flatten(report)
differing = sorted(key for key in committed.keys() | fresh.keys()
                   if key not in wall_clock
                   and committed.get(key) != fresh.get(key))
for key in differing:
    print(f"soak replay differs at {key}: committed "
          f"{committed.get(key)!r}, fresh {fresh.get(key)!r}")
assert not differing, \
    f"soak replay differs from BENCH_fleet.json on {len(differing)} key(s)"

print(f"soak OK: {report['sites']} sites, {total} faults applied, "
      f"{deploys['ok']}/{deploys['scheduled']} deploys ok "
      f"(p99 {deploys['p99_us']:.0f} us), "
      f"{store['records_replayed']} records replayed at restart, "
      f"replay matches BENCH_fleet.json")
EOF
fi

if [[ "$tsan" == 1 ]]; then
  echo "=== tsan: concurrency surface under ThreadSanitizer ==="
  build_config build-tsan -DCMAKE_BUILD_TYPE=Debug -DRNL_SANITIZE=thread
  ./build-tsan/tests/metrics_test \
    --gtest_filter='*Thread*:*Concurrent*:LoggingLevels.*'
  ./build-tsan/tests/trace_test \
    --gtest_filter='*Concurrent*:*Thread*'
  ./build-tsan/tests/transport_test \
    --gtest_filter='TcpLoopback.*Egress*:TcpLoopback.LargeWriteBuffersAndDrains:SimStream.*Watermark*:SimStream.*Stall*'
  # Sharded route server: the SPSC wire rings under a producer/consumer
  # hammer and the full threaded lifecycle (start, cross-shard kill/rejoin
  # while another thread snapshots metrics, stop-time drain).
  ./build-tsan/tests/sharded_test \
    --gtest_filter='SpscRing.*:ShardedThreaded.*'
fi

echo "All checks passed."
