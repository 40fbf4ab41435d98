#!/usr/bin/env bash
# Full verification gate: release build, workspace tests, and the clippy
# -D warnings lint. Every dependency is vendored in-repo (vendor/), so
# this runs fully offline; CARGO_NET_OFFLINE makes any accidental
# network fetch a hard error instead of a hang.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Runs a cargo test invocation, echoes how many tests actually passed,
# and fails if the run matched zero tests: a typo in a `-p` name, test
# binary, or filter would otherwise "pass" while verifying nothing.
run_counted() {
  local label="$1"
  shift
  local out
  if ! out="$("$@" 2>&1)"; then
    printf '%s\n' "$out"
    echo "verify: FAIL — $label" >&2
    return 1
  fi
  printf '%s\n' "$out"
  local passed
  passed="$(printf '%s\n' "$out" \
    | sed -n 's/^test result: ok\. \([0-9][0-9]*\) passed.*/\1/p' \
    | awk '{ s += $1 } END { print s + 0 }')"
  echo "verify: $label — $passed tests passed"
  if [ "$passed" -eq 0 ]; then
    echo "verify: FAIL — $label matched zero tests (typo in a test name or filter?)" >&2
    return 1
  fi
}

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --all-targets -- -D warnings
# Doc links must resolve: a deleted or private item named in a doc comment
# fails here instead of rendering as a dangling link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Telemetry must also build and pass with the feature compiled out (the
# disabled path is part of the obs crate's API contract, not dead code).
cargo build -p elivagar-obs --no-default-features
cargo test -q -p elivagar-obs --no-default-features

# Thread-count determinism matrix: every predictor must produce
# bit-identical f64s at any pool size. ELIVAGAR_THREADS is read once at
# pool startup, so each setting needs its own process; 4 oversubscribes
# small jobs, which exercises worker-id folding onto short range arrays.
for t in 1 2 4; do
  ELIVAGAR_THREADS="$t" run_counted "determinism @ $t threads" \
    cargo test -q -p elivagar-bench --test determinism
done

# Result-cache differential matrix: cache off, cold, and warm must agree
# bit-for-bit (rankings, Pareto fronts, journals) at every thread count,
# and the corruption battery (truncation, bit flips, stale salts,
# misfiled entries) must always degrade to recompute.
for t in 1 2 4; do
  ELIVAGAR_THREADS="$t" run_counted "cache differential @ $t threads" \
    cargo test -q -p elivagar --test cache_differential
done
run_counted "cache key canonicalization" \
  cargo test -q -p elivagar-cache --test key_properties

# Frame-engine exactness: the bit-parallel Pauli-frame engine must match
# the per-shot tableau reference bit-for-bit, per trajectory, over random
# Clifford circuits, noise strengths, and measured subsets.
run_counted "frame vs tableau differential" \
  cargo test -q -p elivagar-sim --test frame_vs_tableau

# CNR throughput gate: the frame engine must beat the tableau reference
# by at least 5x on the reference 10q/1000-trajectory CNR workload (the
# binary also asserts the two engines are bit-identical before timing).
cargo build --release -p elivagar-bench --bin bench_cnr
./target/release/bench_cnr
cnr_speedup="$(sed -n 's/.*"speedup":\([0-9.][0-9.]*\).*/\1/p' BENCH_cnr.json)"
echo "verify: CNR frame-engine speedup ${cnr_speedup}x over tableau"
awk -v s="$cnr_speedup" 'BEGIN { exit !(s >= 5.0) }' || {
  echo "verify: FAIL — CNR frame-engine speedup ${cnr_speedup}x below the 5x gate" >&2
  exit 1
}

# Search-strategy pass: the determinism matrix above already reruns the
# NSGA-II goldens (winner bits, front size, kill+resume) at 1/2/4
# threads; here the one-shot-vs-evolution comparison runs at matched
# evaluation budgets and gates on every Pareto front being
# non-degenerate (>= 2 mutually non-dominated circuits).
cargo build --release -p elivagar-bench --bin bench_search
./target/release/bench_search
min_front="$(tr ',' '\n' < BENCH_search.json \
  | sed -n 's/.*"front_size":\([0-9][0-9]*\).*/\1/p' | sort -n | head -1)"
echo "verify: NSGA-II smallest Pareto front has ${min_front} members"
if [ -z "$min_front" ] || [ "$min_front" -lt 2 ]; then
  echo "verify: FAIL — NSGA-II produced a degenerate Pareto front" >&2
  exit 1
fi

# Cohort-training gate: fused cross-candidate dispatch plus successive
# halving must beat per-candidate solo training by at least 3x on the
# 16-candidate reference cohort, and with halving off every member's
# outcome (loss history and parameters) must be bit-identical to its
# solo run, so the loss ranking cannot move.
cargo build --release -p elivagar-bench --bin bench_train
./target/release/bench_train
train_speedup="$(sed -n 's/.*"speedup":\([0-9.][0-9.]*\).*/\1/p' BENCH_train.json)"
ranking_match="$(sed -n 's/.*"ranking_match":\(true\|false\).*/\1/p' BENCH_train.json)"
echo "verify: cohort training speedup ${train_speedup}x over solo (ranking_match=${ranking_match})"
awk -v s="$train_speedup" 'BEGIN { exit !(s >= 3.0) }' || {
  echo "verify: FAIL — cohort training speedup ${train_speedup}x below the 3x gate" >&2
  exit 1
}
if [ "$ranking_match" != "true" ]; then
  echo "verify: FAIL — cohort training (halving off) diverged from solo rankings" >&2
  exit 1
fi

# Fused-block engine differential matrix: the ULP-bounded proptests
# against the per-instruction oracles (`StateVector::run`, the reference
# adjoint) and the zero-allocation steady-state checks must hold at every
# pool size (the cache-blocked sweeps and the re-fusion scratch are
# per-thread state).
for t in 1 2 4; do
  ELIVAGAR_THREADS="$t" run_counted "fusion differential @ $t threads" \
    cargo test -q -p elivagar-sim --test fusion_differential --test zero_alloc_fusion
done
run_counted "baseline scoring cache roundtrip" \
  cargo test -q -p elivagar-baselines --test cache_roundtrip

# Fused-block execution gate: the streamed adjoint must cut the
# 32-sample minibatch gradient at least 2x against the pre-streaming
# pipeline (a forward execute for the loss plus the reference adjoint's
# three sweeps per parameter slot), with the per-sample loss ranking
# unchanged — training sees the same landscape, only faster.
cargo build --release -p elivagar-bench --bin bench_fusion
./target/release/bench_fusion
fusion_speedup="$(sed -n 's/.*"gradient_speedup":\([0-9.][0-9.]*\).*/\1/p' BENCH_fusion.json)"
fusion_rank="$(sed -n 's/.*"ranking_match":\(true\|false\).*/\1/p' BENCH_fusion.json)"
echo "verify: fused-engine gradient speedup ${fusion_speedup}x (ranking_match=${fusion_rank})"
awk -v s="$fusion_speedup" 'BEGIN { exit !(s >= 2.0) }' || {
  echo "verify: FAIL — streamed adjoint speedup ${fusion_speedup}x below the 2x gate" >&2
  exit 1
}
if [ "$fusion_rank" != "true" ]; then
  echo "verify: FAIL — streamed adjoint changed the per-sample loss ranking" >&2
  exit 1
fi

# Result-cache throughput gate: a fully warm cache must cut the search's
# wall time by at least 2x while selecting the bit-identical winner (the
# binary compares cold, warm, and uncached runs before reporting).
cargo build --release -p elivagar-bench --bin bench_cache
./target/release/bench_cache
cache_speedup="$(sed -n 's/.*"speedup":\([0-9.][0-9.]*\).*/\1/p' BENCH_cache.json)"
cache_match="$(sed -n 's/.*"winner_match":\(true\|false\).*/\1/p' BENCH_cache.json)"
echo "verify: result-cache warm speedup ${cache_speedup}x (winner_match=${cache_match})"
awk -v s="$cache_speedup" 'BEGIN { exit !(s >= 2.0) }' || {
  echo "verify: FAIL — warm-cache speedup ${cache_speedup}x below the 2x gate" >&2
  exit 1
}
if [ "$cache_match" != "true" ]; then
  echo "verify: FAIL — cached search diverged from the uncached ranking" >&2
  exit 1
fi

# Chaos pass: compile the fault-injection registry in and drive injected
# panics, NaNs, torn checkpoint writes, and kill+resume through the full
# pipeline (crates/elivagar/tests/chaos.rs).
run_counted "chaos (elivagar)" cargo test -q -p elivagar --features fault-injection
run_counted "chaos (elivagar-ml)" cargo test -q -p elivagar-ml --features fault-injection
run_counted "chaos (elivagar-serve)" cargo test -q -p elivagar-serve --features fault-injection

# Serve pass: the search-as-a-service daemon must survive a real SIGKILL
# mid-run at every thread count and, after a restart over the same state
# and spool, finish all 8 jobs (3 tenants) with result artifacts
# byte-identical to an uninterrupted run's. A second state dir replays the
# same spool at half the queue depth (a 2x overload burst) and must shed
# the excess with typed rejections while conserving every job.
SERVE_ROOT="target/serve-verify"
rm -rf "$SERVE_ROOT"
mkdir -p "$SERVE_ROOT"
for i in 0 1 2 3 4 5 6 7; do
  extra=()
  if [ $((i % 2)) -eq 0 ]; then extra=(--epochs 2); fi
  ./target/release/elivagar-cli submit --spool "$SERVE_ROOT/spool" \
    --id "job-$i" --tenant "tenant-$((i % 3))" --seed "$((40 + i))" \
    --candidates 6 --train-size 16 --test-size 8 "${extra[@]}" 2>/dev/null
done
serve_run() { # state_dir threads
  ELIVAGAR_THREADS="$2" ./target/release/elivagar-served \
    --state "$1" --spool "$SERVE_ROOT/spool" --slice-records 3 --quiet
}
serve_run "$SERVE_ROOT/base" 1
grep -q '"done":8' "$SERVE_ROOT/base/stats.json" || {
  echo "verify: FAIL — serve baseline did not complete all 8 jobs" >&2
  exit 1
}
for t in 1 2 4; do
  state="$SERVE_ROOT/kill-$t"
  ELIVAGAR_THREADS="$t" ./target/release/elivagar-served \
    --state "$state" --spool "$SERVE_ROOT/spool" --slice-records 3 --quiet &
  serve_pid=$!
  sleep 0.15
  kill -9 "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  serve_run "$state" "$t"
  grep -q '"done":8' "$state/stats.json" && grep -q '"conservation_ok":true' "$state/stats.json" || {
    echo "verify: FAIL — serve restart after SIGKILL lost jobs at $t threads" >&2
    exit 1
  }
  for f in "$SERVE_ROOT"/base/results/*.json; do
    cmp -s "$f" "$state/results/$(basename "$f")" || {
      echo "verify: FAIL — serve ranking diverged after SIGKILL at $t threads ($(basename "$f"))" >&2
      exit 1
    }
  done
done
echo "verify: serve SIGKILL matrix — 8 jobs, 3 tenants, bit-identical results at 1/2/4 threads"
ELIVAGAR_THREADS=1 ./target/release/elivagar-served \
  --state "$SERVE_ROOT/burst" --spool "$SERVE_ROOT/spool" \
  --queue-depth 4 --slice-records 3 --quiet 2>/dev/null
grep -q '"admitted":4' "$SERVE_ROOT/burst/stats.json" \
  && grep -q '"rejected":4' "$SERVE_ROOT/burst/stats.json" \
  && grep -q '"conservation_ok":true' "$SERVE_ROOT/burst/stats.json" || {
  echo "verify: FAIL — serve overload burst did not shed/reject as typed admissions" >&2
  cat "$SERVE_ROOT/burst/stats.json" >&2
  exit 1
}
# Cross-tenant result-cache sharing: respool the same 8 jobs (3 tenants)
# with every spec naming one shared cache_dir. A cold daemon populates
# it, a second daemon over fresh state must be served from it
# (cache_hits > 0), both must satisfy lookups = hits + misses, and every
# ranking must stay byte-identical to the uncached baseline.
for i in 0 1 2 3 4 5 6 7; do
  extra=()
  if [ $((i % 2)) -eq 0 ]; then extra=(--epochs 2); fi
  ./target/release/elivagar-cli submit --spool "$SERVE_ROOT/spool-cached" \
    --id "job-$i" --tenant "tenant-$((i % 3))" --seed "$((40 + i))" \
    --candidates 6 --train-size 16 --test-size 8 \
    --cache-dir "$SERVE_ROOT/result-cache" "${extra[@]}" 2>/dev/null
done
for pass in cache-cold cache-warm; do
  ELIVAGAR_THREADS=1 ./target/release/elivagar-served \
    --state "$SERVE_ROOT/$pass" --spool "$SERVE_ROOT/spool-cached" \
    --slice-records 3 --quiet
  grep -q '"done":8' "$SERVE_ROOT/$pass/stats.json" || {
    echo "verify: FAIL — serve $pass run did not complete all 8 jobs" >&2
    exit 1
  }
  for f in "$SERVE_ROOT"/base/results/*.json; do
    cmp -s "$f" "$SERVE_ROOT/$pass/results/$(basename "$f")" || {
      echo "verify: FAIL — serve $pass ranking diverged from the uncached baseline ($(basename "$f"))" >&2
      exit 1
    }
  done
done
serve_cache_field() { sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" "$1/stats.json"; }
for pass in cache-cold cache-warm; do
  cl="$(serve_cache_field "$SERVE_ROOT/$pass" cache_lookups)"
  ch="$(serve_cache_field "$SERVE_ROOT/$pass" cache_hits)"
  cm="$(serve_cache_field "$SERVE_ROOT/$pass" cache_misses)"
  cs="$(serve_cache_field "$SERVE_ROOT/$pass" cache_stores)"
  awk -v l="$cl" -v h="$ch" -v m="$cm" -v s="$cs" \
    'BEGIN { exit !(l == h + m && m >= s) }' || {
    echo "verify: FAIL — serve $pass cache counters violate conservation (lookups=$cl hits=$ch misses=$cm stores=$cs)" >&2
    exit 1
  }
done
cold_stores="$(serve_cache_field "$SERVE_ROOT/cache-cold" cache_stores)"
warm_hits="$(serve_cache_field "$SERVE_ROOT/cache-warm" cache_hits)"
if [ "$cold_stores" -eq 0 ] || [ "$warm_hits" -eq 0 ]; then
  echo "verify: FAIL — shared cache never populated (stores=$cold_stores) or never hit (hits=$warm_hits)" >&2
  exit 1
fi
echo "verify: serve shared cache — cold stored $cold_stores entries, warm served $warm_hits hits, rankings byte-identical"

serve_field() { sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" "$1/stats.json"; }
printf '{"jobs":8,"tenants":3,"p50_job_latency_ns":%s,"p99_job_latency_ns":%s,"overload_admitted":%s,"overload_rejected":%s}\n' \
  "$(serve_field "$SERVE_ROOT/base" p50_job_latency_ns)" \
  "$(serve_field "$SERVE_ROOT/base" p99_job_latency_ns)" \
  "$(serve_field "$SERVE_ROOT/burst" admitted)" \
  "$(serve_field "$SERVE_ROOT/burst" rejected)" > BENCH_serve.json
echo "verify: serve p50 $(serve_field "$SERVE_ROOT/base" p50_job_latency_ns) ns, p99 $(serve_field "$SERVE_ROOT/base" p99_job_latency_ns) ns; overload burst rejected $(serve_field "$SERVE_ROOT/burst" rejected)/8"
rm -rf "$SERVE_ROOT"

# Telemetry overhead gate: the instrumented search (counters live, span
# tracing disabled) must stay within 5% of a build with telemetry
# compiled out. Both builds produce the same `obs_overhead` path, so
# each binary is copied aside before the next build overwrites it.
cargo build --release -p elivagar-bench --bin obs_overhead
cp target/release/obs_overhead target/release/obs_overhead_instrumented
cargo build --release -p elivagar-bench --bin obs_overhead --no-default-features
cp target/release/obs_overhead target/release/obs_overhead_bare

# Best of 3 process runs (each itself best-of-20 searches) per build.
best_ns() {
  local bin="$1" best="" ns
  for _ in 1 2 3; do
    ns="$("$bin" 20 | sed -n 's/.*"best_wall_ns":\([0-9][0-9]*\).*/\1/p')"
    if [ -z "$best" ] || [ "$ns" -lt "$best" ]; then best="$ns"; fi
  done
  echo "$best"
}
instrumented_ns="$(best_ns target/release/obs_overhead_instrumented)"
bare_ns="$(best_ns target/release/obs_overhead_bare)"
overhead="$(awk -v i="$instrumented_ns" -v b="$bare_ns" \
  'BEGIN { printf "%.4f", i / b - 1.0 }')"
printf '{"instrumented_best_ns":%s,"baseline_best_ns":%s,"overhead":%s}\n' \
  "$instrumented_ns" "$bare_ns" "$overhead" > BENCH_obs.json
echo "verify: telemetry overhead $overhead (instrumented $instrumented_ns ns vs bare $bare_ns ns)"
awk -v i="$instrumented_ns" -v b="$bare_ns" 'BEGIN { exit !(i <= 1.05 * b) }' || {
  echo "verify: FAIL — telemetry overhead exceeds 5%" >&2
  exit 1
}

# Benches can't rot: compile them without running.
cargo bench --no-run --workspace

echo "verify: OK"
