#!/usr/bin/env bash
# Tier-1 verify plus a benchmark smoke test. This is exactly what CI runs;
# run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# Scratch files for the smokes below, removed on any exit.
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# Markdown link check: every relative link in README.md and docs/ must
# resolve to an existing file (anchors and external URLs are skipped).
# Docs that point at moved/renamed files fail CI before anything builds.
link_fail=0
for doc in README.md docs/*.md; do
  doc_dir="$(dirname "${doc}")"
  while IFS= read -r target; do
    target="${target%%#*}"          # strip in-page anchor
    target="${target%% *}"          # strip optional "title" suffix
    [[ -z "${target}" ]] && continue
    case "${target}" in
      http://*|https://*|mailto:*) continue ;;
      /*) resolved="${target}" ;;    # repo treats absolute as fs path
      *) resolved="${doc_dir}/${target}" ;;
    esac
    if [[ ! -e "${resolved}" ]]; then
      echo "markdown link check: dead link in ${doc}: ${target}" >&2
      link_fail=1
    fi
  done < <(awk '/^[[:space:]]*```/{fence=!fence; next} !fence' "${doc}" \
             | grep -oE '\]\([^)]+\)' | sed 's/^](\(.*\))$/\1/')
done
if [[ "${link_fail}" -ne 0 ]]; then
  exit 1
fi
echo "markdown link check: OK"

# Tier-1 verify (ROADMAP.md): configure, build everything, run the
# tier1-labeled suites. Suites registered SLOW stay out of this gate;
# run them locally with `ctest --preset release -L slow`.
cmake --preset release
cmake --build --preset release -j "${JOBS}"
ctest --preset release -L tier1

# Serving benchmark build + harness tests: perfbench/ is its own CMake
# project that compiles against the index, server and engine APIs, and
# nothing else here builds it. --selftest builds the daemon and the
# benchmark binary (Release, under .bench_build/) and runs the harness
# tests, so an API break surfaces here rather than in a benchmark run.
python3 perfbench/run.py --selftest
echo "perfbench selftest: OK"

# Benchmark smoke: the micro-kernel suite at minimal iteration budget,
# to catch crashes/regressions in bench-only code paths. The target is
# skipped at configure time when Google Benchmark is unavailable.
MICRO=build/release/bench/micro_kernels
if [[ -x "${MICRO}" ]]; then
  # benchmark >= 1.8 wants a "0.01s" suffix, older versions a bare double.
  # Keep the first attempt's stderr so a genuine crash is not masked by
  # the retry's flag-parse error.
  SMOKE_ERR="${WORK}/micro_kernels.err"
  if ! "${MICRO}" --benchmark_min_time=0.01 >/dev/null 2>"${SMOKE_ERR}" &&
     ! "${MICRO}" --benchmark_min_time=0.01s >/dev/null; then
    echo "micro_kernels smoke: FAILED; first attempt stderr:" >&2
    cat "${SMOKE_ERR}" >&2
    exit 1
  fi
  echo "micro_kernels smoke: OK"

  # SIMD dispatch sanity (docs/PERFORMANCE.md): run the kernel report once
  # forced to scalar and once auto-dispatched; the dispatched dot kernel at
  # dim 128 must not be slower than the scalar one. Smoke-level only — the
  # real margin is ~3-4x — so a genuine dispatch regression (e.g. always
  # falling back to scalar-through-the-table overhead) trips it, noise
  # does not. Skipped when the CPU has no SIMD variant to dispatch to.
  SIMD_SCALAR_JSON="${WORK}/simd_scalar.json"
  SIMD_AUTO_JSON="${WORK}/simd_auto.json"
  SCCF_SIMD=scalar "${MICRO}" --simd_json="${SIMD_SCALAR_JSON}" >/dev/null
  # env -u: a stray exported SCCF_SIMD must not turn the "auto" run into a
  # forced one (which would silently skip the comparison below).
  env -u SCCF_SIMD "${MICRO}" --simd_json="${SIMD_AUTO_JSON}" >/dev/null
  scalar_ns="$(sed -n 's/.*"active_dot_dim128_ns": \([0-9.]*\).*/\1/p' \
    "${SIMD_SCALAR_JSON}")"
  auto_ns="$(sed -n 's/.*"active_dot_dim128_ns": \([0-9.]*\).*/\1/p' \
    "${SIMD_AUTO_JSON}")"
  auto_variant="$(sed -n 's/.*"active_variant": "\([a-z0-9]*\)".*/\1/p' \
    "${SIMD_AUTO_JSON}")"
  if [[ "${auto_variant}" == "scalar" ]]; then
    echo "simd dispatch check: SKIPPED (no SIMD variant on this CPU)"
  elif awk -v a="${auto_ns}" -v s="${scalar_ns}" 'BEGIN{exit !(a <= s)}'; then
    echo "simd dispatch check: OK (${auto_variant} dot@128 ${auto_ns}ns" \
         "<= scalar ${scalar_ns}ns)"
  else
    echo "simd dispatch check: FAILED — dispatched ${auto_variant} dot@128" \
         "(${auto_ns}ns) slower than scalar (${scalar_ns}ns)" >&2
    exit 1
  fi

  # Same gate for the int8 dot kernel the SQ8 storage mode scans with:
  # the dispatched variant must not lose to forced-scalar at dim 128.
  scalar_i8_ns="$(sed -n \
    's/.*"active_dot_i8_dim128_ns": \([0-9.]*\).*/\1/p' \
    "${SIMD_SCALAR_JSON}")"
  auto_i8_ns="$(sed -n \
    's/.*"active_dot_i8_dim128_ns": \([0-9.]*\).*/\1/p' \
    "${SIMD_AUTO_JSON}")"
  if [[ "${auto_variant}" == "scalar" ]]; then
    echo "simd i8 dispatch check: SKIPPED (no SIMD variant on this CPU)"
  elif [[ -z "${scalar_i8_ns}" || -z "${auto_i8_ns}" ]]; then
    echo "simd i8 dispatch check: FAILED — no active_dot_i8_dim128_ns in" \
         "the kernel report" >&2
    exit 1
  elif awk -v a="${auto_i8_ns}" -v s="${scalar_i8_ns}" \
         'BEGIN{exit !(a <= s)}'; then
    echo "simd i8 dispatch check: OK (${auto_variant} dot_i8@128" \
         "${auto_i8_ns}ns <= scalar ${scalar_i8_ns}ns)"
  else
    echo "simd i8 dispatch check: FAILED — dispatched ${auto_variant}" \
         "dot_i8@128 (${auto_i8_ns}ns) slower than scalar" \
         "(${scalar_i8_ns}ns)" >&2
    exit 1
  fi
else
  echo "micro_kernels smoke: SKIPPED (Google Benchmark not found)"
fi

# Realtime ingest-throughput smoke (batch-first Engine over the sharded
# RealTimeService, see docs/PERFORMANCE.md): one quick sweep over
# {1,4} threads x {1,32}-event batches. Two sanity gates, neither a
# tuned threshold:
#   * threads: 4-thread updates/sec >= 1-thread (shard locking actually
#     lets ingest run concurrently) — needs >= 4 hardware threads;
#   * batching: batch_size=32 updates/sec >= batch_size=1 at one thread
#     (grouped events amortize locks/re-inference/index refreshes, so
#     batching must never lose) — skipped on single-core hosts, where
#     timer noise on the tiny --quick workload dominates.
RT_BENCH=build/release/bench/bench_realtime_throughput
RT_JSON="${WORK}/realtime.json"
"${RT_BENCH}" --quick --threads=1,4 --batch_sizes=1,32 \
  --json="${RT_JSON}" >/dev/null
rt_ups() {  # rt_ups <threads> <batch_size>
  sed -n "s/.*\"threads\": $1, \"batch_size\": $2, \"updates_per_sec\": \([0-9.]*\).*/\1/p" \
    "${RT_JSON}"
}
ups_1t="$(rt_ups 1 1)"
ups_4t="$(rt_ups 4 1)"
ups_b32="$(rt_ups 1 32)"
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null \
         || echo 1)"
if [[ -z "${ups_1t}" || -z "${ups_4t}" || -z "${ups_b32}" ]]; then
  echo "realtime throughput smoke: FAILED (no updates/sec in report)" >&2
  exit 1
fi
if [[ "${CORES}" -lt 4 ]]; then
  echo "realtime thread gate: SKIPPED (host has < 4 cores;" \
       "1t=${ups_1t} 4t=${ups_4t} updates/sec)"
elif awk -v a="${ups_4t}" -v b="${ups_1t}" 'BEGIN{exit !(a >= b)}'; then
  echo "realtime thread gate: OK (4t ${ups_4t} >= 1t ${ups_1t}" \
       "updates/sec)"
else
  echo "realtime thread gate: FAILED — 4-thread ingest (${ups_4t}/s)" \
       "slower than 1-thread (${ups_1t}/s)" >&2
  exit 1
fi
if [[ "${CORES}" -lt 2 ]]; then
  echo "realtime batching gate: SKIPPED (single-core host;" \
       "b1=${ups_1t} b32=${ups_b32} updates/sec)"
elif awk -v a="${ups_b32}" -v b="${ups_1t}" 'BEGIN{exit !(a >= b)}'; then
  echo "realtime batching gate: OK (batch32 ${ups_b32} >= batch1" \
       "${ups_1t} updates/sec)"
else
  echo "realtime batching gate: FAILED — batched ingest (${ups_b32}/s)" \
       "slower than per-event (${ups_1t}/s)" >&2
  exit 1
fi

# Scenario smoke: the workload-generator dimension end to end
# (docs/OPERATIONS.md, "Scenario specs"). Two gates:
#   * bursty + power_law: cold-engine ingest updates/sec and batched
#     streaming-eval events/sec must both be nonzero (the scenario
#     corpora actually flow through the serving path and the
#     reveal_window=32 evaluator makes predictions);
#   * hot_shard: the adversarial all-ids-one-shard corpus must complete
#     a 4-thread run within the timeout — contention on the single hot
#     shard may serialize it, but must never stall it.
# The per-scenario golden bands (fp32 + sq8) are tier-1 ctest cases
# (sccf_golden_test), so the ctest run above already gated them.
SCEN_JSON="${WORK}/scenario.json"
"${RT_BENCH}" --quick --threads=1 --batch_sizes=32 --shards=8 \
  --scenario=bursty,power_law --json="${SCEN_JSON}" >/dev/null
scen_ingest_ups() {  # scen_ingest_ups <scenario>
  sed -n "s/.*\"scenario\": \"$1\", \"threads\": 1, .*\"updates_per_sec\": \([0-9.]*\).*/\1/p" \
    "${SCEN_JSON}"
}
scen_eval_eps() {  # scen_eval_eps <scenario>
  sed -n "s/.*\"scenario\": \"$1\", \"reveal_window\": .*\"eval_events_per_sec\": \([0-9.]*\).*/\1/p" \
    "${SCEN_JSON}"
}
for scen in bursty power_law; do
  scen_ups="$(scen_ingest_ups "${scen}")"
  scen_eps="$(scen_eval_eps "${scen}")"
  if [[ -z "${scen_ups}" ]] ||
     ! awk -v u="${scen_ups}" 'BEGIN{exit !(u > 0)}'; then
    echo "scenario smoke: FAILED — ${scen} cold-engine ingest made no" \
         "progress (updates_per_sec='${scen_ups}')" >&2
    exit 1
  fi
  if [[ -z "${scen_eps}" ]] ||
     ! awk -v e="${scen_eps}" 'BEGIN{exit !(e > 0)}'; then
    echo "scenario smoke: FAILED — ${scen} batched streaming eval made" \
         "no predictions (eval_events_per_sec='${scen_eps}')" >&2
    exit 1
  fi
done
if ! timeout 180 "${RT_BENCH}" --quick --threads=4 --batch_sizes=32 \
     --shards=8 --scenario=hot_shard >/dev/null; then
  echo "scenario smoke: FAILED — hot_shard adversarial corpus stalled" \
       "or crashed a 4-thread ingest (180s budget)" >&2
  exit 1
fi
echo "scenario smoke: OK (bursty/power_law flow, hot_shard completes)"

# Shard stress under ThreadSanitizer: the per-shard shared_mutex
# discipline is only really exercised with race detection on. Skip
# gracefully where the toolchain has no -fsanitize=thread.
if echo 'int main(){}' | "${CXX:-c++}" -fsanitize=thread -x c++ - \
     -o /dev/null 2>/dev/null; then
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "${JOBS}" \
    --target realtime_shard_stress_test
  ./build/tsan/tests/realtime_shard_stress_test
  echo "tsan shard stress: OK"
else
  echo "tsan shard stress: SKIPPED (-fsanitize=thread unavailable)"
fi

# Recovery suites under AddressSanitizer: the fault-injection tests feed
# corrupted bytes through every decoder, which is exactly where an
# out-of-bounds read would hide. `-L crash` is the fork/SIGKILL suite;
# persist_test (plain tier1) carries the decoder fault matrices, so it
# runs explicitly alongside. So does index_test: the top-k selector
# appends every scanned row into spare buffer space before deciding to
# keep it, so an off-by-one there is a heap overflow only ASan sees.
# Skip gracefully where the toolchain has no -fsanitize=address.
if echo 'int main(){}' | "${CXX:-c++}" -fsanitize=address -x c++ - \
     -o /dev/null 2>/dev/null; then
  cmake --preset asan >/dev/null
  ASAN_TARGETS=(persist_test index_test recovery_test)
  # The server suites are crash-labeled too, but Linux-only (epoll) —
  # build them where the release daemon built: the syscall
  # fault-injection suite (EINTR storms, short writes, EMFILE, ENOSPC
  # through the reactor) and the suite that drives the ASan-built
  # sccf_server binary through SIGTERM drains and SIGKILL restarts.
  if [[ -x build/release/sccf_server ]]; then
    ASAN_TARGETS+=(server_fault_test server_binary_test sccf_server_main)
  fi
  cmake --build --preset asan -j "${JOBS}" --target "${ASAN_TARGETS[@]}"
  ./build/asan/tests/persist_test >/dev/null
  ./build/asan/tests/index_test >/dev/null
  ctest --preset asan -L crash
  echo "asan recovery gate: OK"
else
  echo "asan recovery gate: SKIPPED (-fsanitize=address unavailable)"
fi

echo "ci.sh: all green"
