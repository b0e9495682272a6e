#!/usr/bin/env bash
# Tier-1 verify plus a benchmark smoke test. This is exactly what CI runs;
# run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

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
  SMOKE_ERR="$(mktemp)"
  trap 'rm -f "${SMOKE_ERR}"' EXIT
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
  SIMD_SCALAR_JSON="$(mktemp)"
  SIMD_AUTO_JSON="$(mktemp)"
  trap 'rm -f "${SMOKE_ERR}" "${SIMD_SCALAR_JSON}" "${SIMD_AUTO_JSON}"' EXIT
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
RT_JSON="$(mktemp)"
trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
  "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}"' EXIT
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
# (docs/OPERATIONS.md, "Scenario specs"). Three gates:
#   * bursty + power_law: cold-engine ingest updates/sec and batched
#     streaming-eval events/sec must both be nonzero (the scenario
#     corpora actually flow through the serving path and the
#     reveal_window=32 evaluator makes predictions);
#   * hot_shard: the adversarial all-ids-one-shard corpus must complete
#     a 4-thread run within the timeout — contention on the single hot
#     shard may serialize it, but must never stall it;
#   * the per-scenario golden bands (fp32 + sq8) in the release-built
#     golden suite must pass.
SCEN_JSON="$(mktemp)"
trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
  "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}" "${SCEN_JSON:-}"' EXIT
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
SCEN_GOLD="$(mktemp)"
trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
  "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}" "${SCEN_JSON:-}" \
  "${SCEN_GOLD:-}"' EXIT
if ./build/release/tests/sccf_golden_test \
     --gtest_filter='*ScenarioGoldenTest*' >"${SCEN_GOLD}" 2>&1 &&
   grep -q '\[  PASSED  \] 1 test' "${SCEN_GOLD}"; then
  echo "scenario smoke: OK (bursty/power_law flow, hot_shard completes," \
       "per-scenario golden bands hold)"
else
  echo "scenario smoke: FAILED — per-scenario golden bands did not" \
       "pass:" >&2
  tail -20 "${SCEN_GOLD}" >&2
  exit 1
fi
rm -f "${SCEN_JSON}" "${SCEN_GOLD}"

# Cold-shard compaction smoke: with background compaction on, a shard
# that receives staged upserts and then goes COLD (no ingest, no
# queries) must see pending_upserts() reach 0 within the compaction
# interval's sweep budget. The release-built stress test pins exactly
# this liveness property (the test polls with a generous deadline so a
# loaded CI host does not flake the gate).
COLD_OUT="$(mktemp)"
trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
  "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}" "${COLD_OUT:-}"' EXIT
# The grep guards against a renamed test making the filter match
# nothing (gtest exits 0 on an empty filter match).
if ./build/release/tests/realtime_shard_stress_test \
     --gtest_filter='*ColdShardBackgroundCompactionDrains*' \
     >"${COLD_OUT}" 2>&1 &&
   grep -q '\[  PASSED  \] 1 test' "${COLD_OUT}"; then
  echo "cold-shard compaction smoke: OK"
else
  echo "cold-shard compaction smoke: FAILED — staged rows did not drain" \
       "from a cold shard (background compaction liveness):" >&2
  tail -20 "${COLD_OUT}" >&2
  exit 1
fi

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

# Server front-end smoke: start the sccf_server daemon on an ephemeral
# port, drive ~2s of mixed load at 8 pingpong connections with
# bench_server --quick, require a nonzero QPS and zero request errors,
# then SIGTERM and require a clean graceful-drain exit 0. The binaries
# are Linux-only (epoll); skip gracefully elsewhere.
SRV=build/release/sccf_server
SRV_BENCH=build/release/bench/bench_server
if [[ -x "${SRV}" && -x "${SRV_BENCH}" ]]; then
  SRV_OUT="$(mktemp)"
  SRV_JSON="$(mktemp)"
  trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
    "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}" "${COLD_OUT:-}" \
    "${SRV_OUT:-}" "${SRV_JSON:-}"' EXIT
  "${SRV}" --port=0 --users=800 --items=600 >"${SRV_OUT}" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 1 150); do
    grep -q 'listening on' "${SRV_OUT}" && break
    if ! kill -0 "${SRV_PID}" 2>/dev/null; then break; fi
    sleep 0.2
  done
  srv_port="$(sed -n 's/.*listening on .*:\([0-9]*\)$/\1/p' "${SRV_OUT}")"
  srv_users="$(sed -n 's/^corpus users=\([0-9]*\).*/\1/p' "${SRV_OUT}")"
  srv_items="$(sed -n 's/^corpus users=[0-9]* items=\([0-9]*\)$/\1/p' \
    "${SRV_OUT}")"
  if [[ -z "${srv_port}" ]]; then
    echo "server smoke: FAILED — sccf_server never started listening:" >&2
    cat "${SRV_OUT}" >&2
    exit 1
  fi
  # --quick: 8 connections, 1s point, 20% ingest. Exits nonzero on any
  # request error, so the gate below only needs the QPS floor.
  # --quick first: flags apply in order, and the 2s duration must win
  # over --quick's 1s default.
  if ! "${SRV_BENCH}" --quick --port="${srv_port}" --users="${srv_users}" \
       --items="${srv_items}" --duration=2 \
       --json="${SRV_JSON}" >/dev/null; then
    echo "server smoke: FAILED — bench_server reported errors" >&2
    kill -TERM "${SRV_PID}" 2>/dev/null || true
    exit 1
  fi
  srv_qps="$(sed -n 's/.*"connections": 8, .*"qps": \([0-9.]*\).*/\1/p' \
    "${SRV_JSON}")"
  if [[ -z "${srv_qps}" ]] ||
     ! awk -v q="${srv_qps}" 'BEGIN{exit !(q > 0)}'; then
    echo "server smoke: FAILED — no throughput (qps='${srv_qps}')" >&2
    kill -TERM "${SRV_PID}" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "${SRV_PID}"
  srv_exit=0
  wait "${SRV_PID}" || srv_exit=$?
  if [[ "${srv_exit}" -ne 0 ]]; then
    echo "server smoke: FAILED — SIGTERM drain exited ${srv_exit}:" >&2
    cat "${SRV_OUT}" >&2
    exit 1
  fi
  echo "server smoke: OK (${srv_qps} qps at 8 connections, clean drain)"
else
  echo "server smoke: SKIPPED (sccf_server not built on this platform)"
fi

# SQ8 storage smoke: the quantized mode end to end against the real
# daemon. Start with --storage=sq8, ingest over the wire, then require
# STATS to report nonzero int8 code bytes and zero fp32 embedding bytes
# (the per-shard accounting actually reflects quantized storage), and a
# SHARDSTATS reply sized to the shard count. The ranking-quality
# tripwire rides along: the release-built golden suite's sq8 test pins
# Recall@10/NDCG@10 within the documented band of the fp32 run.
if [[ -x "${SRV}" ]]; then
  SQ8_OUT="$(mktemp)"
  SQ8_STATS="$(mktemp)"
  trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
    "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}" "${COLD_OUT:-}" \
    "${SRV_OUT:-}" "${SRV_JSON:-}" "${SQ8_OUT:-}" "${SQ8_STATS:-}"' EXIT
  "${SRV}" --port=0 --users=800 --items=600 --storage=sq8 \
    >"${SQ8_OUT}" 2>&1 &
  SQ8_PID=$!
  for _ in $(seq 1 150); do
    grep -q 'listening on' "${SQ8_OUT}" && break
    if ! kill -0 "${SQ8_PID}" 2>/dev/null; then break; fi
    sleep 0.2
  done
  sq8_port="$(sed -n 's/.*listening on .*:\([0-9]*\)$/\1/p' "${SQ8_OUT}")"
  if [[ -z "${sq8_port}" ]]; then
    echo "sq8 smoke: FAILED — sccf_server --storage=sq8 never started:" >&2
    cat "${SQ8_OUT}" >&2
    exit 1
  fi
  {
    printf 'INGEST 1 10 1 1 11 2 2 12 3\r\n'
    printf 'STATS\r\n'
    printf 'SHARDSTATS\r\n'
    printf 'QUIT\r\n'
  } | {
    exec 9<>"/dev/tcp/127.0.0.1/${sq8_port}"
    cat >&9
    cat <&9
    exec 9<&- 9>&-
  } | tr -d '\r' >"${SQ8_STATS}"
  sq8_stat() {  # value following a STATS/SHARDSTATS key line
    awk -v key="$1" 'prev==key && /^:/ {sub(/^:/,""); print; exit}
                     {prev=$0}' "${SQ8_STATS}"
  }
  sq8_code_bytes="$(sq8_stat code_bytes)"
  sq8_emb_bytes="$(sq8_stat embedding_bytes)"
  sq8_shard_arrays="$(grep -c '^\*14$' "${SQ8_STATS}" || true)"
  kill -TERM "${SQ8_PID}"
  sq8_exit=0
  wait "${SQ8_PID}" || sq8_exit=$?
  if [[ -z "${sq8_code_bytes}" || "${sq8_code_bytes}" -eq 0 ]]; then
    echo "sq8 smoke: FAILED — STATS reported no int8 code bytes" \
         "(code_bytes='${sq8_code_bytes}')" >&2
    exit 1
  fi
  if [[ -z "${sq8_emb_bytes}" || "${sq8_emb_bytes}" -ne 0 ]]; then
    echo "sq8 smoke: FAILED — sq8 server holds fp32 embedding bytes" \
         "(embedding_bytes='${sq8_emb_bytes}')" >&2
    exit 1
  fi
  if [[ -z "${sq8_shard_arrays}" || "${sq8_shard_arrays}" -eq 0 ]]; then
    echo "sq8 smoke: FAILED — SHARDSTATS returned no per-shard arrays" >&2
    exit 1
  fi
  if [[ "${sq8_exit}" -ne 0 ]]; then
    echo "sq8 smoke: FAILED — SIGTERM drain exited ${sq8_exit}:" >&2
    cat "${SQ8_OUT}" >&2
    exit 1
  fi
  SQ8_GOLD="$(mktemp)"
  trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
    "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}" "${COLD_OUT:-}" \
    "${SRV_OUT:-}" "${SRV_JSON:-}" "${SQ8_OUT:-}" "${SQ8_STATS:-}" \
    "${SQ8_GOLD:-}"' EXIT
  if ./build/release/tests/sccf_golden_test \
       --gtest_filter='*Sq8RecallWithinDocumentedBandOfFp32*' \
       >"${SQ8_GOLD}" 2>&1 &&
     grep -q '\[  PASSED  \] 1 test' "${SQ8_GOLD}"; then
    echo "sq8 smoke: OK (code_bytes=${sq8_code_bytes}," \
         "${sq8_shard_arrays} shard arrays, recall band held)"
  else
    echo "sq8 smoke: FAILED — sq8 golden recall band test did not pass:" >&2
    tail -20 "${SQ8_GOLD}" >&2
    exit 1
  fi
else
  echo "sq8 smoke: SKIPPED (sccf_server not built on this platform)"
fi

# Crash-recovery smoke: the end-to-end durability claim, against the
# real daemon. Start sccf_server with --data_dir, ingest over the wire,
# pin the byte-exact replies to a read-only command block, SIGKILL the
# server (no drain, no destructors), restart it on the same directory,
# and require the same block to produce the same bytes — bootstrap is
# seed-deterministic and the journal replays the ingest, so any
# divergence is a recovery bug. Uses bash's /dev/tcp; QUIT makes the
# server close the connection, which terminates each capture.
if [[ -x "${SRV}" ]]; then
  CR_DIR="$(mktemp -d)"
  CR_OUT="$(mktemp)"
  CR_PRE="$(mktemp)"
  CR_POST="$(mktemp)"
  trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
    "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}" "${COLD_OUT:-}" \
    "${SRV_OUT:-}" "${SRV_JSON:-}" "${SQ8_OUT:-}" "${SQ8_STATS:-}" \
    "${SQ8_GOLD:-}" "${CR_OUT:-}" "${CR_PRE:-}" \
    "${CR_POST:-}"; rm -rf "${CR_DIR:-}"' EXIT
  start_crash_server() {
    "${SRV}" --port=0 --users=800 --items=600 --data_dir="${CR_DIR}" \
      >"${CR_OUT}" 2>&1 &
    CR_PID=$!
    for _ in $(seq 1 150); do
      grep -q 'listening on' "${CR_OUT}" && break
      if ! kill -0 "${CR_PID}" 2>/dev/null; then break; fi
      sleep 0.2
    done
    CR_PORT="$(sed -n 's/.*listening on .*:\([0-9]*\)$/\1/p' "${CR_OUT}")"
    if [[ -z "${CR_PORT}" ]]; then
      echo "crash-recovery smoke: FAILED — server never listened:" >&2
      cat "${CR_OUT}" >&2
      exit 1
    fi
  }
  crash_client() {  # reads commands on stdin, prints the reply stream
    exec 9<>"/dev/tcp/127.0.0.1/${CR_PORT}"
    cat >&9
    cat <&9
    exec 9<&- 9>&-
  }
  # The read-only block whose replies get pinned (CRLF line endings, as
  # the inline protocol expects). LASTSAVE stays out: we never SAVE, and
  # STATS stays out only for stylistic parity — staged counts replay
  # bit-identically too.
  read_block() {
    printf 'RECOMMEND 1 10\r\n'
    printf 'NEIGHBORS 1\r\n'
    printf 'HISTORY 1\r\n'
    printf 'HISTORY 9000\r\n'
    printf 'QUIT\r\n'
  }
  start_crash_server
  {
    printf 'INGEST 1 10 1 1 11 2 2 12 3 5 13 4\r\n'
    printf 'INGEST 9000 14 5 9000 15 6 1 16 7\r\n'
    printf 'QUIT\r\n'
  } | crash_client >/dev/null
  read_block | crash_client >"${CR_PRE}"
  if ! grep -q '^:' "${CR_PRE}"; then
    echo "crash-recovery smoke: FAILED — no data in pinned replies:" >&2
    cat "${CR_PRE}" >&2
    exit 1
  fi
  kill -KILL "${CR_PID}"
  wait "${CR_PID}" 2>/dev/null || true
  start_crash_server
  read_block | crash_client >"${CR_POST}"
  if ! cmp -s "${CR_PRE}" "${CR_POST}"; then
    echo "crash-recovery smoke: FAILED — post-restart replies diverge" \
         "from pre-crash replies:" >&2
    diff "${CR_PRE}" "${CR_POST}" >&2 || true
    exit 1
  fi
  kill -TERM "${CR_PID}"
  cr_exit=0
  wait "${CR_PID}" || cr_exit=$?
  if [[ "${cr_exit}" -ne 0 ]]; then
    echo "crash-recovery smoke: FAILED — restarted server's SIGTERM" \
         "drain exited ${cr_exit}:" >&2
    cat "${CR_OUT}" >&2
    exit 1
  fi
  echo "crash-recovery smoke: OK (SIGKILL + restart is byte-identical)"
else
  echo "crash-recovery smoke: SKIPPED (sccf_server not built)"
fi

# Overload smoke: the availability claim under pressure, end to end.
# Cap the daemon at 48 connections, then drive 96 pingpong connections
# (plus bench_server's control connection, which connects first and
# holds a slot like an operator session) with 20% ingest and a BGSAVE
# fired mid-flood. Required: bench exits 0 (--expect_refusals makes
# connection-cap refusals non-fatal; request errors and a failed BGSAVE
# still are), nonzero QPS from the admitted fleet, a nonzero refused
# count (the cap actually sheds instead of silently queueing), and a
# clean SIGTERM drain. Then restart on the same data dir: the snapshot
# the BGSAVE wrote mid-flood must recover (a probe must answer with
# data), i.e. saving under overload corrupts nothing.
if [[ -x "${SRV}" && -x "${SRV_BENCH}" ]]; then
  OL_DIR="$(mktemp -d)"
  OL_OUT="$(mktemp)"
  OL_JSON="$(mktemp)"
  OL_PROBE="$(mktemp)"
  trap 'rm -f "${SMOKE_ERR:-}" "${SIMD_SCALAR_JSON:-}" \
    "${SIMD_AUTO_JSON:-}" "${RT_JSON:-}" "${COLD_OUT:-}" \
    "${SRV_OUT:-}" "${SRV_JSON:-}" "${SQ8_OUT:-}" "${SQ8_STATS:-}" \
    "${SQ8_GOLD:-}" "${CR_OUT:-}" "${CR_PRE:-}" \
    "${CR_POST:-}" "${OL_OUT:-}" "${OL_JSON:-}" "${OL_PROBE:-}"; \
    rm -rf "${CR_DIR:-}" "${OL_DIR:-}"' EXIT
  start_overload_server() {
    "${SRV}" --port=0 --users=800 --items=600 --data_dir="${OL_DIR}" \
      --max_connections=48 >"${OL_OUT}" 2>&1 &
    OL_PID=$!
    for _ in $(seq 1 150); do
      grep -q 'listening on' "${OL_OUT}" && break
      if ! kill -0 "${OL_PID}" 2>/dev/null; then break; fi
      sleep 0.2
    done
    OL_PORT="$(sed -n 's/.*listening on .*:\([0-9]*\)$/\1/p' "${OL_OUT}")"
    if [[ -z "${OL_PORT}" ]]; then
      echo "overload smoke: FAILED — server never started listening:" >&2
      cat "${OL_OUT}" >&2
      exit 1
    fi
  }
  start_overload_server
  ol_users="$(sed -n 's/^corpus users=\([0-9]*\).*/\1/p' "${OL_OUT}")"
  ol_items="$(sed -n 's/^corpus users=[0-9]* items=\([0-9]*\)$/\1/p' \
    "${OL_OUT}")"
  if ! "${SRV_BENCH}" --port="${OL_PORT}" --users="${ol_users}" \
       --items="${ol_items}" --duration=2 --connections=96 \
       --ingest_ratios=0.2 --save_during_load=bgsave --expect_refusals \
       --json="${OL_JSON}" >/dev/null; then
    echo "overload smoke: FAILED — bench_server reported request" \
         "errors or a failed BGSAVE" >&2
    kill -TERM "${OL_PID}" 2>/dev/null || true
    exit 1
  fi
  ol_qps="$(sed -n 's/.*"connections": 96, .*"qps": \([0-9.]*\).*/\1/p' \
    "${OL_JSON}")"
  ol_refused="$(sed -n 's/.*"refused": \([0-9]*\).*/\1/p' "${OL_JSON}")"
  if [[ -z "${ol_qps}" ]] ||
     ! awk -v q="${ol_qps}" 'BEGIN{exit !(q > 0)}'; then
    echo "overload smoke: FAILED — admitted fleet made no progress" \
         "(qps='${ol_qps}')" >&2
    kill -TERM "${OL_PID}" 2>/dev/null || true
    exit 1
  fi
  if [[ -z "${ol_refused}" || "${ol_refused}" -eq 0 ]]; then
    echo "overload smoke: FAILED — 96 connections against a cap of 48" \
         "produced no refusals (refused='${ol_refused}')" >&2
    kill -TERM "${OL_PID}" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "${OL_PID}"
  ol_exit=0
  wait "${OL_PID}" || ol_exit=$?
  if [[ "${ol_exit}" -ne 0 ]]; then
    echo "overload smoke: FAILED — SIGTERM drain under overload exited" \
         "${ol_exit}:" >&2
    cat "${OL_OUT}" >&2
    exit 1
  fi
  start_overload_server
  {
    printf 'RECOMMEND 1 10\r\n'
    printf 'QUIT\r\n'
  } | {
    exec 9<>"/dev/tcp/127.0.0.1/${OL_PORT}"
    cat >&9
    cat <&9
    exec 9<&- 9>&-
  } >"${OL_PROBE}"
  if ! grep -q '^:' "${OL_PROBE}"; then
    echo "overload smoke: FAILED — restart on the mid-flood BGSAVE" \
         "snapshot returned no data:" >&2
    cat "${OL_PROBE}" >&2
    kill -TERM "${OL_PID}" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "${OL_PID}"
  ol_exit=0
  wait "${OL_PID}" || ol_exit=$?
  if [[ "${ol_exit}" -ne 0 ]]; then
    echo "overload smoke: FAILED — restarted server's SIGTERM drain" \
         "exited ${ol_exit}:" >&2
    cat "${OL_OUT}" >&2
    exit 1
  fi
  echo "overload smoke: OK (${ol_qps} qps past a 48-conn cap," \
       "${ol_refused} refused, mid-flood BGSAVE recovered)"
else
  echo "overload smoke: SKIPPED (sccf_server not built on this platform)"
fi

# Recovery suites under AddressSanitizer: the fault-injection tests feed
# corrupted bytes through every decoder, which is exactly where an
# out-of-bounds read would hide. `-L crash` is the fork/SIGKILL suite;
# persist_test (plain tier1) carries the decoder fault matrices, so it
# runs explicitly alongside. Skip gracefully where the toolchain has no
# -fsanitize=address.
if echo 'int main(){}' | "${CXX:-c++}" -fsanitize=address -x c++ - \
     -o /dev/null 2>/dev/null; then
  cmake --preset asan >/dev/null
  ASAN_TARGETS=(persist_test recovery_test)
  # The syscall fault-injection server suite (EINTR storms, short
  # writes, EMFILE, ENOSPC through the reactor) is crash-labeled so the
  # ctest below picks it up, but it is Linux-only — build it where the
  # server itself built.
  if [[ -x "${SRV}" ]]; then
    ASAN_TARGETS+=(server_fault_test)
  fi
  cmake --build --preset asan -j "${JOBS}" --target "${ASAN_TARGETS[@]}"
  ./build/asan/tests/persist_test >/dev/null
  ctest --preset asan -L crash
  echo "asan recovery gate: OK"
else
  echo "asan recovery gate: SKIPPED (-fsanitize=address unavailable)"
fi

echo "ci.sh: all green"
