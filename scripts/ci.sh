#!/usr/bin/env bash
# Tier-1 verify plus a benchmark smoke test. This is exactly what CI runs;
# run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# Scratch files for the smoke below, removed on any exit.
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
# to catch crashes in bench-only code paths. SIMD dispatch is checked by
# simd_kernels_test (auto-dispatch must pick the widest supported
# variant); perfbench's simd.dot_batch_ns_per_row.* carries the timing.
# The target is skipped at configure time when Google Benchmark is
# unavailable.
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
else
  echo "micro_kernels smoke: SKIPPED (Google Benchmark not found)"
fi

# Shard stress under ThreadSanitizer: the per-shard shared_mutex
# discipline is only really exercised with race detection on. The suite
# includes concurrent cold-engine ingest of the bursty, power_law and
# hot_shard scenario corpora (hot_shard puts every user on one shard).
# Skip gracefully where the toolchain has no -fsanitize=thread.
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
# runs explicitly alongside. So do index_test and simd_kernels_test: the
# top-k selector's threshold filter writes whole vectors of candidates
# into spare buffer space before counting which to keep, so a store past
# that space is a heap overflow only ASan sees (the filter test gives
# each variant exactly n entries of room).
# engine_test and realtime_test drive the ingest path, which slices each
# shard's events as a span out of one regrouped copy of the batch.
# core_test drives the Eq. 12 vote tally, which indexes per-item arrays
# by item ids read from histories.
# Skip gracefully where the toolchain has no -fsanitize=address.
if echo 'int main(){}' | "${CXX:-c++}" -fsanitize=address -x c++ - \
     -o /dev/null 2>/dev/null; then
  cmake --preset asan >/dev/null
  ASAN_TARGETS=(persist_test index_test simd_kernels_test core_test
                engine_test realtime_test recovery_test)
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
  ./build/asan/tests/simd_kernels_test >/dev/null
  ./build/asan/tests/core_test >/dev/null
  ./build/asan/tests/engine_test >/dev/null
  ./build/asan/tests/realtime_test >/dev/null
  ctest --preset asan -L crash
  echo "asan recovery gate: OK"
else
  echo "asan recovery gate: SKIPPED (-fsanitize=address unavailable)"
fi

echo "ci.sh: all green"
