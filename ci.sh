#!/usr/bin/env bash
# Tier-1 verify in one command: configure, build, run every gtest suite and
# the argument-free examples.
#
#   ./ci.sh            full build (warnings are errors in build/) + docs
#                      check + full test sweep
#   ./ci.sh smoke      full build + fast suites and argument-free examples
#                      only (ctest -L smoke)
#   ./ci.sh bench      full build + microbenchmark smoke run (short
#                      --benchmark_min_time so perf regressions fail loudly
#                      instead of silently; binaries are built -O2 -DNDEBUG);
#                      also runs the serve replay driver (writes
#                      build/BENCH_svc.json), the scenario sweep matrix
#                      (writes build/BENCH_sweep.json), and the energy-vs-JCT
#                      power ablation (writes build/BENCH_power.json)
#   ./ci.sh sweep      full build + parity-gated scenario sweep at small
#                      scale: sweep_matrix runs a 2-cluster x 5-policy x
#                      2-seed grid through sweep::ScenarioEngine in a
#                      warm-up leg and then alternating legs (parallel task
#                      graph vs serial reference loop, each on a fresh
#                      store) and exits non-zero unless every cell of every
#                      leg is bit-identical and every leg generated each
#                      trace exactly once
#   ./ci.sh serve      full build + streaming-service replay at small scale:
#                      example_serve_replay tails a growing CSV, ingests it
#                      through svc::PredictionServer with a mid-replay
#                      kill/restore, and exits non-zero unless the streamed
#                      priorities are bit-identical to the batch evaluator
#                      and every checkpoint is an exact prefix
#   ./ci.sh docs       no build: verify that docs/ARCHITECTURE.md and
#                      docs/FORMATS.md only reference files and CMake
#                      targets that still exist
#   ./ci.sh asan       separate build-asan tree (warnings are errors) with
#                      AddressSanitizer + UndefinedBehaviorSanitizer (abort
#                      on first report) plus float-cast-overflow, which
#                      GCC's `undefined` group leaves out (a NaN or
#                      out-of-range double cast to an integer aborts too),
#                      running the fast suites (ctest -L smoke) with the SIMD
#                      dispatch forced on (HELIOS_SIMD=1) so the sanitizers
#                      sweep the AVX2 predict walk, gather tail pad included
#   ./ci.sh tsan       like asan (warnings are errors), under
#                      ThreadSanitizer in build-tsan at
#                      HELIOS_THREADS=4 (pool nesting races for real on any
#                      machine), with no suppressions file
#   ./ci.sh simd       full build + the fast suites twice: once with the
#                      SIMD dispatch forced on, once forced off
#                      (HELIOS_SIMD=1 then HELIOS_SIMD=0) — the parity
#                      suites must pass bit-identically either way (the
#                      dispatch covers only the GBDT predict walk)
#   ./ci.sh threads    full build + the fast suites at HELIOS_THREADS=1, 2
#                      and 8, so the parallel ≡ serial parity suites run at
#                      pool widths other than this machine's
#   ./ci.sh figs [rev] output parity against another revision: full build of
#                      the working tree, plus a build of <rev> (default HEAD)
#                      in a temporary git worktree under build-figs/; then
#                      runs every fig*/table*/ablation_* binary from both
#                      builds and exits non-zero, naming each binary whose
#                      stdout differs (or that fails or is missing at <rev>).
#                      The binaries are deterministic at a fixed
#                      HELIOS_SCALE/HELIOS_SEED/HELIOS_THREADS; all 24 take
#                      about 30 s per build on 4 cores
#   ./ci.sh unreached  report only (exits 0 whatever it lists; non-zero
#                      only when the build fails): builds every non-test
#                      target and perfbench's own CMake project in
#                      build-unreached/ with -ffunction-sections
#                      -fdata-sections and -Wl,--gc-sections, then prints
#                      the helios:: functions (nm T/W symbols) that
#                      libhelios.a defines but no linked binary keeps, and
#                      their count. Inlined helpers and functions called only
#                      inside their own file also show up, so grep a name
#                      before deleting it
#
# Extra args after the mode are passed through to ctest (full/smoke/asan/
# tsan/simd/threads) or to the microbenchmarks (bench); figs takes only the
# revision.
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-full}"
[ $# -gt 0 ] && shift
case "$mode" in
  full|smoke|bench|serve|sweep|docs|asan|tsan|simd|threads|figs|unreached) ;;
  *) echo "usage: ./ci.sh [full|smoke|bench|serve|sweep|docs|asan|tsan|simd|threads|figs|unreached] [args...]" >&2; exit 2 ;;
esac

# Grep-based link/target validator: every backticked repo path, every
# `dir/file.h` header reference, and every `test_*`/`microbench_*`/
# `example_*` target named in the docs must resolve in the tree, so the
# docs cannot silently rot as code moves.
docs_check() {
  local fail=0 doc ref tgt
  for doc in docs/ARCHITECTURE.md docs/FORMATS.md; do
    if [ ! -f "$doc" ]; then
      echo "DOCS FAIL: $doc is missing" >&2
      fail=1
      continue
    fi
    # Repo-rooted paths like `src/serialize` or `docs/FORMATS.md`.
    while IFS= read -r ref; do
      if [ ! -e "$ref" ]; then
        echo "DOCS FAIL: $doc references missing path: $ref" >&2
        fail=1
      fi
    done < <(grep -oE '`(src|tests|bench|examples|docs)/[A-Za-z0-9_./-]*`' "$doc" \
             | tr -d '\`' | sort -u)
    # Module-relative headers like `ml/gbdt.h` (include paths under src/).
    while IFS= read -r ref; do
      if [ ! -e "src/$ref" ]; then
        echo "DOCS FAIL: $doc references missing header: src/$ref" >&2
        fail=1
      fi
    done < <(grep -oE '`[a-z_]+/[A-Za-z0-9_]+\.h`' "$doc" | tr -d '\`' | sort -u)
    # CMake targets: test_* -> tests/, microbench_* -> bench/,
    # example_* -> examples/ (target prefix added by CMakeLists.txt).
    while IFS= read -r tgt; do
      case "$tgt" in
        test_*)       [ -f "tests/$tgt.cpp" ] || { echo "DOCS FAIL: $doc references missing target: $tgt" >&2; fail=1; } ;;
        microbench_*) [ -f "bench/$tgt.cpp" ] || { echo "DOCS FAIL: $doc references missing target: $tgt" >&2; fail=1; } ;;
        example_*)    [ -f "examples/${tgt#example_}.cpp" ] || { echo "DOCS FAIL: $doc references missing target: $tgt" >&2; fail=1; } ;;
      esac
    done < <(grep -oE '`(test|microbench|example)_[A-Za-z0-9_]+`' "$doc" \
             | tr -d '\`' | sort -u)
  done
  if [ "$fail" -ne 0 ]; then
    echo "DOCS FAIL: stale references (see above)" >&2
    return 1
  fi
  echo "docs check OK"
}

if [ "$mode" = docs ]; then
  docs_check
  exit 0
fi
[ "$mode" = full ] && docs_check

if [ "$mode" = unreached ]; then
  # Dead-section GC drops every function no entry point reaches, so a
  # library symbol missing from all the linked binaries has no caller
  # outside tests/ (tests are not built here).
  out=build-unreached
  gc=(-DCMAKE_BUILD_TYPE=Release
      -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections"
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections")
  mkdir -p "$out"
  if ! { cmake -B "$out/repo" -S . -DHELIOS_BUILD_TESTS=OFF "${gc[@]}" &&
         cmake --build "$out/repo" -j "$(nproc)" &&
         cmake -B "$out/perfbench" -S perfbench "${gc[@]}" &&
         cmake --build "$out/perfbench" -j "$(nproc)"; } > "$out/build.log" 2>&1
  then
    tail -n 40 "$out/build.log" >&2
    echo "UNREACHED FAIL: build failed (full log in $out/build.log)" >&2
    exit 1
  fi
  # nm -C line: "<address> <type> <demangled name with spaces>".
  tw_names() {
    nm -C --defined-only "$@" 2>/dev/null \
      | awk '$2 == "T" || $2 == "W" { sub(/^[^ ]+ [^ ]+ /, ""); print }'
  }
  bins=()
  for f in "$out"/repo/* "$out/perfbench/perfbench"; do
    [ -f "$f" ] && [ -x "$f" ] && bins+=("$f")
  done
  tw_names "${bins[@]}" | LC_ALL=C sort -u > "$out/reached.txt"
  tw_names "$out/repo/libhelios.a" | grep '^helios::' \
    | LC_ALL=C sort -u > "$out/library.txt"
  LC_ALL=C comm -23 "$out/library.txt" "$out/reached.txt" \
    > "$out/unreached.txt"
  cat "$out/unreached.txt"
  echo "unreached: $(wc -l < "$out/unreached.txt") helios:: functions in" \
       "libhelios.a that none of ${#bins[@]} binaries keeps" \
       "(list in $out/unreached.txt)"
  exit 0
fi

if [ "$mode" = asan ]; then
  # Own build tree so the sanitized objects never mix with the Release cache.
  # Debug keeps assertions live; -fno-sanitize-recover turns every ASan/UBSan
  # report into a hard failure instead of a log line. Benches are skipped;
  # the smoke label covers the fast suites and the argument-free examples.
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON \
    -DHELIOS_BUILD_BENCH=OFF -DHELIOS_BUILD_EXAMPLES=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
  cmake --build build-asan -j "$(nproc)"
  cd build-asan
  # Force the SIMD dispatch on: the AVX2 predict walk's gathers (including
  # the deliberate in-pad overreads) must run under ASan container
  # annotations. On hardware without AVX2 the runtime support gate still
  # wins and the scalar walk runs instead.
  export HELIOS_SIMD=1
  exec ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
fi

if [ "$mode" = tsan ]; then
  # Same shape as asan: own tree, Debug, library + smoke suites + examples.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON \
    -DHELIOS_BUILD_BENCH=OFF -DHELIOS_BUILD_EXAMPLES=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "$(nproc)"
  export TSAN_OPTIONS="halt_on_error=1"
  export HELIOS_THREADS="${HELIOS_THREADS:-4}"
  cd build-tsan
  exec ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
fi

# Release is the CMake default here, but pin it so benches are always built
# -O2 -DNDEBUG even if a stale cache says otherwise. Every target in build/
# (library, tests, benches, examples) compiles with warnings as errors, as
# do the build-asan/build-tsan trees; the figs reference build does not.
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j "$(nproc)"

if [ "$mode" = bench ]; then
  # Perf smoke: run each microbenchmark briefly; any crash, assertion (the
  # sim bench verifies sharded-vs-serial parity, the ML bench verifies
  # batched-vs-per-row and SIMD-vs-scalar predict and chunked-vs-serial
  # evaluator parity, both at startup), or missing binary fails the script.
  if [ ! -x build/microbench_sim ]; then
    echo "FAIL: microbench_sim not built (install google-benchmark)" >&2
    exit 1
  fi
  build/microbench_sim --benchmark_min_time=0.1 "$@"
  if [ ! -x build/microbench_ml ]; then
    echo "FAIL: microbench_ml not built (install google-benchmark)" >&2
    exit 1
  fi
  # Machine-readable results land next to the curated repo-root BENCH_ml.json
  # (recorded medians); the binary exits non-zero on any parity mismatch.
  build/microbench_ml --benchmark_min_time=0.1 \
    --benchmark_out=build/BENCH_ml.json --benchmark_out_format=json "$@"
  if [ ! -x build/microbench_ingest ]; then
    echo "FAIL: microbench_ingest not built" >&2
    exit 1
  fi
  # Small row count: smoke-check the ingestion pipeline, not a full run.
  HELIOS_INGEST_ROWS="${HELIOS_INGEST_ROWS:-100000}" \
  HELIOS_INGEST_REPS="${HELIOS_INGEST_REPS:-1}" \
    build/microbench_ingest
  # Streaming-service replay: parity-gated, and the source of BENCH_svc.json
  # (snapshot-query p50/p99 latency + ingest throughput).
  HELIOS_SERVE_SCALE="${HELIOS_SERVE_SCALE:-0.05}" \
  HELIOS_SERVE_OUT=build/BENCH_svc.json \
    build/example_serve_replay
  # Scenario sweep matrix: parity-gated grid run, and the source of
  # BENCH_sweep.json (grid wall-clock, per-cell medians, parallel-vs-serial
  # speedup).
  HELIOS_SWEEP_SCALE="${HELIOS_SWEEP_SCALE:-0.05}" \
  HELIOS_SWEEP_OUT=build/BENCH_sweep.json \
    build/sweep_matrix
  # Energy-vs-JCT power ablation: gated (capped admission must cut modeled
  # energy, parallel power grid must match serial bit-for-bit), and the
  # source of BENCH_power.json (the tradeoff table).
  HELIOS_POWER_SCALE="${HELIOS_POWER_SCALE:-0.05}" \
  HELIOS_POWER_OUT=build/BENCH_power.json \
    build/ablation_power
  exit 0
fi

if [ "$mode" = sweep ]; then
  # Sweep parity gate at small scale: every grid cell must be bit-identical
  # between the parallel task graph and the serial reference loop, and every
  # distinct trace key must be materialized exactly once.
  HELIOS_SWEEP_SCALE="${HELIOS_SWEEP_SCALE:-0.05}" \
  HELIOS_SWEEP_CLUSTERS="${HELIOS_SWEEP_CLUSTERS:-Venus,Earth}" \
  HELIOS_SWEEP_SEEDS="${HELIOS_SWEEP_SEEDS:-2}" \
    build/sweep_matrix
  exit 0
fi

if [ "$mode" = figs ]; then
  # The reference revision builds in its own worktree (library + bench
  # harnesses only); the worktree is removed on exit, the outputs stay in
  # build-figs/out for inspection.
  rev="$(git rev-parse --verify "${1:-HEAD}^{commit}")"
  ref=build-figs
  rm -rf "$ref/out"
  [ -d "$ref/src" ] && git worktree remove --force "$ref/src"
  git worktree add --detach "$ref/src" "$rev"
  trap 'git worktree remove --force "$ref/src"' EXIT
  cmake -B "$ref/build" -S "$ref/src" -DCMAKE_BUILD_TYPE=Release \
    -DHELIOS_BUILD_TESTS=OFF -DHELIOS_BUILD_EXAMPLES=OFF
  cmake --build "$ref/build" -j "$(nproc)"
  mkdir -p "$ref/out"
  fail=0
  for bin in build/fig* build/table* build/ablation_*; do
    name="${bin#build/}"
    if [ ! -x "$ref/build/$name" ]; then
      echo "FIGS FAIL: $name is not built at $rev" >&2
      fail=1
      continue
    fi
    if ! "$bin" > "$ref/out/$name.new" || \
       ! "$ref/build/$name" > "$ref/out/$name.ref"; then
      echo "FIGS FAIL: $name exited non-zero" >&2
      fail=1
    elif cmp -s "$ref/out/$name.new" "$ref/out/$name.ref"; then
      echo "figs: $name identical"
    else
      echo "FIGS FAIL: $name stdout differs from $rev" >&2
      fail=1
    fi
  done
  if [ "$fail" -ne 0 ]; then
    echo "FIGS FAIL: outputs differ from $rev (see above; diff build-figs/out/<name>.{new,ref})" >&2
    exit 1
  fi
  echo "figs check OK: every binary matches $rev"
  exit 0
fi

if [ "$mode" = serve ]; then
  # Serve-while-learning gate at small scale: any priority that is not
  # bit-identical to the batch pipeline — including across the mid-replay
  # kill/restore — exits non-zero and fails CI.
  HELIOS_SERVE_SCALE="${HELIOS_SERVE_SCALE:-0.02}" \
    build/example_serve_replay
  exit 0
fi

cd build
if [ "$mode" = simd ]; then
  # Same suites, both sides of the dispatch: the SIMD predict walk must be
  # bit-identical to the scalar walk wherever the parity tests look.
  echo "=== ctest -L smoke with HELIOS_SIMD=1 (dispatch forced on) ==="
  HELIOS_SIMD=1 ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
  echo "=== ctest -L smoke with HELIOS_SIMD=0 (dispatch forced off) ==="
  HELIOS_SIMD=0 ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
  exit 0
fi
if [ "$mode" = threads ]; then
  # The parallel ≡ serial contracts must hold at every pool width, not just
  # the one this machine happens to have. The per-test timeout turns a pool
  # deadlock into a failure instead of a hang.
  for n in 1 2 8; do
    echo "=== ctest -L smoke with HELIOS_THREADS=$n ==="
    HELIOS_THREADS=$n ctest -L smoke --output-on-failure --timeout 300 \
      -j "$(nproc)" "$@"
  done
  exit 0
fi
if [ "$mode" = smoke ]; then
  exec ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
fi
exec ctest --output-on-failure -j "$(nproc)" "$@"
