#!/usr/bin/env sh
# Configures a sanitized build tree (CMake presets `asan-ubsan` /
# `tsan`), builds the fuzzing driver, and runs a modest differential
# campaign, a fault-injection slice, small stepping / cross-level
# oracle slices and (address + undefined) the crash corpus through
# sldbc and scripted sldbc debugger sessions under the chosen
# sanitizers.
# Registered as the tier-1 ctests `fuzz_diff_sanitized` (address +
# undefined) and `fuzz_parallel_tsan` (thread); any sanitizer report
# aborts the driver, which the campaign's fork isolation surfaces as a
# process crash and the driver turns into a nonzero exit.
#
# Usage: tools/run_sanitized_fuzz.sh [repo-root] [count] [sanitizers] [suite]
#   sanitizers: "address,undefined" (default) or "thread"
#   suite:      "fuzz" (default) or "service" — the classification
#               daemon driven by sldb-load at --jobs 4, with and
#               without an armed fault point (ctest `service_tsan`)

set -e

ROOT=${1:-$(cd "$(dirname "$0")/.." && pwd)}
COUNT=${2:-50}
SAN=${3:-address,undefined}
SUITE=${4:-fuzz}
JOBS=$(nproc 2>/dev/null || echo 4)

case "$SAN" in
  thread) BUILD="$ROOT/build-tsan" ;;
  *) BUILD="$ROOT/build-asan-ubsan" ;;
esac

cmake -S "$ROOT" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSLDB_SANITIZE="$SAN" >/dev/null

if [ "$SUITE" = service ]; then
  # Service suite: the daemon's batch worker pool (its query workers
  # read the shared classifiers without locks), watchdog thread, and the
  # deferred-quarantine handoff all race under the chosen sanitizer while
  # sldb-load hammers a pipe.
  cmake --build "$BUILD" --target sldbd sldb-load -j "$JOBS" >/dev/null
  SANOPTS=halt_on_error=1
  TSAN_OPTIONS=$SANOPTS UBSAN_OPTIONS=$SANOPTS \
    "$BUILD/tools/sldb-load" --spawn "$BUILD/tools/sldbd" --jobs 4 \
    --sessions 3 --modules 2 --queries 60 --expect-sound
  # Same workload with a defended fault armed: loads quarantine, every
  # query after that exercises the degraded path concurrently.
  TSAN_OPTIONS=$SANOPTS UBSAN_OPTIONS=$SANOPTS \
    "$BUILD/tools/sldb-load" --spawn "$BUILD/tools/sldbd" --jobs 4 \
    --inject truncate-stmt-map --inject-seed 3 \
    --sessions 3 --modules 2 --queries 60 --expect-sound
  # Tiny queue depth: admission control / shed-retry under the races.
  TSAN_OPTIONS=$SANOPTS UBSAN_OPTIONS=$SANOPTS \
    "$BUILD/tools/sldb-load" --spawn "$BUILD/tools/sldbd" --jobs 4 \
    --queue-depth 8 --sessions 2 --modules 1 --queries 40 --expect-sound
  exit 0
fi

cmake --build "$BUILD" --target sldb-fuzz sldbc -j "$JOBS" >/dev/null

if [ "$SAN" = thread ]; then
  # A parallel campaign and an in-process parallel injection slice: the
  # point is racing real worker threads over the pipeline, the merge
  # accumulators, and the thread_local FaultInjector state.
  # halt_on_error turns the first race into a nonzero exit.
  TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --seed 1 --count "$COUNT" --jobs 4 \
    --no-write --no-shrink
  TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --inject --no-isolate --seed 1 --count 5 \
    --jobs 4 --no-write --no-shrink
  TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --oracle=step --seed 1 --count 10 --jobs 4 \
    --no-write --no-shrink
  TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --oracle=crosslevel --seed 1 --count 4 \
    --jobs 4 --no-write --no-shrink
  # SSA-tier slice: the construct/GVN/sparse/destruct bracket racing
  # across the pool (the bracket allocates phis and edge-split blocks,
  # so arena and analysis-cache handoff get fresh coverage here).
  TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --level O2nl-ssa --seed 1 --count "$COUNT" \
    --jobs 4 --no-write --no-shrink
  TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --oracle=step --level gvn --seed 1 --count 10 \
    --jobs 4 --no-write --no-shrink
  # Aliasing-grammar slice: arrays/pointers/indirect stores racing
  # through the pool (Load/Store lowering and the alias analysis cache
  # get their thread coverage here).
  TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --alias --seed 1 --count "$COUNT" --jobs 4 \
    --no-write --no-shrink
else
  # halt_on_error makes UBSan reports fatal even where
  # -fno-sanitize-recover is not honored; leak checking stays on
  # (default).
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --seed 1 --count "$COUNT" --no-write \
    --no-shrink

  # A small injection slice: every defended fault point under
  # sanitizers.  In-process (no fork) so ASan sees the whole run in one
  # address space and leaks/overflows are attributed to the faulty path
  # directly.
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --inject --no-isolate --seed 1 --count 10 \
    --no-write --no-shrink

  # Arena/batch slice: compile the checked-in corpus in one process.
  # --batch resets the module arena between files, so ASan catches any
  # use-after-reset or slab-lifetime bug in the IR memory model.  The
  # corpus includes the spill_rounds programs, whose allocation spills
  # over several rounds.
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldbc" --batch "$ROOT/tests/inputs"

  # Crash corpus through the frontend and the optimizer: each file
  # compiles (exit 0) or is rejected with diagnostics (exit 1).  A signal
  # or a sanitizer report (exit 86) fails the suite.
  for F in "$ROOT"/tests/crashes/*.minic; do
    RC=0
    ASAN_OPTIONS=halt_on_error=1:exitcode=86 \
      UBSAN_OPTIONS=halt_on_error=1:exitcode=86 \
      "$BUILD/tools/sldbc" --emit=ir-opt "$F" >/dev/null 2>&1 || RC=$?
    if [ "$RC" -ne 0 ] && [ "$RC" -ne 1 ]; then
      echo "sldbc --emit=ir-opt $F: exit status $RC" >&2
      exit 1
    fi
  done

  # The sldbc REPL: every inspection command before the program starts
  # (there is no current function yet), the same commands at a
  # breakpoint, then a step and a continue to the exit.
  REPL_OUT=$(UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldbc" -O2 --debug \
    --cmd scope --cmd where --cmd stmts --cmd storage --cmd "p x" \
    --cmd "explain x" --cmd "explainj x" \
    --cmd "b main 6" --cmd run \
    --cmd scope --cmd where --cmd stmts --cmd storage --cmd "p x" \
    --cmd "explain x" --cmd "explainj x" \
    --cmd s --cmd c --cmd q "$ROOT/tests/inputs/fig2.mc" </dev/null)
  echo "$REPL_OUT" | grep -q "program exited with value 0"

  # Repeated stops at one address: a breakpoint inside spill_rounds_2's
  # loop, with a scope report at each stop, over two runs of the program.
  # The third and fourth stops are served from the Debugger's scope memo
  # (--stats counts them); once more with every variable degraded.  After
  # the last exit, `p t` and `where` must print the exited message and no
  # value from the finished run.
  for DEGRADE in "" --degrade-all; do
    MEMO_OUT=$(UBSAN_OPTIONS=halt_on_error=1 \
      "$BUILD/tools/sldbc" -O2 --debug --stats $DEGRADE \
      --cmd "b main 3" --cmd run --cmd scope --cmd c --cmd scope --cmd c \
      --cmd run --cmd scope --cmd c --cmd scope --cmd c \
      --cmd "p t" --cmd where --cmd q \
      "$ROOT/tests/inputs/spill_rounds_2.mc" </dev/null 2>&1)
    echo "$MEMO_OUT" | grep -q "program exited with value -16"
    echo "$MEMO_OUT" | grep -q "debugger.scope.memo_hits  *2\$"
    AFTER_EXIT=$(echo "$MEMO_OUT" | awk '/program exited with value/ {
      A = ""; next } { A = A $0 "\n" } END { printf "%s", A }')
    echo "$AFTER_EXIT" | grep -q "the program has exited; use 'run' or 's'"
    if echo "$AFTER_EXIT" | grep -q "current ="; then
      echo "sldbc showed a value after the program exited" >&2
      exit 1
    fi
  done

  # Warnings rendered at print time: an endangered variable's scope
  # report at its third stop in a loop, served from the memo.
  WARN_OUT=$(UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldbc" --level=dce --debug \
    --cmd "b main 3" --cmd run --cmd scope --cmd c --cmd scope --cmd c \
    --cmd scope --cmd q "$ROOT/tests/inputs/lftr_overflow.mc" </dev/null)
  echo "$WARN_OUT" | grep -q "^ *'s' is suspect: an eliminated assignment"

  # Back end under the oracle: both builds of a multi-round spilling
  # program and both debuggers, judged with the diff oracle (exits 1 on
  # any violation).
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --repro "$ROOT/tests/inputs/spill_rounds_2.mc"

  # Quality-oracle slices: the stepping oracle drives the new
  # single-instruction stepping path, and the cross-level sweep runs the
  # whole pipeline lattice, so both get sanitizer coverage too.
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --oracle=step --seed 1 --count 15 \
    --no-write --no-shrink
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --oracle=crosslevel --seed 1 --count 5 \
    --no-write --no-shrink

  # SSA-tier slices: the bracket's phi insertion/edge splitting and the
  # sparse passes under ASan/UBSan, at the judgeable SSA levels.
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --level O2nl-ssa --seed 1 --count "$COUNT" \
    --no-write --no-shrink
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --oracle=step --level sparse --seed 1 \
    --count 15 --no-write --no-shrink
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --inject --no-isolate --level O2nl-ssa \
    --seed 1 --count 5 --no-write --no-shrink

  # Aliasing-grammar slices: arrays, pointers, and indirect stores under
  # ASan/UBSan — frame-relative Load/Store lowering, pointer arithmetic,
  # and the alias-aware kill paths in every pass, at the default set and
  # the full SSA bracket.
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --alias --seed 1 --count "$COUNT" \
    --no-write --no-shrink
  UBSAN_OPTIONS=halt_on_error=1 \
    "$BUILD/tools/sldb-fuzz" --alias --level O2nl-ssa --seed 1 \
    --count 25 --no-write --no-shrink
fi
