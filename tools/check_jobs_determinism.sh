#!/usr/bin/env sh
# Asserts the parallel-campaign determinism contract end to end: the
# sldb-fuzz report on stdout must be byte-identical for --jobs 1 and
# --jobs 8, for the differential campaign, the fault-injection matrix,
# and the stepping / cross-level quality oracles.  Worker stats go to
# stderr precisely so this comparison stays meaningful.  Each --jobs 1
# report must also match its golden under tests/golden/fuzz_reports/
# (captured at count 25), so a change to any campaign's output shows up
# as a diff.  Registered as the tier-1 ctest `fuzz_jobs_determinism`.
#
# Usage: tools/check_jobs_determinism.sh <path-to-sldb-fuzz> [count]

set -e

FUZZ=${1:?usage: check_jobs_determinism.sh <path-to-sldb-fuzz> [count]}
COUNT=${2:-25}
GOLDEN=$(dirname "$0")/../tests/golden/fuzz_reports
TMP=$(mktemp -d "${TMPDIR:-/tmp}/sldb-jobs-det.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

FAIL=0

# golden <report> <golden-name>: diff a --jobs 1 report against its
# golden (only at the count the goldens were captured with).
golden() {
  if [ "$COUNT" -ne 25 ]; then
    return
  fi
  if ! cmp -s "$1" "$GOLDEN/$2"; then
    echo "error: $1 differs from golden $2:" >&2
    diff -u "$GOLDEN/$2" "$1" >&2 || true
    FAIL=1
  fi
}

# Differential campaign.
"$FUZZ" --seed 1 --count "$COUNT" --no-write --no-shrink \
  --jobs 1 >"$TMP/clean-j1.txt"
"$FUZZ" --seed 1 --count "$COUNT" --no-write --no-shrink \
  --jobs 8 >"$TMP/clean-j8.txt"
if ! cmp -s "$TMP/clean-j1.txt" "$TMP/clean-j8.txt"; then
  echo "error: campaign report differs between --jobs 1 and --jobs 8:" >&2
  diff -u "$TMP/clean-j1.txt" "$TMP/clean-j8.txt" >&2 || true
  FAIL=1
fi
golden "$TMP/clean-j1.txt" diff.txt

# Fault-injection matrix, in-process (the isolated path is exercised by
# fuzz_inject; in-process keeps this test fast and covers the
# thread-confined FaultInjector arming directly).
"$FUZZ" --inject --no-isolate --seed 1 --count 5 --no-write --no-shrink \
  --jobs 1 >"$TMP/inject-j1.txt"
"$FUZZ" --inject --no-isolate --seed 1 --count 5 --no-write --no-shrink \
  --jobs 8 >"$TMP/inject-j8.txt"
if ! cmp -s "$TMP/inject-j1.txt" "$TMP/inject-j8.txt"; then
  echo "error: inject report differs between --jobs 1 and --jobs 8:" >&2
  diff -u "$TMP/inject-j1.txt" "$TMP/inject-j8.txt" >&2 || true
  FAIL=1
fi
golden "$TMP/inject-j1.txt" inject.txt

# Stepping oracle.
"$FUZZ" --oracle=step --seed 1 --count "$COUNT" --no-write --no-shrink \
  --jobs 1 >"$TMP/step-j1.txt"
"$FUZZ" --oracle=step --seed 1 --count "$COUNT" --no-write --no-shrink \
  --jobs 8 >"$TMP/step-j8.txt"
if ! cmp -s "$TMP/step-j1.txt" "$TMP/step-j8.txt"; then
  echo "error: step report differs between --jobs 1 and --jobs 8:" >&2
  diff -u "$TMP/step-j1.txt" "$TMP/step-j8.txt" >&2 || true
  FAIL=1
fi
golden "$TMP/step-j1.txt" step.txt

# Cross-level sweep (small slice: each seed costs 16 classifications
# plus a lockstep run per judgeable level).
"$FUZZ" --oracle=crosslevel --seed 1 --count 8 --no-write --no-shrink \
  --jobs 1 >"$TMP/xl-j1.txt"
"$FUZZ" --oracle=crosslevel --seed 1 --count 8 --no-write --no-shrink \
  --jobs 8 >"$TMP/xl-j8.txt"
if ! cmp -s "$TMP/xl-j1.txt" "$TMP/xl-j8.txt"; then
  echo "error: crosslevel report differs between --jobs 1 and --jobs 8:" >&2
  diff -u "$TMP/xl-j1.txt" "$TMP/xl-j8.txt" >&2 || true
  FAIL=1
fi
golden "$TMP/xl-j1.txt" crosslevel.txt

# SSA-tier level campaign: the bracket passes must keep the same
# determinism contract (the phi workset and edge splitting are per-unit
# state, so any cross-worker leak shows up as a report diff here).
"$FUZZ" --level O2nl-ssa --seed 1 --count "$COUNT" --no-write --no-shrink \
  --jobs 1 >"$TMP/ssa-j1.txt"
"$FUZZ" --level O2nl-ssa --seed 1 --count "$COUNT" --no-write --no-shrink \
  --jobs 8 >"$TMP/ssa-j8.txt"
if ! cmp -s "$TMP/ssa-j1.txt" "$TMP/ssa-j8.txt"; then
  echo "error: O2nl-ssa report differs between --jobs 1 and --jobs 8:" >&2
  diff -u "$TMP/ssa-j1.txt" "$TMP/ssa-j8.txt" >&2 || true
  FAIL=1
fi
golden "$TMP/ssa-j1.txt" O2nl-ssa.txt

# Stepping oracle at an SSA level.
"$FUZZ" --oracle=step --level gvn --seed 1 --count "$COUNT" --no-write \
  --no-shrink --jobs 1 >"$TMP/step-ssa-j1.txt"
"$FUZZ" --oracle=step --level gvn --seed 1 --count "$COUNT" --no-write \
  --no-shrink --jobs 8 >"$TMP/step-ssa-j8.txt"
if ! cmp -s "$TMP/step-ssa-j1.txt" "$TMP/step-ssa-j8.txt"; then
  echo "error: gvn step report differs between --jobs 1 and --jobs 8:" >&2
  diff -u "$TMP/step-ssa-j1.txt" "$TMP/step-ssa-j8.txt" >&2 || true
  FAIL=1
fi
golden "$TMP/step-ssa-j1.txt" step-gvn.txt

# Sharding composes with --jobs: three shards of the same campaign must
# partition the seed range exactly (programs sum = count).
TOTAL=0
for I in 0 1 2; do
  "$FUZZ" --seed 1 --count "$COUNT" --no-write --no-shrink \
    --jobs 2 --shard "$I/3" >"$TMP/shard-$I.txt"
  N=$(sed -n 's/^programs: *\([0-9]*\).*/\1/p' "$TMP/shard-$I.txt")
  TOTAL=$((TOTAL + N))
done
if [ "$TOTAL" -ne "$COUNT" ]; then
  echo "error: shards cover $TOTAL programs, expected $COUNT" >&2
  FAIL=1
fi

exit $FAIL
