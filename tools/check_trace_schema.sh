#!/bin/sh
# check_trace_schema.sh — validate the Chrome-trace-format JSON the
# observability layer writes (sldbc --trace-json, sldb-fuzz --trace-json).
#
#   check_trace_schema.sh <sldbc> <sldb-fuzz> <input.mc>
#
# Generates a compile+debug trace and two merged campaign traces (the
# differential and the stepping oracle) into a temporary directory and
# checks, for each document:
#
#   * top-level shape: {"traceEvents": [...], "displayTimeUnit": ...};
#   * per event: required keys (name, cat, ph, ts, pid, tid), ph is one
#     of "X" (complete span, with dur >= 0) or "i" (instant, with s);
#   * timestamps are monotonically nondecreasing within each tid (the
#     writer sorts by (tid, ts));
#   * "X" spans nest properly within each tid: a span overlapping an
#     enclosing span must be fully contained in it (balanced spans).
#
# Exit status 0 when every generated trace validates, 1 otherwise.
set -eu

if [ $# -ne 3 ]; then
  echo "usage: $0 <sldbc> <sldb-fuzz> <input.mc>" >&2
  exit 2
fi
SLDBC=$1
SLDB_FUZZ=$2
INPUT=$3

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# 1. Compile + interactive-debug trace through sldbc.
"$SLDBC" --trace-json="$TMP/compile.json" --debug \
  --cmd "b main 2" --cmd run --cmd "explain c" --cmd q \
  "$INPUT" >/dev/null

# 2. Merged campaign trace through sldb-fuzz (two jobs, so the
#    deterministic seed-major merge actually has something to merge).
"$SLDB_FUZZ" --seed 5 --count 6 --jobs 2 --no-write \
  --trace-json "$TMP/campaign.json" >/dev/null

# 3. The same through the stepping oracle: every oracle runs on one
#    campaign engine, so every campaign writes a trace.
"$SLDB_FUZZ" --oracle=step --seed 5 --count 4 --jobs 2 --no-write \
  --trace-json "$TMP/step.json" >/dev/null

validate() {
  python3 - "$1" <<'PYEOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)  # Parse failure -> traceback -> nonzero exit.

def fail(msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)

if not isinstance(doc, dict) or "traceEvents" not in doc:
    fail("missing top-level traceEvents")
if "displayTimeUnit" not in doc:
    fail("missing displayTimeUnit")
events = doc["traceEvents"]
if not isinstance(events, list):
    fail("traceEvents is not a list")
if not events:
    fail("trace is empty (generation produced no events)")

by_tid = {}
for i, e in enumerate(events):
    for key in ("name", "cat", "ph", "ts", "pid", "tid"):
        if key not in e:
            fail(f"event {i} missing required key '{key}'")
    if e["ph"] not in ("X", "i"):
        fail(f"event {i} has unexpected ph '{e['ph']}'")
    if e["ph"] == "X":
        if "dur" not in e or not isinstance(e["dur"], int) or e["dur"] < 0:
            fail(f"event {i} ('X') needs an integer dur >= 0")
    if e["ph"] == "i" and e.get("s") != "t":
        fail(f"event {i} ('i') needs scope s == 't'")
    if not isinstance(e["ts"], int) or e["ts"] < 0:
        fail(f"event {i} needs an integer ts >= 0")
    by_tid.setdefault(e["tid"], []).append(e)

for tid, evs in by_tid.items():
    last_ts = -1
    stack = []  # (start, end) of open enclosing spans.
    for e in evs:
        ts = e["ts"]
        if ts < last_ts:
            fail(f"tid {tid}: timestamps not monotonic ({ts} < {last_ts})")
        last_ts = ts
        if e["ph"] != "X":
            continue
        end = ts + e["dur"]
        while stack and stack[-1][1] <= ts:
            stack.pop()
        if stack and end > stack[-1][1]:
            fail(f"tid {tid}: span [{ts},{end}) straddles enclosing "
                 f"span [{stack[-1][0]},{stack[-1][1]}) — unbalanced")
        stack.append((ts, end))

print(f"{path}: OK ({len(events)} events, {len(by_tid)} tid(s))")
PYEOF
}

validate "$TMP/compile.json"
validate "$TMP/campaign.json"
validate "$TMP/step.json"
