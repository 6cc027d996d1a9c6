#!/usr/bin/env bash
# Serve-daemon smoke (docs/SERVING.md): start the daemon on a unix
# socket, drive a brief mixed load through a line-JSON client — clean
# runs, a validated run, one fault-injected request, a shed burst past
# the queue depth, a stats snapshot, a telemetry scrape (the `metrics`
# op must return valid Prometheus text with nonzero stage histograms and
# shed counters; `top --frames 1` must render), and the refusals (a
# kill_at_superstep plan, out-of-range integer fields, a line past the
# 64 KiB cap, after which a new connection must still be served) — then
# SIGTERM the daemon and require a graceful drain: exit 0, drain summary
# printed, socket unlinked, and results + metrics logs whose every line
# parses.
#
# Usage: tools/serve_smoke.sh [path/to/graphalytics_cli]
set -u

CLI=${1:-./build/tools/graphalytics_cli}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
SOCK="$WORK/serve.sock"
LOG="$WORK/daemon.log"
RESULTS="$WORK/results.jsonl"
METRICS="$WORK/metrics.jsonl"

GA_SCALE_DIVISOR=${GA_SCALE_DIVISOR:-4096} \
  "$CLI" serve --socket "$SOCK" --queue-depth 2 --workers 1 \
  --deadline-ms 60000 --results "$RESULTS" \
  --metrics-jsonl "$METRICS" --metrics-interval-ms 100 >"$LOG" 2>&1 &
DAEMON=$!

# Wait for the listener.
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK"; cat "$LOG"; exit 1; }

python3 - "$SOCK" <<'EOF' || { echo "FAIL: client"; kill "$DAEMON"; exit 1; }
import json, socket, sys

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
f = s.makefile("rw")

def send(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()

def recv():
    return json.loads(f.readline())

# Clean run + validated run.
send({"op": "run", "id": "c1", "algorithm": "bfs", "dataset": "R1"})
r = recv(); assert r["status"] == "completed", r
assert len(r["output_fnv"]) == 16, r
send({"op": "run", "id": "c2", "algorithm": "pr", "dataset": "R1",
      "validate": True})
r = recv(); assert r["status"] == "completed" and r["validated"], r

# One fault-injected request: fails cleanly, daemon survives.
send({"op": "run", "id": "f1", "algorithm": "pr", "dataset": "R1",
      "faults": "crash_at_superstep=1,seed=7"})
r = recv(); assert r["status"] != "completed", r

# The daemon still serves identical results after the fault.
send({"op": "run", "id": "c3", "algorithm": "bfs", "dataset": "R1"})
r = recv(); assert r["status"] == "completed", r

# Burst past the queue depth: at least one request is shed with a
# retry-after hint (depth 2, one worker, 8 outstanding).
for i in range(8):
    send({"op": "run", "id": "burst-%d" % i, "algorithm": "bfs",
          "dataset": "R2"})
statuses = [recv() for _ in range(8)]
shed = [r for r in statuses if r["status"] == "shed"]
assert shed, statuses
assert all(r["retry_after_ms"] > 0 for r in shed), shed

send({"op": "stats"})
stats = recv()["stats"]
assert stats["completed"] >= 3, stats
assert stats["shed_arrivals"] + stats["shed_victims"] >= 1, stats
assert stats["faulted_requests"] == 1, stats
assert "stages" in stats and stats["stages"]["execute"]["count"] >= 3, stats
assert stats["service_ewma_ms"] > 0, stats

# Telemetry scrape: the metrics op returns Prometheus text format 0.0.4
# in the "body" field. Validate the syntax line by line, then require
# the core series with the counts this very load produced.
import re
send({"op": "metrics"})
body = recv()["body"]
assert body, "empty metrics body"
NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
sample_re = re.compile(
    r"^(%s)(\{[^{}]*\})? (-?[0-9.eE+]+|\+Inf|NaN)$" % NAME)
typed = set()
samples = {}
for line in body.splitlines():
    if not line:
        continue
    if line.startswith("# HELP "):
        continue
    if line.startswith("# TYPE "):
        parts = line.split()
        assert parts[3] in ("counter", "gauge", "histogram"), line
        typed.add(parts[2])
        continue
    m = sample_re.match(line)
    assert m, "bad exposition line: %r" % line
    samples[m.group(1) + (m.group(2) or "")] = float(m.group(3))
    base = re.sub(r"_(bucket|sum|count)$", "", m.group(1))
    assert m.group(1) in typed or base in typed, "untyped sample: " + line

def series(prefix):
    return {k: v for k, v in samples.items() if k.startswith(prefix)}

# Stage histograms saw the completed runs (nonzero counts).
execute_count = series('ga_serve_stage_seconds_count{stage="execute"}')
assert execute_count and all(v >= 3 for v in execute_count.values()), \
    execute_count
for stage in ("queue_wait", "load", "serialize"):
    sc = series('ga_serve_stage_seconds_count{stage="%s"}' % stage)
    assert sc and all(v >= 3 for v in sc.values()), (stage, sc)
# Cumulative buckets: the +Inf bucket closes each stage at its count.
inf = series('ga_serve_stage_seconds_bucket{stage="execute",le="+Inf"}')
assert list(inf.values()) == list(execute_count.values()), (inf, execute_count)
# The shed burst shows up in the admission counters.
shed_total = sum(series('ga_serve_admission_total{decision="shed"').values())
displaced = sum(
    series('ga_serve_admission_total{decision="displaced"').values())
assert shed_total + displaced >= 1, series("ga_serve_admission_total")
# Outcome counters and residency/gauge families are live.
assert samples['ga_serve_requests_total{outcome="completed"}'] >= 3, samples
assert sum(series('ga_serve_residency_total{event="miss"}').values()) >= 1
assert "ga_serve_resident_bytes" in samples, sorted(samples)[:20]
assert sum(series("ga_exec_chunks_total").values()) > 0, \
    series("ga_exec_chunks_total")
print("metrics scrape ok:", len(samples), "series")

# A kill plan would SIGKILL the daemon with every request in it: it is
# refused as a usage error, and the daemon keeps serving.
send({"op": "run", "id": "k1", "algorithm": "bfs", "dataset": "R1",
      "faults": "kill_at_superstep=1"})
r = recv()
assert r["status"] == "error" and r["code"] == "INVALID_ARGUMENT", r
assert "crash/restart harness" in r["message"], r

# Integer fields must be integers in range; each bad value is refused at
# parse time (the reply has no id, since the request never parsed).
for field, value in (("threads", 20000000), ("priority", 1e300),
                     ("machines", 2.5), ("priority", -1)):
    send({"op": "run", "id": "bad", "algorithm": "bfs", "dataset": "R1",
          field: value})
    r = recv()
    assert r["status"] == "error" and field in r["message"], (field, r)
send({"op": "run", "id": "c4", "algorithm": "bfs", "dataset": "R1"})
r = recv(); assert r["status"] == "completed", r

# A line past the 64 KiB cap gets an error reply and its connection is
# closed; a new connection is still served.
big = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
big.connect(sys.argv[1])
try:
    big.sendall(b"x" * (100 * 1024))
except (BrokenPipeError, ConnectionResetError):
    pass  # the daemon may hang up before the tail is written
big_reader = big.makefile("r")
r = json.loads(big_reader.readline())
assert r["status"] == "error" and "exceeds" in r["message"], r
assert big_reader.readline() == "", "connection left open after overflow"
big.close()
fresh = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
fresh.connect(sys.argv[1])
fresh_file = fresh.makefile("rw")
fresh_file.write(json.dumps({"op": "run", "id": "after-big",
                             "algorithm": "bfs", "dataset": "R1"}) + "\n")
fresh_file.flush()
r = json.loads(fresh_file.readline())
assert r["status"] == "completed", r
fresh.close()
print("refusals ok: kill plan, field ranges, line cap")
print("client ok:", json.dumps(stats))
EOF

# The live fleet view renders one frame against the same daemon.
TOP=$("$CLI" top --socket "$SOCK" --frames 1 --no-clear) \
  || { echo "FAIL: top"; kill "$DAEMON"; exit 1; }
echo "$TOP" | grep -q "queue" || { echo "FAIL: top output: $TOP"; kill "$DAEMON"; exit 1; }

# Graceful drain on SIGTERM: exit 0, summary line, socket unlinked.
kill -TERM "$DAEMON"
wait "$DAEMON"
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: drain exit $status"; cat "$LOG"; exit 1
fi
grep -q "drained:" "$LOG" || { echo "FAIL: no drain summary"; cat "$LOG"; exit 1; }
[ -S "$SOCK" ] && { echo "FAIL: socket not unlinked"; exit 1; }

# Every record in the concurrent-append results log parses.
python3 - "$RESULTS" <<'EOF' || { echo "FAIL: results log"; exit 1; }
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty results log"
for line in lines:
    record = json.loads(line)
    assert "outcome" in record, record
print("results log ok:", len(lines), "records")
EOF

# Every periodic telemetry snapshot parses and carries both scopes.
python3 - "$METRICS" <<'EOF' || { echo "FAIL: metrics log"; exit 1; }
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty metrics log"
for line in lines:
    record = json.loads(line)
    assert "ts_ms" in record and "server" in record and "global" in record, \
        record
print("metrics log ok:", len(lines), "snapshots")
EOF

echo "PASS: serve smoke (drain exit 0, $(grep -c . "$RESULTS") records)"
