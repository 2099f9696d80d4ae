"""Structural checks on the files the `make` gates produce.

Usage: python3 test/gate_checks.py CHECK FILE [ARG]

  sarif FILE              SARIF 2.1.0 with a non-empty rules table
  chrome-trace FILE       begin/end spans nest per thread; removal.run present
  batch-telemetry FILE    batch JSONL: bookends, ts on every event, 3 jobs
  serve-telemetry FILE    daemon JSONL: bookends, a drain, 12 jobs
  corr FILE PREFIX        every corr id starts with PREFIX-; 12 correlated jobs

Exits non-zero with a message on the first failed assertion.
"""

import json
import sys
from collections import Counter, defaultdict


def jsonl(path):
    events = []
    with open(path) as f:
        for i, line in enumerate(f, 1):
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{i}: not JSON: {e}")
    return events


def sarif(path):
    log = json.load(open(path))
    assert log["version"] == "2.1.0", log["version"]
    run = log["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert rules, "empty rules table"
    print(f"{len(rules)} rules, {len(run['results'])} results")


def chrome_trace(path):
    events = json.load(open(path))["traceEvents"]
    assert events, "empty traceEvents"
    phases = Counter(e["ph"] for e in events)
    assert phases["B"] == phases["E"] > 0, phases
    stacks = defaultdict(list)
    for e in sorted(events, key=lambda e: e["ts"]):
        if e["ph"] == "B":
            stacks[e["tid"]].append(e["name"])
        elif e["ph"] == "E":
            top = stacks[e["tid"]].pop()
            assert top == e["name"], (top, e["name"])
    assert not any(stacks.values()), stacks
    assert any(e["name"] == "removal.run" for e in events)
    print(f"{len(events)} events, {phases['B']} spans, balanced")


def batch_telemetry(path):
    events = jsonl(path)
    names = [e["event"] for e in events]
    assert all("ts" in e for e in events), "an event is missing ts"
    assert names[0] == "batch_started", names
    assert names[-1] == "batch_finished", names
    assert names.count("job_finished") == 3, names
    print(f"{len(events)} telemetry events ok")


def serve_telemetry(path):
    events = jsonl(path)
    names = [e["event"] for e in events]
    assert names[0] == "server_started", names
    assert names[-1] == "server_stopped", names
    assert "drain_started" in names, names
    assert names.count("job_finished") == 12, names
    print(f"{len(events)} daemon telemetry events ok")


def corr(path, prefix):
    events = jsonl(path)
    ids = [e["corr"] for e in events if "corr" in e]
    assert ids, "no corr ids in telemetry"
    assert all(c.startswith(prefix + "-") for c in ids), ids[:5]
    finished = [e for e in events if e["event"] == "job_finished" and "corr" in e]
    assert len(finished) == 12, len(finished)
    print(f"{len(ids)} correlated telemetry events ok")


CHECKS = {
    "sarif": sarif,
    "chrome-trace": chrome_trace,
    "batch-telemetry": batch_telemetry,
    "serve-telemetry": serve_telemetry,
    "corr": corr,
}

if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in CHECKS:
        raise SystemExit(__doc__)
    CHECKS[sys.argv[1]](*sys.argv[2:])
