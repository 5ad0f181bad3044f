#!/usr/bin/env python3
"""Schema checks for the observability artifacts a traced bench run emits.

Usage:
    check_trace.py --metrics <metrics.json>   # MetricsRegistry::ToJson()
    check_trace.py --chrome <trace.json>      # tools/trace_export output
    (both flags may be given in one invocation)

Exit code 0 = all checks pass; any failure prints a reason and exits 1.
CI runs this against the traced pipeline_throughput step.
"""

import argparse
import json
import sys

# Per-stage latency histograms the pipeline must register (ISSUE 5).
REQUIRED_HISTOGRAMS = [
    "pipeline.append_to_durable_us",
    "pipeline.durable_to_decision_us",
    "pipeline.handoff_push_blocked_us",
    "pipeline.handoff_pop_blocked_us",
]
HISTOGRAM_FIELDS = ["count", "mean", "min", "p50", "p90", "p99", "p999",
                    "max"]

# Subsystem counter prefixes expected from a pipeline_throughput run
# ("resolver." carries its replay resolvers' registry counters).
REQUIRED_METRIC_PREFIXES = ["pipeline.", "log.", "arena.", "resolver."]

# Tracks a traced pipeline run must produce (tools/trace_export names
# sub-tracks "<stage>.tN" when a stage records on several threads).
REQUIRED_STAGES = ["decode", "final_meld", "publish"]

# Stable abort-cause names an `abort` instant's args.cause may carry
# (common/abort_info.h AbortCauseName; "none" never appears on an abort).
ABORT_CAUSES = {
    "write_write", "read_write", "phantom", "graft", "group_fate_sharing",
    "premeld_kill", "busy",
}


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc.get("metrics"), dict):
        fail(f"{path}: missing 'metrics' object")
    if not isinstance(doc.get("histograms"), dict):
        fail(f"{path}: missing 'histograms' object")
    for name, value in doc["metrics"].items():
        if not isinstance(value, (int, float)):
            fail(f"{path}: metric {name!r} is not a number")
    for prefix in REQUIRED_METRIC_PREFIXES:
        if not any(k.startswith(prefix) for k in doc["metrics"]):
            fail(f"{path}: no metric under the {prefix!r} prefix")
    for name in REQUIRED_HISTOGRAMS:
        hist = doc["histograms"].get(name)
        if hist is None:
            fail(f"{path}: histogram {name!r} missing")
        for field in HISTOGRAM_FIELDS:
            if not isinstance(hist.get(field), (int, float)):
                fail(f"{path}: histogram {name!r} missing field {field!r}")
    hot = doc["histograms"]["pipeline.durable_to_decision_us"]
    if hot["count"] <= 0:
        fail(f"{path}: durable_to_decision_us recorded no samples")
    print(f"check_trace: {path}: {len(doc['metrics'])} metrics, "
          f"{len(doc['histograms'])} histograms OK")


def check_chrome(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing or empty 'traceEvents' array")
    tracks = set()
    begins = ends = aborts = 0
    for ev in events:
        for field in ("ph", "pid", "tid"):
            if field not in ev:
                fail(f"{path}: event missing {field!r}: {ev}")
        if ev["ph"] == "M":
            if ev.get("name") == "thread_name":
                tracks.add(ev["args"]["name"])
            continue
        if "ts" not in ev or "name" not in ev:
            fail(f"{path}: event missing ts/name: {ev}")
        if ev["name"] == "abort":
            # Abort instants carry their typed cause: args.cause must be a
            # known AbortCauseName and the phase must be an instant.
            aborts += 1
            if ev["ph"] != "i":
                fail(f"{path}: abort event with phase {ev['ph']!r}")
            cause = ev.get("args", {}).get("cause")
            if cause not in ABORT_CAUSES:
                fail(f"{path}: abort instant with bad cause {cause!r}: {ev}")
        if ev["ph"] == "B":
            begins += 1
        elif ev["ph"] == "E":
            ends += 1
        elif ev["ph"] != "i":
            fail(f"{path}: unexpected phase {ev['ph']!r}")
    if begins != ends:
        fail(f"{path}: unbalanced spans ({begins} B vs {ends} E)")
    for stage in REQUIRED_STAGES:
        if not any(t == stage or t.startswith(stage + ".t") for t in tracks):
            fail(f"{path}: no track for stage {stage!r} (tracks: "
                 f"{sorted(tracks)})")
    print(f"check_trace: {path}: {len(events)} events on "
          f"{len(tracks)} tracks ({aborts} abort instants) OK")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--metrics", help="MetricsRegistry JSON snapshot")
    parser.add_argument("--chrome", help="Chrome trace JSON (trace_export)")
    args = parser.parse_args()
    if not args.metrics and not args.chrome:
        parser.error("give --metrics and/or --chrome")
    if args.metrics:
        check_metrics(args.metrics)
    if args.chrome:
        check_chrome(args.chrome)


if __name__ == "__main__":
    main()
