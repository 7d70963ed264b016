#!/usr/bin/env python3
"""Analyze HerQules telemetry dumps and structured event logs.

Five modes:

  report FILE...
      Human-readable verification-lag / latency report for one or more
      `--telemetry-out` JSON dumps (and `--event-log` JSONL files, whose
      records are tallied by type).

  ring RAW.json... [-o BENCH_ring.json] [--min-speedup X]
      Post-process `ring_throughput --json=RAW.json` results, one per
      repetition (each runs v1 then v2): compute each repetition's
      v2/v1 verified-pipeline speedup and write BENCH_ring.json (schema
      hq-ring-bench-summary/2). Exits non-zero when a raw run failed or
      the median speedup falls below --min-speedup (default 0 = no
      gate; CI passes 1.5). A gate needs at least 5 repetitions.

  latency RAW.json... [-o BENCH_latency.json] [--min-p99-speedup X]
      Post-process `nginx_sim --latency-sweep=RAW.json` results, one per
      repetition (each runs strict then the other modes): compute each
      repetition's strict/mode p99 syscall-pause speedups and write
      BENCH_latency.json (schema hq-latency-bench-summary/2). Exits
      non-zero when a raw sweep failed or the median spec speedup falls
      below --min-p99-speedup (default 0 = no gate; CI passes 1.2 on
      the default job). A gate needs at least 5 repetitions.

  schema FILE...
      Strict JSONL validation for event logs and flight-recorder dumps.
      Event records must use the fixed 11-key order and a known type;
      flight dumps must interleave `flight_header` lines with exactly
      the number of `flight_record` lines each header declares. Exits
      non-zero on the first malformed line (CI chaos gate).

  summary DIR [-o OUT.json]
      Scan DIR for `*.telemetry.json` and `*.events.jsonl` and write one
      machine-readable summary (default BENCH_summary.json in DIR):

      {
        "schema": "hq-bench-summary/1",
        "benches": {
          "<name>": {
            "messages": N, "violations": N,
            "lag_ns": {"count": N, "p50": x, "p90": x, "p99": x,
                        "mean": x, "max": x},
            "msg_latency_ns": {...},
            "lag_slo_breaches": N, "lag_stamp_dropped": N,
            "events": {"violation": N, "seq_gap": N, ...}
          }
        }
      }

Only the standard library is used.
"""

import argparse
import json
import os
import sys


LAG_HIST = "verifier.lag_ns"
LATENCY_HIST = "verifier.msg_latency_ns"
HIST_FIELDS = ("count", "mean", "min", "max", "p50", "p90", "p99")


def load_dump(path):
    with open(path) as fh:
        return json.load(fh)


def load_events(path):
    """Parse a JSONL event log into a list of dicts (bad lines fatal)."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                sys.exit(f"{path}:{lineno}: bad JSONL record: {exc}")
    return records


def hist_summary(dump, name):
    hist = dump.get("metrics", {}).get("histograms", {}).get(name)
    if not hist or not hist.get("count"):
        return None
    return {field: hist[field] for field in HIST_FIELDS if field in hist}


def counter(dump, name):
    return dump.get("metrics", {}).get("counters", {}).get(name, 0)


def event_tally(records):
    tally = {}
    for record in records:
        kind = record.get("type", "unknown")
        tally[kind] = tally.get(kind, 0) + 1
    return tally


def fmt_ns(value):
    if value < 1e3:
        return f"{value:.0f}ns"
    if value < 1e6:
        return f"{value / 1e3:.1f}us"
    if value < 1e9:
        return f"{value / 1e6:.2f}ms"
    return f"{value / 1e9:.2f}s"


def cmd_report(args):
    for path in args.files:
        if path.endswith(".jsonl"):
            records = load_events(path)
            print(f"{path}: {len(records)} events")
            for kind, count in sorted(event_tally(records).items()):
                print(f"  {kind:16s} {count}")
            lags = [r["lag_ns"] for r in records if r.get("lag_ns")]
            if lags:
                lags.sort()
                print(f"  event lag: median {fmt_ns(lags[len(lags) // 2])}"
                      f"  max {fmt_ns(lags[-1])}")
            continue

        dump = load_dump(path)
        print(f"{path}:")
        for name in (LAG_HIST, LATENCY_HIST, "kernel.syscall_pause_ns"):
            summary = hist_summary(dump, name)
            if summary is None:
                continue
            print(f"  {name:28s} n={summary['count']:<10}"
                  f" p50 {fmt_ns(summary['p50'])}"
                  f"  p90 {fmt_ns(summary['p90'])}"
                  f"  p99 {fmt_ns(summary['p99'])}"
                  f"  max {fmt_ns(summary['max'])}")
        # Per-pid lag rows, if any.
        hists = dump.get("metrics", {}).get("histograms", {})
        for name in sorted(hists):
            if name.startswith(LAG_HIST + ".pid_"):
                summary = hist_summary(dump, name)
                print(f"  {name:28s} n={summary['count']:<10}"
                      f" p50 {fmt_ns(summary['p50'])}"
                      f"  p99 {fmt_ns(summary['p99'])}")
        breaches = counter(dump, "verifier.lag_slo_breaches")
        drops = counter(dump, "ipc.lag_stamp_dropped")
        print(f"  slo breaches {breaches}, stamp drops {drops}")
    return 0


# A wall-clock gate reads one ratio per repetition and gates on their
# median: a single short run reads scheduler noise (one ring smoke run
# takes about 0.01 s), so a gate needs at least this many repetitions.
MIN_GATE_REPS = 5


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def median_ratio(ratios):
    """Median of per-repetition ratios; a missing one (a failed leg)
    counts as 0."""
    return median([r or 0.0 for r in ratios])


def gate_median(ratios, floor, what):
    """Exit non-zero unless the median of `ratios` reaches `floor`."""
    if not floor:
        return
    if len(ratios) < MIN_GATE_REPS:
        sys.exit(f"{what} gate needs >= {MIN_GATE_REPS} repetitions, "
                 f"got {len(ratios)}")
    value = median_ratio(ratios)
    if value < floor:
        sys.exit(f"{what} median {value} below gate {floor}")


def load_raws(paths, schema):
    raws = []
    for path in paths:
        raw = load_dump(path)
        if raw.get("schema") != schema:
            sys.exit(f"{path}: not an {schema} result")
        raws.append(raw)
    return raws


def cmd_ring(args):
    raws = load_raws(args.raw, "hq-ring-bench/1")
    reps = []
    for raw in raws:
        pipeline = raw.get("verified_pipeline", {})
        v1 = pipeline.get("v1", {}).get("mmsg_per_sec")
        v2 = pipeline.get("v2", {}).get("mmsg_per_sec")
        reps.append({"v1_mmsg_per_sec": v1, "v2_mmsg_per_sec": v2,
                     "v2_over_v1_speedup": (v2 / v1) if v1 and v2
                     else None})
    speedups = [rep["v2_over_v1_speedup"] for rep in reps]
    speedup = median_ratio(speedups)

    out = args.output or os.path.join(
        os.path.dirname(os.path.abspath(args.raw[0])), "BENCH_ring.json")
    summary = {
        "schema": "hq-ring-bench-summary/2",
        "capacity": raws[0].get("capacity"),
        "pipeline_messages": raws[0].get("pipeline_messages"),
        "crc_backend": raws[0].get("crc_backend"),
        "repetitions": reps,
        "v2_over_v1_speedup_median": speedup,
        "raw_ok": all(raw.get("ok") for raw in raws),
    }
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}: v2/v1 speedup median {round(speedup, 3)} over "
          f"{len(reps)} runs "
          f"({', '.join(str(x and round(x, 2)) for x in speedups)})")

    if not summary["raw_ok"]:
        sys.exit("ring bench reported a verification failure")
    gate_median(speedups, args.min_speedup, "v2/v1 speedup")
    return 0


def cmd_latency(args):
    raws = load_raws(args.raw, "hq-latency-bench/1")
    reps = []
    for raw in raws:
        modes = raw.get("modes", {})
        strict_p99 = modes.get("strict", {}).get("p99_ns")

        def speedup(mode):
            p99 = modes.get(mode, {}).get("p99_ns")
            if not strict_p99 or not p99:
                return None
            return strict_p99 / p99

        reps.append({
            "strict_p50_ns": modes.get("strict", {}).get("p50_ns"),
            "strict_p99_ns": strict_p99,
            "modes": {
                mode: {
                    "p50_ns": stats.get("p50_ns"),
                    "p99_ns": stats.get("p99_ns"),
                    "pause_samples": stats.get("pause_samples"),
                    "spec_syscalls": stats.get("spec_syscalls"),
                    "max_spec_depth": stats.get("max_spec_depth"),
                    "p99_speedup_vs_strict": speedup(mode),
                }
                for mode, stats in sorted(modes.items())
            },
        })
    spec = [rep["modes"].get("spec", {}).get("p99_speedup_vs_strict")
            for rep in reps]
    spec_median = median_ratio(spec)

    out = args.output or os.path.join(
        os.path.dirname(os.path.abspath(args.raw[0])), "BENCH_latency.json")
    summary = {
        "schema": "hq-latency-bench-summary/2",
        "scale": raws[0].get("scale"),
        "num_shards": raws[0].get("num_shards"),
        "spec_window": raws[0].get("spec_window"),
        "repetitions": reps,
        "spec_p99_speedup_median": spec_median,
        "raw_ok": all(raw.get("ok") for raw in raws),
    }
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    strict = [rep["strict_p99_ns"] for rep in reps]
    print(f"wrote {out}: spec p99 speedup median {round(spec_median, 3)}x "
          f"over {len(reps)} runs "
          f"({', '.join(str(x and round(x, 2)) for x in spec)}); strict "
          f"p99 {', '.join(x and fmt_ns(x) or '-' for x in strict)}")

    if not summary["raw_ok"]:
        sys.exit("latency sweep reported a failed run")
    gate_median(spec, args.min_p99_speedup, "spec p99 speedup")
    return 0


# JSONL schemas, keyed by record type. Event records share one fixed
# key order (telemetry/event_log.cc); flight lines have their own
# (telemetry/flight_recorder.cc, shared by the signal-safe path).
# EVENT_KINDS holds the name of every row of HQ_TELEMETRY_EVENTS
# (src/telemetry/events.h) whose log column is true; the
# EventLog.EveryLoggedKindPassesTheAnalyzerSchema test fails when a
# logged kind is missing here.
EVENT_KEYS = ["type", "ts_wall_ms", "ts_ns", "pid", "shard", "policy",
              "op", "arg0", "arg1", "seq", "lag_ns", "reason"]
EVENT_KINDS = {"violation", "seq_gap", "epoch_timeout", "ring_drop",
               "corrupt_msg", "verifier_restart", "silent_accept",
               "health_change", "flight_dump", "spec_kill"}
FLIGHT_HEADER_KEYS = ["type", "trigger", "ts_wall_ms", "pid", "records"]
FLIGHT_RECORD_KEYS = ["type", "ts_ns", "thread", "seq", "subsystem",
                      "code", "pid", "shard", "arg0", "arg1"]


def cmd_schema(args):
    events = 0
    flight_records = 0
    flight_headers = 0
    for path in args.files:
        declared = 0   # records the last flight_header promised
        seen = 0       # flight_record lines seen since that header
        for lineno, line in enumerate(open(path), 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                sys.exit(f"{where}: bad JSONL: {exc}")
            kind = record.get("type")
            if kind == "flight_header":
                if seen != declared:
                    sys.exit(f"{where}: previous flight_header declared "
                             f"{declared} records, found {seen}")
                if list(record) != FLIGHT_HEADER_KEYS:
                    sys.exit(f"{where}: flight_header keys {list(record)}")
                declared, seen = record["records"], 0
                flight_headers += 1
            elif kind == "flight_record":
                if list(record) != FLIGHT_RECORD_KEYS:
                    sys.exit(f"{where}: flight_record keys {list(record)}")
                seen += 1
                flight_records += 1
            elif kind in EVENT_KINDS:
                if list(record) != EVENT_KEYS:
                    sys.exit(f"{where}: event key order {list(record)}")
                events += 1
            else:
                sys.exit(f"{where}: unknown record type {kind!r}")
        if seen != declared:
            sys.exit(f"{path}: final flight_header declared {declared} "
                     f"records, found {seen}")
    print(f"schema ok: {events} event records, {flight_headers} flight "
          f"dumps ({flight_records} flight records) across "
          f"{len(args.files)} file(s)")
    return 0


def cmd_summary(args):
    benches = {}
    for entry in sorted(os.listdir(args.dir)):
        path = os.path.join(args.dir, entry)
        if entry.endswith(".telemetry.json"):
            name = entry[: -len(".telemetry.json")]
            dump = load_dump(path)
            bench = benches.setdefault(name, {})
            bench["messages"] = counter(dump, "verifier.messages")
            bench["violations"] = counter(dump, "verifier.violations")
            bench["lag_slo_breaches"] = counter(
                dump, "verifier.lag_slo_breaches")
            bench["lag_stamp_dropped"] = counter(
                dump, "ipc.lag_stamp_dropped")
            for key, hist in ((("lag_ns"), LAG_HIST),
                              (("msg_latency_ns"), LATENCY_HIST)):
                summary = hist_summary(dump, hist)
                if summary is not None:
                    bench[key] = summary
        elif entry.endswith(".events.jsonl"):
            name = entry[: -len(".events.jsonl")]
            benches.setdefault(name, {})["events"] = event_tally(
                load_events(path))

    summary = {"schema": "hq-bench-summary/1", "benches": benches}
    out = args.output or os.path.join(args.dir, "BENCH_summary.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(benches)} benches)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    report = sub.add_parser("report", help="human-readable lag report")
    report.add_argument("files", nargs="+",
                        help="telemetry .json dumps / .jsonl event logs")
    report.set_defaults(func=cmd_report)

    ring = sub.add_parser("ring",
                          help="summarize a ring_throughput --json run")
    ring.add_argument("raw", nargs="+",
                      help="raw hq-ring-bench/1 JSON results, one per "
                           "repetition")
    ring.add_argument("-o", "--output", default=None)
    ring.add_argument("--min-speedup", type=float, default=0.0,
                      help="fail when the median v2/v1 speedup over "
                           f">= {MIN_GATE_REPS} repetitions is below this")
    ring.set_defaults(func=cmd_ring)

    latency = sub.add_parser(
        "latency", help="summarize an nginx_sim --latency-sweep run")
    latency.add_argument("raw", nargs="+",
                         help="raw hq-latency-bench/1 JSON results, one "
                              "per repetition")
    latency.add_argument("-o", "--output", default=None)
    latency.add_argument("--min-p99-speedup", type=float, default=0.0,
                         help="fail when the median spec p99 speedup vs "
                              f"strict over >= {MIN_GATE_REPS} "
                              "repetitions is below this")
    latency.set_defaults(func=cmd_latency)

    schema = sub.add_parser("schema",
                            help="strict JSONL schema validation")
    schema.add_argument("files", nargs="+",
                        help=".events.jsonl / .flight.jsonl streams")
    schema.set_defaults(func=cmd_schema)

    summary = sub.add_parser("summary",
                             help="write machine-readable BENCH_summary")
    summary.add_argument("dir", help="directory of *.telemetry.json")
    summary.add_argument("-o", "--output", default=None)
    summary.set_defaults(func=cmd_summary)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
