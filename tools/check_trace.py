#!/usr/bin/env python3
"""Validate Digest observability exports.

Checks the three file formats the obs layer writes (see
docs/OBSERVABILITY.md):

  * --jsonl   : JSON Lines event trace (one object per line)
  * --chrome  : Chrome trace_event JSON (Perfetto-loadable)
  * --metrics : metrics registry dump (JSON)

All three formats may additionally carry the wall-clock profiling
sections a `--prof` run appends (trailing `prof_phase` JSONL lines, the
"wall-clock profiler" Chrome process, the metrics `prof` object); those
are validated too — schema plus monotonicity of the wall timestamps.

Stdlib only; exit status 0 iff every supplied file validates. Used by CI
on a traced bench run, and handy locally after `bench_* --trace=...`.
"""

import argparse
import json
import sys

from trace_schema import (EVENT_SCHEMA, LANE_EVENTS, NESTED_SLICE_EVENTS,
                          PROF_PHASES, PROF_STAT_FIELDS,
                          QUERY_LANE_EVENTS, TICK_SPAN_US,
                          WALL_PROCESS_NAME)


class Failure(Exception):
    pass


def check_prof_stats(where, stats):
    """Validates one phase's aggregate counters (shared by the JSONL
    prof_phase lines and the metrics `prof.phases` objects)."""
    for field in PROF_STAT_FIELDS:
        if field not in stats:
            raise Failure(f"{where}: missing '{field}'")
        v = stats[field]
        if not isinstance(v, int) or v < 0:
            raise Failure(f"{where}: '{field}' not a non-negative integer")
    if stats["min_ns"] > stats["max_ns"]:
        raise Failure(f"{where}: min_ns > max_ns")
    if stats["calls"] > 0 and stats["total_ns"] < stats["max_ns"]:
        raise Failure(f"{where}: total_ns < max_ns")


def check_jsonl(path):
    prev_seq = -1
    prev_t = None
    counts = {}
    prof_phases = set()
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                raise Failure(f"{path}:{line_no}: blank line")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise Failure(f"{path}:{line_no}: invalid JSON: {e}")
            if obj.get("event") == "prof_phase":
                # Wall-clock aggregates, appended after every sim event;
                # no seq/t stamps (they are not simulation events).
                if obj.keys() - PROF_STAT_FIELDS != {"event", "phase"}:
                    raise Failure(
                        f"{path}:{line_no}: prof_phase has unexpected "
                        f"fields "
                        f"{sorted(obj.keys() - PROF_STAT_FIELDS - {'event', 'phase'})}")
                if obj.get("phase") not in PROF_PHASES:
                    raise Failure(f"{path}:{line_no}: unknown prof phase "
                                  f"'{obj.get('phase')}'")
                if obj["phase"] in prof_phases:
                    raise Failure(f"{path}:{line_no}: duplicate prof_phase "
                                  f"'{obj['phase']}'")
                prof_phases.add(obj["phase"])
                check_prof_stats(f"{path}:{line_no}: prof_phase", obj)
                counts["prof_phase"] = counts.get("prof_phase", 0) + 1
                continue
            if prof_phases:
                raise Failure(
                    f"{path}:{line_no}: simulation event "
                    f"'{obj.get('event')}' after prof_phase lines "
                    f"(the prof section must trail the trace)")
            for field in ("seq", "t", "event"):
                if field not in obj:
                    raise Failure(f"{path}:{line_no}: missing '{field}'")
            name = obj["event"]
            if name not in EVENT_SCHEMA:
                raise Failure(f"{path}:{line_no}: unknown event '{name}'")
            missing = EVENT_SCHEMA[name] - obj.keys()
            if missing:
                raise Failure(
                    f"{path}:{line_no}: event '{name}' missing fields "
                    f"{sorted(missing)}")
            extra = obj.keys() - EVENT_SCHEMA[name] - {"seq", "t", "event"}
            if "lane" in extra and name in LANE_EVENTS:
                # Walk lane stamped by the walk executor.
                extra.discard("lane")
                lane = obj["lane"]
                if not isinstance(lane, int) or lane < 0:
                    raise Failure(
                        f"{path}:{line_no}: event '{name}' lane must be a "
                        f"non-negative walk index, got {lane!r}")
            elif "lane" in extra and name in QUERY_LANE_EVENTS:
                # Query lane stamped by a DigestNode's per-tenant
                # LaneTracer; QueryIds start at 1.
                extra.discard("lane")
                lane = obj["lane"]
                if not isinstance(lane, int) or lane < 1:
                    raise Failure(
                        f"{path}:{line_no}: event '{name}' lane must be a "
                        f"positive QueryId, got {lane!r}")
            if extra:
                raise Failure(
                    f"{path}:{line_no}: event '{name}' has unexpected "
                    f"fields {sorted(extra)}")
            if obj["seq"] != prev_seq + 1:
                raise Failure(
                    f"{path}:{line_no}: seq {obj['seq']} not contiguous "
                    f"after {prev_seq}")
            prev_seq = obj["seq"]
            if prev_t is not None and obj["t"] < prev_t and \
                    name != "run_begin":
                # Time restarts only at a new run's marker.
                raise Failure(
                    f"{path}:{line_no}: sim time went backwards "
                    f"({prev_t} -> {obj['t']}) without a run_begin")
            prev_t = obj["t"]
            counts[name] = counts.get(name, 0) + 1
    if prev_seq < 0:
        raise Failure(f"{path}: no events")
    if counts.get("tick", 0) == 0:
        raise Failure(f"{path}: trace has no tick events")
    return counts


def check_chrome(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise Failure(f"{path}: invalid JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise Failure(f"{path}: missing traceEvents (object format "
                      f"required)")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise Failure(f"{path}: traceEvents empty")

    # First pass: map pids to process names so the wall-clock profiler
    # track can be told apart from the simulated-run tracks.
    wall_pids = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            raise Failure(f"{path}: traceEvents[{i}] malformed")
        if ev["ph"] == "M" and \
                ev.get("args", {}).get("name") == WALL_PROCESS_NAME:
            wall_pids.add(ev["pid"])

    tick_spans = {}  # pid -> set of span start ts
    named_pids = set()
    nested = []
    prev_wall_ts = {}  # wall pid -> last span start ts
    stats = {"ticks": 0, "nested": 0, "instants": 0, "processes": 0,
             "wall_spans": 0}
    for i, ev in enumerate(events):
        ph = ev["ph"]
        if ph == "M":
            if ev.get("name") != "process_name":
                raise Failure(f"{path}: traceEvents[{i}] unexpected "
                              f"metadata '{ev.get('name')}'")
            if not ev.get("args", {}).get("name"):
                raise Failure(f"{path}: traceEvents[{i}] process_name "
                              f"metadata without a name")
            named_pids.add(ev["pid"])
            stats["processes"] += 1
            continue
        if ev.get("pid") in wall_pids:
            # The wall track: real-time complete spans, sorted by start,
            # phase names from the prof layer, cat "wall".
            for field in ("name", "ts", "dur", "args"):
                if field not in ev:
                    raise Failure(
                        f"{path}: traceEvents[{i}] wall span missing "
                        f"'{field}'")
            if ph != "X" or ev.get("cat") != "wall":
                raise Failure(f"{path}: traceEvents[{i}] wall-track event "
                              f"must be a ph=X cat=wall span")
            if ev["name"] not in PROF_PHASES:
                raise Failure(f"{path}: traceEvents[{i}] unknown wall "
                              f"phase '{ev['name']}'")
            if ev["ts"] < prev_wall_ts.get(ev["pid"], 0):
                raise Failure(
                    f"{path}: traceEvents[{i}] wall timestamps not "
                    f"monotone ({prev_wall_ts[ev['pid']]} -> {ev['ts']})")
            prev_wall_ts[ev["pid"]] = ev["ts"]
            if ev["dur"] < 0 or "dur_ns" not in ev["args"] or \
                    "items" not in ev["args"]:
                raise Failure(f"{path}: traceEvents[{i}] wall span args "
                              f"lack dur_ns/items")
            stats["wall_spans"] += 1
            continue
        for field in ("name", "pid", "tid", "ts", "args"):
            if field not in ev:
                raise Failure(
                    f"{path}: traceEvents[{i}] missing '{field}'")
        if ev["name"] not in EVENT_SCHEMA or ev["name"] == "run_begin":
            raise Failure(f"{path}: traceEvents[{i}] unknown event "
                          f"'{ev['name']}'")
        if "seq" not in ev["args"]:
            raise Failure(f"{path}: traceEvents[{i}] args lack seq")
        if "lane" in ev["args"]:
            lane = ev["args"]["lane"]
            if ev["name"] in LANE_EVENTS:
                if not isinstance(lane, int) or lane < 0:
                    raise Failure(f"{path}: traceEvents[{i}] lane must be "
                                  f"a non-negative walk index, got "
                                  f"{lane!r}")
            elif ev["name"] in QUERY_LANE_EVENTS:
                if not isinstance(lane, int) or lane < 1:
                    raise Failure(f"{path}: traceEvents[{i}] lane must be "
                                  f"a positive QueryId, got {lane!r}")
            else:
                raise Failure(f"{path}: traceEvents[{i}] '{ev['name']}' "
                              f"must not carry a lane")
        if ph == "X" and ev["name"] == "tick":
            if ev.get("dur") != TICK_SPAN_US:
                raise Failure(f"{path}: traceEvents[{i}] tick span "
                              f"dur={ev.get('dur')} != {TICK_SPAN_US}")
            if ev["ts"] % TICK_SPAN_US != 0:
                raise Failure(f"{path}: traceEvents[{i}] tick span ts "
                              f"{ev['ts']} not tick-aligned")
            tick_spans.setdefault(ev["pid"], set()).add(ev["ts"])
            stats["ticks"] += 1
        elif ph == "X":
            if ev["name"] not in NESTED_SLICE_EVENTS:
                raise Failure(f"{path}: traceEvents[{i}] span event "
                              f"'{ev['name']}' should be an instant")
            nested.append((i, ev))
            stats["nested"] += 1
        elif ph == "i":
            stats["instants"] += 1
        else:
            raise Failure(f"{path}: traceEvents[{i}] unexpected phase "
                          f"'{ph}'")

    for i, ev in nested:
        start = (ev["ts"] // TICK_SPAN_US) * TICK_SPAN_US
        end = ev["ts"] + ev.get("dur", 0)
        if ev["ts"] == start or end > start + TICK_SPAN_US:
            raise Failure(
                f"{path}: traceEvents[{i}] '{ev['name']}' slice "
                f"[{ev['ts']}, {end}) not strictly inside its tick span "
                f"[{start}, {start + TICK_SPAN_US})")
        if ev["pid"] in tick_spans and start not in tick_spans[ev["pid"]]:
            raise Failure(
                f"{path}: traceEvents[{i}] '{ev['name']}' at ts="
                f"{ev['ts']} has no owning tick span in pid {ev['pid']}")
    if stats["ticks"] == 0:
        raise Failure(f"{path}: no tick spans")
    return stats


def check_metrics(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise Failure(f"{path}: invalid JSON: {e}")
    for section in ("counters", "gauges", "histograms"):
        if section not in doc:
            raise Failure(f"{path}: missing '{section}' section")
        if not isinstance(doc[section], dict):
            raise Failure(f"{path}: '{section}' is not an object")
    for key, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            raise Failure(f"{path}: counter '{key}' not a non-negative "
                          f"integer")
    for key, hist in doc["histograms"].items():
        for field in ("count", "sum", "bounds", "counts"):
            if field not in hist:
                raise Failure(
                    f"{path}: histogram '{key}' missing '{field}'")
        if len(hist["counts"]) != len(hist["bounds"]) + 1:
            raise Failure(
                f"{path}: histogram '{key}' needs len(bounds)+1 counts "
                f"(overflow bucket)")
        if sum(hist["counts"]) != hist["count"]:
            raise Failure(
                f"{path}: histogram '{key}' bucket counts do not sum to "
                f"count")
    if not doc["counters"] and not doc["gauges"] and not doc["histograms"]:
        raise Failure(f"{path}: registry is empty")
    sizes = {s: len(doc[s]) for s in ("counters", "gauges", "histograms")}
    sizes["prof_phases"] = 0
    if "prof" in doc:
        prof = doc["prof"]
        for field in ("phases", "spans_captured", "spans_dropped"):
            if field not in prof:
                raise Failure(f"{path}: prof section missing '{field}'")
        for field in ("spans_captured", "spans_dropped"):
            if not isinstance(prof[field], int) or prof[field] < 0:
                raise Failure(f"{path}: prof '{field}' not a non-negative "
                              f"integer")
        if not isinstance(prof["phases"], dict):
            raise Failure(f"{path}: prof 'phases' is not an object")
        for phase, stats in prof["phases"].items():
            if phase not in PROF_PHASES:
                raise Failure(f"{path}: unknown prof phase '{phase}'")
            check_prof_stats(f"{path}: prof phase '{phase}'", stats)
        sizes["prof_phases"] = len(prof["phases"])
    return sizes


def check_bench_prof(path):
    """Validates the `prof` object of a BENCH_*.json, including the
    optional per-worker `tracks` section the walk executor folds in:
    worker ids dense and ascending, every track's phase stats
    well-formed, and no track claiming more deterministic work (calls,
    items) than the main aggregate it was folded into."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise Failure(f"{path}: invalid JSON: {e}")
    if "prof" not in doc:
        raise Failure(f"{path}: no 'prof' section")
    prof = doc["prof"]
    for field in ("phases", "spans_captured", "spans_dropped"):
        if field not in prof:
            raise Failure(f"{path}: prof section missing '{field}'")
    for phase, stats in prof["phases"].items():
        if phase not in PROF_PHASES:
            raise Failure(f"{path}: unknown prof phase '{phase}'")
        check_prof_stats(f"{path}: prof phase '{phase}'", stats)
    tracks = prof.get("tracks", [])
    if not isinstance(tracks, list):
        raise Failure(f"{path}: prof 'tracks' is not an array")
    for i, track in enumerate(tracks):
        where = f"{path}: prof track [{i}]"
        for field in ("worker", "phases"):
            if field not in track:
                raise Failure(f"{where}: missing '{field}'")
        if track["worker"] != i:
            raise Failure(f"{where}: worker id {track['worker']} != {i} "
                          f"(tracks must be dense and ascending)")
        for phase, stats in track["phases"].items():
            if phase not in PROF_PHASES:
                raise Failure(f"{where}: unknown prof phase '{phase}'")
            check_prof_stats(f"{where}: phase '{phase}'", stats)
    # Per-worker deterministic work never exceeds the folded aggregate.
    for counter in ("calls", "items"):
        per_phase = {}
        for track in tracks:
            for phase, stats in track["phases"].items():
                per_phase[phase] = per_phase.get(phase, 0) + stats[counter]
        for phase, total in per_phase.items():
            main = prof["phases"].get(phase, {}).get(counter, 0)
            if total > main:
                raise Failure(
                    f"{path}: prof tracks claim {total} {counter} for "
                    f"'{phase}' but the main aggregate has only {main}")
    return {"phases": len(prof["phases"]), "tracks": len(tracks)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jsonl", help="JSON Lines event trace")
    parser.add_argument("--chrome", help="Chrome trace_event JSON")
    parser.add_argument("--metrics", help="metrics registry JSON")
    parser.add_argument("--bench-prof",
                        help="BENCH_*.json whose prof section (and "
                             "per-worker tracks) to validate")
    args = parser.parse_args()
    if not (args.jsonl or args.chrome or args.metrics or args.bench_prof):
        parser.error("supply at least one of "
                     "--jsonl/--chrome/--metrics/--bench-prof")
    try:
        if args.jsonl:
            counts = check_jsonl(args.jsonl)
            total = sum(counts.values())
            print(f"OK {args.jsonl}: {total} events "
                  f"({counts.get('tick', 0)} ticks, "
                  f"{counts.get('walk_batch', 0)} walk batches, "
                  f"{counts.get('prof_phase', 0)} prof phases, "
                  f"{len(counts)} distinct types)")
        if args.chrome:
            stats = check_chrome(args.chrome)
            print(f"OK {args.chrome}: {stats['processes']} processes, "
                  f"{stats['ticks']} tick spans, {stats['nested']} nested "
                  f"slices, {stats['instants']} instants, "
                  f"{stats['wall_spans']} wall spans")
        if args.metrics:
            sizes = check_metrics(args.metrics)
            print(f"OK {args.metrics}: {sizes['counters']} counters, "
                  f"{sizes['gauges']} gauges, {sizes['histograms']} "
                  f"histograms, {sizes['prof_phases']} prof phases")
        if args.bench_prof:
            sizes = check_bench_prof(args.bench_prof)
            print(f"OK {args.bench_prof}: {sizes['phases']} prof phases, "
                  f"{sizes['tracks']} worker tracks")
    except Failure as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
