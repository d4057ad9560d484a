#!/usr/bin/env python3
"""Render and gate the instrument reports of a traced run.

Reads the JSON Lines event trace a `bench_* --trace-jsonl=F` run writes
and renders one section per instrument whose events the trace carries:

  audit   (--audit) one SLO row per audited run from its `audit_slo`
          event: sampling occasions, empirical (eps, p) coverage against
          the binomial floor, delta-compliance of the extrapolated
          (skipped-snapshot) answers, and the error-budget burn rate.
  diag    (--diag) the per-walk-batch MCMC mixing table (walks, steps,
          lag-1, ESS, R-hat, TV distance, chi-square, acceptance rate,
          breach flag) and the hot-peer table, from the four per-batch
          events walk_mixing / stationary_gap / peer_load /
          acceptance_rate (emitted together, in that order, once per
          batch, so rows are matched by index).
  health  (--health) the per-peer breaker table (suspects, opens,
          re-opens, closes, and the final state replayed from the
          transitions) and the partition-episode table, from
          peer_suspect / breaker_transition / partition_begin /
          partition_end.

`--gate SECTION` (repeatable) fails the run unless SECTION has events
and passes its gate:

  audit   every run meets coverage >= p - 2 * sqrt(p (1 - p) / occasions)
          (two binomial standard errors below the contracted confidence;
          runs with no truth-resolved occasion pass vacuously). The floor
          is recomputed here, and a run whose embedded coverage_floor,
          coverage_ok or coverage disagrees with the recomputed value
          fails as corrupt.
  diag    at most MAX_BREACH_FRAC of the batches breached the
          stationary-gap threshold: a tripwire for walks that stopped
          mixing.
  health  the flap rate (re-opens per breaker opening) is at most
          MAX_FLAP_RATE: breakers that keep bouncing between open and
          half-open are quarantining on noise.

Stdlib only. Exit status: 0 = sections rendered and every requested
gate passed; 1 = a gate failed, a gated section had no events, the
trace is malformed, or it carries no instrument events at all.
"""

import argparse
import math
import sys

from trace_schema import load_jsonl_events

MAX_BREACH_FRAC = 0.5
MAX_FLAP_RATE = 0.5

DIAG_EVENTS = ("walk_mixing", "stationary_gap", "peer_load",
               "acceptance_rate")
HEALTH_EVENTS = ("peer_suspect", "breaker_transition", "partition_begin",
                 "partition_end")


def format_table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    lines = ["  ".join(h.ljust(widths[c])
                       for c, h in enumerate(headers)).rstrip()]
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c])
                               for c, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def split_streams(events, names):
    """Splits `events` into one list per event name, in emission order."""
    streams = {name: [] for name in names}
    for e in events:
        if e["event"] in streams:
            streams[e["event"]].append(e)
    return streams


# Each section takes the trace's events and its path and returns
# (text, gate failures, gate-passed line), or None when the trace holds
# none of the section's events.

def coverage_floor(p, occasions):
    """The audit gate threshold: p minus two binomial standard errors."""
    if occasions == 0:
        return 0.0
    return p - 2.0 * math.sqrt(p * (1.0 - p) / occasions)


def gate_slo(slo):
    """Recomputes the coverage gate for one audit_slo event. Returns the
    list of problems: a breach, or a disagreement with the values the
    binary embedded."""
    problems = []
    occasions = slo["occasions"]
    floor = coverage_floor(slo["p"], occasions)
    passed = occasions == 0 or slo["coverage"] >= floor
    if abs(floor - slo["coverage_floor"]) > 1e-9:
        problems.append(
            f"embedded coverage_floor {slo['coverage_floor']:.6f} != "
            f"recomputed {floor:.6f}")
    if passed != slo["coverage_ok"]:
        problems.append(
            f"embedded coverage_ok {slo['coverage_ok']} != recomputed "
            f"{passed}")
    if occasions > 0:
        expected = slo["hits"] / occasions
        if abs(expected - slo["coverage"]) > 1e-9:
            problems.append(
                f"coverage {slo['coverage']:.6f} != hits/occasions "
                f"{expected:.6f}")
    if not passed:
        problems.append(
            f"coverage {slo['coverage']:.4f} below floor {floor:.4f} "
            f"(p={slo['p']}, occasions={occasions})")
    return [f"run '{slo['label']}': {problem}" for problem in problems]


def audit_section(events, path):
    slos = [e for e in events if e["event"] == "audit_slo"]
    if not slos:
        return None
    rows = []
    failures = []
    for slo in slos:
        rows.append([
            slo["label"] or "(unlabelled)",
            str(slo["occasions"]),
            f"{slo['coverage']:.4f}",
            f"{slo['coverage_floor']:.4f}",
            "yes" if slo["coverage_ok"] else "NO",
            f"{slo['delta_compliance']:.4f}",
            f"{slo['budget_burn']:.3f}",
        ])
        failures += gate_slo(slo)
    text = (f"== audit SLO ({len(slos)} run(s) in {path}) ==\n" +
            format_table(["run", "occ", "coverage", "floor", "ok",
                          "d-comp", "burn"], rows))
    return (text, failures,
            f"gate OK: all {len(slos)} run(s) meet "
            f"coverage >= p - 2*stderr")


def diag_section(events, path):
    streams = split_streams(events, DIAG_EVENTS)
    lengths = {name: len(s) for name, s in streams.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(
            f"{path}: diagnostic event streams disagree in length "
            f"({lengths}); trace is truncated or interleaved")
    batches = list(zip(*(streams[n] for n in DIAG_EVENTS)))
    if not batches:
        return None
    mixing_rows = []
    hot_rows = []
    for i, (mixing, gap, load, acc) in enumerate(batches):
        mixing_rows.append([
            str(i),
            str(mixing["walks"]),
            str(mixing["steps"]),
            f"{mixing['lag1_autocorr']:.3f}",
            f"{mixing['ess']:.1f}",
            f"{mixing['rhat']:.3f}" if mixing["rhat"] > 0 else "-",
            f"{gap['tv_distance']:.4f}",
            f"{gap['chi_square']:.1f}",
            f"{acc['rate']:.3f}",
            "BREACH" if gap["breach"] else "",
        ])
        if load["hot"]:
            mean = load["mean_load"]
            ratio = load["max_load"] / mean if mean > 0 else float("inf")
            hot_rows.append([
                str(i),
                str(load["peers"]),
                str(load["links"]),
                str(load["hot_peer"]),
                str(load["max_load"]),
                f"{mean:.2f}",
                f"{ratio:.2f}x",
            ])
    hot_table = (
        format_table(["batch", "peers", "links", "hot_peer", "max_load",
                      "mean_load", "ratio"], hot_rows)
        if hot_rows else
        "(no hot peers: every batch's max load stayed under the hot "
        "threshold)")
    breaches = sum(1 for _, gap, _, _ in batches if gap["breach"])
    proposals = sum(acc["proposals"] for _, _, _, acc in batches)
    accepted = sum(acc["accepted"] for _, _, _, acc in batches)
    rate = accepted / proposals if proposals > 0 else 0.0
    frac = breaches / len(batches)
    text = (
        f"== sampler diagnostics ({len(batches)} walk batch(es) in "
        f"{path}) ==\n" +
        format_table(["batch", "walks", "steps", "lag1", "ess", "rhat",
                      "tv", "chi2", "accept", "breach"], mixing_rows) +
        f"\n\n== hot peers ==\n{hot_table}\n\n"
        f"summary: {len(batches)} batches, "
        f"{breaches} stationary-gap breach(es) ({frac:.1%}), "
        f"{len(hot_rows)} hot batch(es), overall acceptance {rate:.3f} "
        f"({accepted}/{proposals})")
    failures = []
    if frac > MAX_BREACH_FRAC:
        failures.append(
            f"breach fraction {frac:.1%} exceeds {MAX_BREACH_FRAC:.1%} — "
            f"sampler is not mixing toward its stationary target")
    return (text, failures,
            f"gate OK: breach fraction {frac:.1%} within "
            f"{MAX_BREACH_FRAC:.1%}")


def per_peer(streams):
    """Folds the suspect/transition streams into one record per peer."""
    peers = {}

    def rec(peer):
        return peers.setdefault(peer, {
            "suspects": 0, "opens": 0, "reopens": 0, "closes": 0,
            "state": "closed", "max_phi": 0.0,
        })

    for e in streams["peer_suspect"]:
        r = rec(e["peer"])
        r["suspects"] += 1
        r["max_phi"] = max(r["max_phi"], e["phi"])
    for e in streams["breaker_transition"]:
        r = rec(e["peer"])
        r["max_phi"] = max(r["max_phi"], e["phi"])
        if e["to"] == "open":
            if e["from"] == "half_open":
                r["reopens"] += 1
            else:
                r["opens"] += 1
        elif e["to"] == "closed":
            r["closes"] += 1
        r["state"] = e["to"]
    return peers


def health_section(events, path):
    streams = split_streams(events, HEALTH_EVENTS)
    total = sum(len(s) for s in streams.values())
    if total == 0:
        return None
    peers = per_peer(streams)
    breaker_rows = []
    for peer in sorted(peers):
        r = peers[peer]
        breaker_rows.append([
            str(peer),
            str(r["suspects"]),
            str(r["opens"]),
            str(r["reopens"]),
            str(r["closes"]),
            f"{r['max_phi']:.2f}",
            r["state"] if r["state"] != "closed" else "",
        ])
    begun = {e["episode"]: e for e in streams["partition_begin"]}
    ended = {e["episode"] for e in streams["partition_end"]}
    partition_rows = []
    for episode in sorted(begun):
        e = begun[episode]
        partition_rows.append([
            str(episode),
            str(e["components"]),
            str(e["length"]),
            "yes" if episode in ended else "NO (still split at trace end)",
        ])
    breaker_table = (
        format_table(["peer", "suspects", "opens", "reopens", "closes",
                      "max_phi", "final"], breaker_rows)
        if breaker_rows else
        "(no peer ever crossed the suspect threshold)")
    partition_table = (
        format_table(["episode", "components", "length", "healed"],
                     partition_rows)
        if partition_rows else "(no partition episodes in this trace)")
    opens = sum(r["opens"] for r in peers.values())
    reopens = sum(r["reopens"] for r in peers.values())
    closes = sum(r["closes"] for r in peers.values())
    quarantined = sum(1 for r in peers.values() if r["state"] == "open")
    flap = reopens / (opens + reopens) if opens + reopens > 0 else 0.0
    text = (
        f"== peer health ({total} event(s) in {path}) ==\n"
        f"{breaker_table}\n\n== partition episodes ==\n{partition_table}"
        f"\n\nsummary: {len(peers)} peer(s) tracked, "
        f"{opens} open(s), {reopens} re-open(s), {closes} close(s), "
        f"flap rate {flap:.1%}, {quarantined} still quarantined, "
        f"{len(streams['partition_begin'])} partition episode(s)")
    failures = []
    if flap > MAX_FLAP_RATE:
        failures.append(
            f"flap rate {flap:.1%} exceeds {MAX_FLAP_RATE:.1%} — breakers "
            f"are bouncing between open and half-open instead of holding")
    return (text, failures,
            f"gate OK: flap rate {flap:.1%} within {MAX_FLAP_RATE:.1%}")


SECTIONS = {
    "audit": ({"audit_slo"}, audit_section),
    "diag": (set(DIAG_EVENTS), diag_section),
    "health": (set(HEALTH_EVENTS), health_section),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--jsonl", required=True,
                        help="JSON Lines trace of an instrumented run")
    parser.add_argument("--gate", action="append", default=[],
                        choices=sorted(SECTIONS),
                        help="exit 1 unless this section has events and "
                             "passes its gate (repeatable)")
    args = parser.parse_args(argv)

    try:
        wanted = set().union(*(names for names, _ in SECTIONS.values()))
        events = load_jsonl_events(args.jsonl, wanted)
        reports = {name: render(events, args.jsonl)
                   for name, (_, render) in SECTIONS.items()}
    except (OSError, ValueError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1

    failures = []
    rendered = 0
    for name, report in reports.items():
        gated = name in args.gate
        if report is None:
            if gated:
                failures.append(f"{name}: no {name} events in "
                                f"{args.jsonl} (was the run started with "
                                f"--{name}?)")
            continue
        text, section_failures, ok_line = report
        if rendered > 0:
            print()
        print(text)
        rendered += 1
        if gated:
            failures += [f"{name}: {f}" for f in section_failures]
            if not section_failures:
                print(f"\n{ok_line}")
    if rendered == 0 and not failures:
        print(f"FAIL: {args.jsonl}: no audit, diag or health events (was "
              f"the run started with --audit, --diag or --health?)",
              file=sys.stderr)
        return 1
    if failures:
        print(f"\nGATE FAIL ({len(failures)} problem(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
