#!/usr/bin/env python3
"""Tests for run_report.py over small synthetic JSONL traces.

Stdlib only: `python3 tools/test_run_report.py` (also registered in
ctest as RunReportTest).
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import run_report


def slo(hits, occasions=12, p=0.75, **overrides):
    """An audit_slo event. p = 0.75 over 12 occasions puts the floor at
    exactly 0.5 (0.75 - 2 * sqrt(0.1875 / 12) = 0.75 - 0.25)."""
    floor = run_report.coverage_floor(p, occasions)
    coverage = hits / occasions if occasions > 0 else 0.0
    event = {"event": "audit_slo", "label": "run", "p": p, "epsilon": 1.0,
             "delta": 1.0, "occasions": occasions, "hits": hits,
             "misses": occasions - hits, "coverage": coverage,
             "coverage_floor": floor, "coverage_ok": coverage >= floor,
             "delta_ticks": 0, "delta_misses": 0, "delta_compliance": 1.0,
             "budget_burn": 1.0, "budget_remaining": 0.0}
    event.update(overrides)
    return event


def batch(breach):
    """The four per-batch diagnostic events of one walk batch."""
    return [
        {"event": "walk_mixing", "walks": 4, "steps": 40,
         "lag1_autocorr": 0.1, "ess": 30.0, "rhat": 1.01},
        {"event": "stationary_gap", "tv_distance": 0.3 if breach else 0.1,
         "chi_square": 12.0, "live_peers": 10, "visits": 40,
         "dropped_dead_visits": 0, "breach": breach},
        {"event": "peer_load", "peers": 10, "links": 20, "hot_peer": 3,
         "max_load": 9, "mean_load": 4.0, "hot": False},
        {"event": "acceptance_rate", "proposals": 50, "accepted": 40,
         "rate": 0.8},
    ]


def breaker(peer, frm, to):
    return {"event": "breaker_transition", "peer": peer, "from": frm,
            "to": to, "phi": 3.0}


def flaps(opens, reopens):
    """One peer that opens `opens` times from closed, then re-opens
    `reopens` times from half-open: flap rate reopens / (opens+reopens)."""
    events = []
    for _ in range(opens):
        events += [breaker(7, "closed", "open"),
                   breaker(7, "open", "half_open"),
                   breaker(7, "half_open", "closed")]
    return events + [breaker(7, "half_open", "open")] * reopens


class RunReportTest(unittest.TestCase):

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def run_report(self, events, *gates, raw=None):
        """Writes `events` (or `raw` text) as a JSONL trace, runs the
        report with `gates`, and returns (exit code, stdout, stderr)."""
        path = os.path.join(self.dir.name, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            if raw is not None:
                f.write(raw)
            for seq, event in enumerate(events):
                f.write(json.dumps({"seq": seq, "t": 0, **event}) + "\n")
        argv = ["--jsonl", path]
        for gate in gates:
            argv += ["--gate", gate]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_report.main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_audit_gate_passes_at_floor(self):
        code, out, _ = self.run_report([slo(hits=6)], "audit")
        self.assertEqual(code, 0)
        self.assertIn("0.5000    0.5000", out)
        self.assertIn("gate OK: all 1 run(s) meet", out)

    def test_audit_gate_fails_below_floor(self):
        code, _, err = self.run_report([slo(hits=5)], "audit")
        self.assertEqual(code, 1)
        self.assertIn("coverage 0.4167 below floor 0.5000", err)

    def test_audit_vacuous_run_passes(self):
        code, _, _ = self.run_report([slo(hits=0, occasions=0)], "audit")
        self.assertEqual(code, 0)

    def test_embedded_coverage_ok_disagreement_fails(self):
        code, _, err = self.run_report([slo(hits=6, coverage_ok=False)],
                                       "audit")
        self.assertEqual(code, 1)
        self.assertIn("embedded coverage_ok False != recomputed True", err)

    def test_embedded_coverage_floor_disagreement_fails(self):
        code, _, err = self.run_report([slo(hits=6, coverage_floor=0.4)],
                                       "audit")
        self.assertEqual(code, 1)
        self.assertIn("embedded coverage_floor 0.400000 != recomputed "
                      "0.500000", err)

    def test_diag_gate_passes_at_threshold(self):
        events = sum((batch(b) for b in (True, True, False, False)), [])
        code, out, _ = self.run_report(events, "diag")
        self.assertEqual(code, 0)
        self.assertIn("2 stationary-gap breach(es) (50.0%)", out)
        self.assertIn("gate OK: breach fraction 50.0% within 50.0%", out)

    def test_diag_gate_fails_above_threshold(self):
        events = sum((batch(b) for b in (True, True, True, False)), [])
        code, _, err = self.run_report(events, "diag")
        self.assertEqual(code, 1)
        self.assertIn("breach fraction 75.0% exceeds 50.0%", err)

    def test_diag_streams_of_unequal_length_fail(self):
        code, _, err = self.run_report(batch(False)[:3])
        self.assertEqual(code, 1)
        self.assertIn("disagree in length", err)

    def test_health_gate_passes_at_threshold(self):
        code, out, _ = self.run_report(flaps(opens=1, reopens=1), "health")
        self.assertEqual(code, 0)
        self.assertIn("1 open(s), 1 re-open(s)", out)
        self.assertIn("gate OK: flap rate 50.0% within 50.0%", out)

    def test_health_gate_fails_above_threshold(self):
        code, _, err = self.run_report(flaps(opens=1, reopens=2), "health")
        self.assertEqual(code, 1)
        self.assertIn("flap rate 66.7% exceeds 50.0%", err)

    def test_gated_section_without_events_fails(self):
        # Each gate needs its own events: a clean audit does not let a
        # diag or health gate pass on an empty section.
        for gate in ("diag", "health"):
            code, out, err = self.run_report([slo(hits=6)], "audit", gate)
            self.assertEqual(code, 1, gate)
            self.assertIn("gate OK: all 1 run(s)", out)
            self.assertIn(f"{gate}: no {gate} events", err)
        code, _, err = self.run_report(flaps(1, 0), "audit")
        self.assertEqual(code, 1)
        self.assertIn("audit: no audit events", err)

    def test_ungated_sections_render_without_verdicts(self):
        code, out, _ = self.run_report([slo(hits=5)] + batch(True))
        self.assertEqual(code, 0)
        self.assertIn("== audit SLO (1 run(s)", out)
        self.assertIn("== sampler diagnostics (1 walk batch(es)", out)
        self.assertNotIn("gate", out)

    def test_trace_without_instrument_events_fails(self):
        code, _, err = self.run_report([{"event": "tick"}])
        self.assertEqual(code, 1)
        self.assertIn("no audit, diag or health events", err)

    def test_malformed_jsonl_fails(self):
        code, _, err = self.run_report([], "audit",
                                       raw='{"event": "audit_slo", \n')
        self.assertEqual(code, 1)
        self.assertIn("invalid JSON", err)

    def test_missing_trace_file_fails(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_report.main(
                ["--jsonl", os.path.join(self.dir.name, "absent.jsonl")])
        self.assertEqual(code, 1)
        self.assertIn("FAIL:", err.getvalue())


if __name__ == "__main__":
    unittest.main()
