"""Checks of the benchmark itself: exact counts, oracles and absent probes.

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import report  # noqa: E402
from tracing import Tracer, job_stats  # noqa: E402

CODED = [name for name, w in harness.WORKLOADS.items()
         if isinstance(w, harness.CodedWorkload)]


def traced_job(workload: str, seed: int):
    """One traced job; returns its JobStats and the tracer."""
    runner = harness.make_runner(workload, seed)
    tracer = Tracer()
    with tracer:
        phase = harness.measure(runner, 0, 0, tracer=tracer)
    assert phase.failed == 0, phase.errors
    ((first, last, _),) = phase.traced_jobs
    return job_stats(tracer.spans, first, last), tracer


def coded_counts(stats) -> dict:
    return {
        "fieldcore.mat_mul_macs": stats.count("fieldcore.mat_mul", "macs"),
        "scheme.subtasks": stats.count("scheme.compute_all", "subtasks"),
        "scheme.responses_used": stats.count("scheme.decode", "responses"),
        "wire.upload_bytes": stats.count("wire.dump_shares", "bytes"),
        "wire.download_bytes": stats.count("wire.dump_results", "bytes"),
    }


@pytest.mark.parametrize("workload", CODED)
def test_coded_counts_repeat_and_match_the_wire_layout(workload):
    w = harness.WORKLOADS[workload]
    runs = [coded_counts(traced_job(workload, seed)[0]) for seed in (1, 2, 1, 2)]
    assert all(run == runs[0] for run in runs)
    counts = runs[0]
    r = s = c = w.n
    br, bc = r // w.K, c // w.L
    assert counts["wire.upload_bytes"] == 8 * (11 + w.N * (3 + br * s + w.m * s * bc))
    assert counts["wire.download_bytes"] == 8 * (11 + w.N * w.m * (4 + br * bc))
    assert counts["fieldcore.mat_mul_macs"] == w.N * w.m * br * s * bc
    assert counts["scheme.subtasks"] == w.N * w.m
    assert counts["scheme.responses_used"] == w.r_th
    if workload == "coded-int64":
        assert counts["wire.upload_bytes"] == 28_202_272
        assert counts["wire.download_bytes"] == 4_708_408


def test_privacy_coalitions_repeat():
    w = harness.WORKLOADS["analytics"]
    checked = [
        traced_job("analytics", seed)[0].count("privacy.sweep_collusion_subsets", "coalitions")
        for seed in (1, 2, 1, 2)
    ]
    # The audit's sweeps plus the one-sweep negative control.
    assert checked == [(w.privacy_sweeps + 1) * math.comb(w.privacy_N, w.privacy_T)] * 4


def test_freivalds_rejects_any_wrong_entry():
    q = 2**31 - 1
    rng = np.random.default_rng(0)
    a = rng.integers(0, q, size=(6, 4), dtype=np.int64)
    b = rng.integers(0, q, size=(4, 5), dtype=np.int64)
    c = np.array((a.astype(object).dot(b.astype(object))) % q, dtype=np.int64)
    assert harness.freivalds_ok(a, b, c, q, rng)
    wrong = c.copy()
    wrong[3, 2] = (wrong[3, 2] + 1) % q
    assert not harness.freivalds_ok(a, b, wrong, q, rng)
    shifted = c.copy()
    shifted[0, 0] += q  # same residue, not canonical
    assert not harness.freivalds_ok(a, b, shifted, q, rng)
    assert not harness.freivalds_ok(a, b, c[:, :4], q, rng)


def test_cli_oracles_reject_wrong_verdicts_and_columns():
    w = harness.WORKLOADS["analytics"]
    cfg = {"K": 5, "L": 5, "T": 3, "budgets": [2, 3]}
    header = "scheme,budget,m,r_th,mean_time_s,std_err_s,trials,seed"
    rows = ["proposed,2,1,47,1.5,0.1,10,7", "proposed,3,2,54,1.4,0.1,10,7",
            "gasp,2,1,50,1.6,0.1,10,7", "gasp,3,1,50,1.6,0.1,10,7"]
    good = "\n".join([header] + rows) + "\n"
    assert harness.check_simulate(0, good, cfg, 10, 7) is None
    assert harness.check_simulate(0, good.replace("2,54", "2,55"), cfg, 10, 7)
    assert harness.check_simulate(0, "\n".join([header] + rows[:3]), cfg, 10, 7)
    assert harness.check_simulate(1, good, cfg, 10, 7)
    n = math.comb(51, 3)
    passing = "".join(f"sweep {i}: PASS ({n} subsets)\n" for i in range(w.privacy_sweeps))
    assert harness.check_privacy(0, passing + "PASS\n", w) is None
    assert harness.check_privacy(0, passing + "FAIL\n", w)
    assert harness.check_control(2, f"sweep 0: FAIL (20+ of {n} subsets)\nFAIL\n") is None
    assert harness.check_control(0, f"sweep 0: PASS ({n} subsets)\nPASS\n")


def test_deleted_function_is_absent_not_zero(monkeypatch):
    import bipoly.bivariate

    # A later change may delete derivative_row; scheme keeps its own
    # reference here, so decoding still works while the probe finds
    # nothing to wrap.
    monkeypatch.delattr(bipoly.bivariate, "derivative_row")
    runner = harness.make_runner("decode-heavy", 1)
    base = harness.measure(runner, 0, 0)
    tracer = Tracer()
    with tracer:
        traced = harness.measure(runner, 0, 1, tracer=tracer)
    record = report.traced_record(base, traced, tracer, 0.0, 1, [base, traced])
    assert record["absent"] == ["bivariate.derivative_row"]
    layer = record["per_layer"]
    assert "bivariate.derivative_row_s" not in layer
    assert "bivariate.derivative_rows" not in layer
    assert layer["scheme.decode_s"]["value"] > 0
    assert "harness_errors" not in record
