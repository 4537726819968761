"""Metric definitions, summaries and the environment record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
from pathlib import Path

import numpy as np

from tracing import JobStats, job_stats

# Highest percentile reported is the largest of these that still has at
# least ten samples beyond it.
PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# The traced spans of a job must add up to its wall time within this share.
MIN_COVERAGE = 0.97


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def timing(samples, unit: str = "s") -> dict:
    """Median with sample count and the highest well-supported percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"value": median(ordered), "unit": unit, "n": n}
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)  # nearest-rank percentile
        if rank >= 1 and n - rank >= 10:
            out[f"p{p:g}"] = ordered[rank - 1]
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(base, setup_s: float, setup_reps: int) -> dict:
    return {
        "job_p50_s": timing(base.job_s),
        "jobs_per_s": {
            "value": len(base.job_s) / base.busy_s if base.busy_s else 0.0,
            "unit": "1/s",
            "n": len(base.job_s),
        },
        "setup_s": {"value": setup_s, "unit": "s", "n": setup_reps},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def untraced_record(base, setup_s: float, setup_reps: int) -> dict:
    return {
        "end_to_end": end_to_end(base, setup_s, setup_reps),
        "stages": {k: timing(v) for k, v in base.stage_s.items()},
    }


# -- per-layer metrics -----------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _wire_s(s: JobStats, verb: str) -> float:
    return s.dur(f"wire.{verb}_shares") + s.dur(f"wire.{verb}_results")


_WIRE = ("wire.dump_shares", "wire.load_shares", "wire.dump_results", "wire.load_results")

# (name, unit, probes it needs, value from one job's JobStats).  Times
# and counts are per-job totals; the reported value is their median over
# the traced jobs.  A layer the workload never calls reads 0.
JOB_METRICS = (
    ("scheme.encode_s", "s", ("scheme.encode",), lambda s: s.dur("scheme.encode")),
    ("scheme.encode_self_s", "s", ("scheme.encode",),
     lambda s: s.self_s.get("scheme.encode", 0.0)),
    ("scheme.compute_s", "s", ("scheme.compute_all",),
     lambda s: s.dur("scheme.compute_all")),
    ("scheme.subtasks", "count", ("scheme.compute_all",),
     lambda s: s.count("scheme.compute_all", "subtasks")),
    ("scheme.decode_s", "s", ("scheme.decode",), lambda s: s.dur("scheme.decode")),
    ("scheme.decode_self_s", "s", ("scheme.decode",),
     lambda s: s.self_s.get("scheme.decode", 0.0)),
    ("scheme.interp_matrix_s", "s", ("scheme.interpolation_matrix",),
     lambda s: s.dur("scheme.interpolation_matrix")),
    ("scheme.responses_used", "count", ("scheme.decode",),
     lambda s: s.count("scheme.decode", "responses")),
    ("scheme.useful_subtask_ratio", "1", ("scheme.decode", "scheme.compute_all"),
     lambda s: _ratio(s.count("scheme.decode", "responses"),
                      s.count("scheme.compute_all", "subtasks"))),
    ("bivariate.eval_a_s", "s", ("bivariate.eval_coded_a",),
     lambda s: s.dur("bivariate.eval_coded_a")),
    ("bivariate.eval_a_calls", "count", ("bivariate.eval_coded_a",),
     lambda s: s.calls.get("bivariate.eval_coded_a", 0)),
    ("bivariate.eval_b_s", "s", ("bivariate.eval_coded_b_derivative",),
     lambda s: s.dur("bivariate.eval_coded_b_derivative")),
    ("bivariate.eval_b_calls", "count", ("bivariate.eval_coded_b_derivative",),
     lambda s: s.calls.get("bivariate.eval_coded_b_derivative", 0)),
    ("bivariate.derivative_row_s", "s", ("bivariate.derivative_row",),
     lambda s: s.dur("bivariate.derivative_row")),
    ("bivariate.derivative_rows", "count", ("bivariate.derivative_row",),
     lambda s: s.calls.get("bivariate.derivative_row", 0)),
    ("fieldcore.mat_mul_s", "s", ("fieldcore.mat_mul",),
     lambda s: s.dur("fieldcore.mat_mul")),
    ("fieldcore.mat_mul_calls", "count", ("fieldcore.mat_mul",),
     lambda s: s.calls.get("fieldcore.mat_mul", 0)),
    ("fieldcore.mat_mul_macs", "count", ("fieldcore.mat_mul",),
     lambda s: s.count("fieldcore.mat_mul", "macs")),
    ("fieldcore.mat_mul_gmacs_per_s", "GMAC/s", ("fieldcore.mat_mul",),
     lambda s: _ratio(s.count("fieldcore.mat_mul", "macs") / 1e9,
                      s.dur("fieldcore.mat_mul"))),
    ("fieldcore.mat_mul_bytes", "B", ("fieldcore.mat_mul",),
     lambda s: s.count("fieldcore.mat_mul", "bytes")),
    ("fieldcore.object_path_calls", "count", ("fieldcore.mat_mul",),
     lambda s: s.count("fieldcore.mat_mul", "object_path")),
    ("fieldcore.solve_s", "s", ("fieldcore.solve_linear",),
     lambda s: s.dur("fieldcore.solve_linear")),
    ("fieldcore.solve_n", "count", ("fieldcore.solve_linear",),
     lambda s: s.count("fieldcore.solve_linear", "n")),
    ("fieldcore.solve_rhs_cols", "count", ("fieldcore.solve_linear",),
     lambda s: s.count("fieldcore.solve_linear", "rhs_cols")),
    ("fieldcore.rank_s", "s", ("fieldcore.rank",), lambda s: s.dur("fieldcore.rank")),
    ("fieldcore.nonsingular_s", "s", ("fieldcore.batched_nonsingular",),
     lambda s: s.dur("fieldcore.batched_nonsingular")),
    ("fieldcore.nonsingular_mats", "count", ("fieldcore.batched_nonsingular",),
     lambda s: s.count("fieldcore.batched_nonsingular", "mats")),
    ("wire.dump_s", "s", _WIRE, lambda s: _wire_s(s, "dump")),
    ("wire.load_s", "s", _WIRE, lambda s: _wire_s(s, "load")),
    ("wire.upload_bytes", "B", ("wire.dump_shares",),
     lambda s: s.count("wire.dump_shares", "bytes")),
    ("wire.download_bytes", "B", ("wire.dump_results",),
     lambda s: s.count("wire.dump_results", "bytes")),
    ("wire.mb_per_s", "MB/s", _WIRE,
     lambda s: _ratio((s.count("wire.dump_shares", "bytes")
                       + s.count("wire.dump_results", "bytes")) / 1e6,
                      _wire_s(s, "dump") + _wire_s(s, "load"))),
    ("privacy.sweep_s", "s", ("privacy.sweep_collusion_subsets",),
     lambda s: s.dur("privacy.sweep_collusion_subsets")),
    ("privacy.coalitions_checked", "count", ("privacy.sweep_collusion_subsets",),
     lambda s: s.count("privacy.sweep_collusion_subsets", "coalitions")),
    ("privacy.coalitions_per_s", "1/s", ("privacy.sweep_collusion_subsets",),
     lambda s: _ratio(s.count("privacy.sweep_collusion_subsets", "coalitions"),
                      s.dur("privacy.sweep_collusion_subsets"))),
    ("privacy.witness_checks", "count", ("privacy.perfect_privacy_check",),
     lambda s: s.calls.get("privacy.perfect_privacy_check", 0)),
    ("privacy.failing_coalitions", "count", ("privacy.sweep_collusion_subsets",),
     lambda s: s.count("privacy.sweep_collusion_subsets", "failing")),
    ("simulator.sweep_s", "s", ("simulator.budget_sweep",),
     lambda s: s.dur("simulator.budget_sweep")),
    ("simulator.trials", "count", ("simulator.budget_sweep",),
     lambda s: s.count("simulator.budget_sweep", "trials")),
    ("simulator.trials_per_s", "1/s", ("simulator.budget_sweep",),
     lambda s: _ratio(s.count("simulator.budget_sweep", "trials"),
                      s.dur("simulator.budget_sweep"))),
    ("simulator.threads", "count", ("simulator.budget_sweep",),
     lambda s: s.count("simulator.budget_sweep", "threads")),
    ("cli.self_s", "s", ("cli.main",), lambda s: s.self_s.get("cli.main", 0.0)),
)


def traced_record(base, traced, tracer, setup_s: float, setup_reps: int,
                  phases) -> dict:
    """Per-layer metrics from the traced phase, baselines from `base`."""
    record = untraced_record(base, setup_s, setup_reps)
    stats = [job_stats(tracer.spans, first, last) for first, last, _ in traced.traced_jobs]
    coverage = [s.top_level_s / wall for s, (_, _, wall) in zip(stats, traced.traced_jobs)]
    layer: dict = {}
    for name, unit, probes, fn in JOB_METRICS:
        if any(p in tracer.absent for p in probes):
            continue
        samples = [fn(s) for s in stats]
        if unit == "s":
            layer[name] = timing(samples)
            continue
        value = median(samples)
        if unit in ("count", "B") and float(value).is_integer():
            value = int(value)
        layer[name] = {"value": value, "unit": unit, "n": len(samples)}
    job_p50 = median(base.job_s)
    direct = base.stage_s.get("direct_mat_mul", [])
    layer["fieldcore.direct_mat_mul_s"] = timing(direct)
    layer["scheme.overhead_x"] = {"value": _ratio(job_p50, median(direct)), "unit": "1"}
    for name in ("simulate", "privacy"):
        layer[f"{name}_p50_s"] = timing(base.stage_s.get(name, []))
    attempted = sum(p.attempted for p in phases)
    layer["fail_ratio"] = {
        "value": _ratio(sum(p.failed for p in phases), attempted), "unit": "1"}
    layer["trace.overhead_s"] = {"value": median(traced.job_s) - job_p50, "unit": "s"}
    worst = min(coverage, default=0.0)
    layer["trace.coverage"] = {"value": worst, "unit": "1", "n": len(coverage)}
    record["per_layer"] = layer
    record["absent"] = list(tracer.absent)
    if not MIN_COVERAGE <= worst <= 1.0 + 1e-9:
        record["harness_errors"] = [
            f"top-level spans cover {worst:.4f} of a job's wall time "
            f"(want {MIN_COVERAGE}..1)"]
    return record


# -- environment -------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas() -> dict:
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, kernel_path: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "fieldcore_path": kernel_path,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src"),
    }


# -- printing ------------------------------------------------------------------


def _row(name: str, m: dict) -> str:
    extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in m.items() if k not in ("value", "unit"))
    value = m["value"]
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:32s} {text:>14s} {m['unit']:8s} {extra}"


def print_table(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"fieldcore={env['fieldcore_path']} commit={env['git_commit']}")
    sections = [("end-to-end", "end_to_end"), ("stages (untraced)", "stages"),
                ("per-layer (traced)", "per_layer")]
    for title, key in sections:
        if key in record:
            print(f"{title}:")
            for name, m in record[key].items():
                print(_row(name, m))
    for name in record.get("absent", []):
        print(f"  absent: {name} (function not found; its time is in its caller)")
    for err in record["errors"]:
        print(f"  FAILURE: {err}")
