"""Span tracer that wraps bipoly's public functions from the outside.

The wrappers are installed only for a traced phase and removed after
it; an untraced run executes the program's own function objects.  Each
call of a probed function records one span: name, start, end, parent
span and job id, plus exact counts taken from its arguments or return
value (multiply-accumulates, wire bytes, coalitions, ...).

A probe whose function no longer exists in the program is recorded as
absent: its metrics are left out instead of reading zero, and the time
the function used to take falls into its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable

# Counter extractors get (bound arguments, return value) and give a
# dict of exact counts for the span.
Counter = Callable[[dict, object], dict]


def _mat_mul_counts(args: dict, out) -> dict:
    a, b = args["a"], args["b"]
    r, s = a.shape
    c = b.shape[1]
    return {
        "macs": r * s * c,
        # Computed bytes: operands and result at 8 bytes per element.
        "bytes": 8 * (r * s + s * c + r * c),
        "object_path": int(a.dtype == object or b.dtype == object),
    }


def _solve_counts(args: dict, out) -> dict:
    return {"n": args["m"].shape[0], "rhs_cols": args["rhs"].shape[1]}


def _sweep_counts(args: dict, out) -> dict:
    return {
        "coalitions": out.subsets_checked,
        "failing": len(out.failing_subsets),
    }


def _budget_sweep_counts(args: dict, out) -> dict:
    counts = {"trials": sum(row.trials for row in out)}
    if args.get("threads") is not None:
        counts["threads"] = args["threads"]
    return counts


@dataclass(frozen=True)
class Probe:
    """One public function to wrap: `attr` may be `Class.method`."""

    module: str
    attr: str
    counter: Counter | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr.rsplit('.', 1)[-1]}"


PROBES = (
    Probe("bipoly.cli", "main"),
    Probe("bipoly.scheme", "encode"),
    Probe("bipoly.scheme", "compute_all", lambda a, out: {"subtasks": len(out)}),
    Probe("bipoly.scheme", "random_prefix_subset"),
    Probe("bipoly.scheme", "decode", lambda a, out: {"responses": len(a["results"])}),
    Probe("bipoly.scheme", "interpolation_matrix"),
    Probe("bipoly.bivariate", "eval_coded_a"),
    Probe("bipoly.bivariate", "eval_coded_b_derivative"),
    Probe("bipoly.bivariate", "derivative_row"),
    Probe("bipoly.fieldcore", "PrimeField.mat_mul", _mat_mul_counts),
    Probe("bipoly.fieldcore", "PrimeField.solve_linear", _solve_counts),
    Probe("bipoly.fieldcore", "PrimeField.rank"),
    Probe(
        "bipoly.fieldcore",
        "PrimeField.batched_nonsingular",
        lambda a, out: {"mats": len(a["mats"])},
    ),
    Probe("bipoly.wire", "dump_shares", lambda a, out: {"bytes": len(out)}),
    Probe("bipoly.wire", "load_shares"),
    Probe("bipoly.wire", "dump_results", lambda a, out: {"bytes": len(out)}),
    Probe("bipoly.wire", "load_results"),
    Probe("bipoly.privacy", "sweep_collusion_subsets", _sweep_counts),
    Probe("bipoly.privacy", "perfect_privacy_check"),
    Probe("bipoly.simulator", "budget_sweep", _budget_sweep_counts),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: object
    counts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span collector for one traced phase.

    The parent stack assumes probed functions run on one thread; the
    simulator's trial threads call no probed function.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.job: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, probe: Probe, fn):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(probe.name, 0.0, 0.0, stack[-1] if stack else None, self.job, {})
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe.counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = probe.counter(bound.arguments, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every probed function in every loaded bipoly module."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "bipoly" or name.startswith("bipoly.")
        ]
        for probe in PROBES:
            owner = importlib.import_module(probe.module)
            *owner_path, attr = probe.attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(probe.name)
                continue
            wrapper = self._wrap(probe, fn)
            if owner_path:
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_json(self) -> dict:
        return {"absent": self.absent, "spans": [asdict(s) for s in self.spans]}


@dataclass
class JobStats:
    """Per-name totals of one job's spans."""

    total_s: dict
    self_s: dict
    calls: dict
    counts: dict
    top_level_s: float

    def dur(self, name: str) -> float:
        return self.total_s.get(name, 0.0)

    def count(self, name: str, key: str) -> int:
        return self.counts.get(name, {}).get(key, 0)


def job_stats(spans: list[Span], first: int, last: int) -> JobStats:
    """Aggregate spans[first:last], which hold exactly one job.

    Self time is a span's duration minus its direct children's; the
    program is single-threaded along every probed path, so children
    never overlap.
    """
    child_s = [0.0] * (last - first)
    top_level_s = 0.0
    for i in range(first, last):
        span = spans[i]
        if span.parent is None or span.parent < first:
            top_level_s += span.duration
        else:
            child_s[span.parent - first] += span.duration
    total_s: dict = {}
    self_s: dict = {}
    calls: dict = {}
    counts: dict = {}
    for i in range(first, last):
        span = spans[i]
        total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - child_s[i - first]
        calls[span.name] = calls.get(span.name, 0) + 1
        bucket = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            if key == "threads":
                bucket[key] = value
            else:
                bucket[key] = bucket.get(key, 0) + value
    return JobStats(total_s, self_s, calls, counts, top_level_s)
