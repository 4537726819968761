"""Workloads, closed-loop runners and oracles of the bipoly benchmark.

Every workload runs as a closed loop in one process: the harness issues
one job, waits for its result, checks it, and only then issues the
next.  Inputs come from the run's seed; the program receives only the
generated matrices, CLI arguments and seeds.  Every output is checked
by an oracle that shares no code with the program: decoded products by
a Freivalds test in Python integers, CLI runs by their exit codes,
verdicts and CSV columns recomputed here.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bipoly
from bipoly import cli, fieldcore, scheme, wire

from tracing import Tracer

# Stream tags for np.random.default_rng([seed, tag, index]).
_WARMUP, _JOB, _CHECK = 0, 1, 2

SETUP_REPS = 5
FREIVALDS_ROUNDS = 2


@dataclass(frozen=True)
class CodedWorkload:
    """One coded multiplication A @ B with A and B both n x n."""

    name: str
    K: int
    L: int
    T: int
    m: int
    N: int
    q: int
    n: int

    @property
    def r_th(self) -> int:
        k, l, t, m = self.K, self.L, self.T, self.m
        return (k + t) * l + m * (k + t - 1)

    def params(self) -> bipoly.SchemeParams:
        return bipoly.SchemeParams(
            K=self.K, L=self.L, T=self.T, m=self.m, N=self.N, q=self.q
        )


@dataclass(frozen=True)
class AnalyticsWorkload:
    """One round of the four analysis CLI calls at the CLI defaults."""

    name: str
    sim_trials: int
    privacy_sweeps: int
    privacy_N: int = 51
    privacy_T: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        CodedWorkload("coded-int64", K=5, L=5, T=3, m=5, N=51, q=2**31 - 1, n=240),
        CodedWorkload(
            "coded-bigq", K=5, L=5, T=3, m=5, N=51, q=4611686018427387847, n=60
        ),
        CodedWorkload("decode-heavy", K=10, L=10, T=4, m=10, N=30, q=2**31 - 1, n=80),
        AnalyticsWorkload("analytics", sim_trials=500, privacy_sweeps=2),
    )
}

# Warm-up rounds use the same commands at toy sizes.
_WARMUP_ANALYTICS = AnalyticsWorkload(
    "analytics-warmup", sim_trials=20, privacy_sweeps=1, privacy_N=12
)


@dataclass
class Phase:
    """Samples and failures of one measured phase."""

    job_s: list = field(default_factory=list)
    stage_s: dict = field(default_factory=dict)
    # (first span, end span, wall seconds) of each correct traced job
    traced_jobs: list = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add_stage(self, name: str, seconds: float) -> None:
        self.stage_s.setdefault(name, []).append(seconds)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that starts and imports bipoly.

    A fresh process is the only way to repeat an import; the median of
    several also drops the first one's cold file cache.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bipoly.cli"], cwd=src, check=True)
    return time.perf_counter() - t0


def derive_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed for the program, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


# -- oracles -------------------------------------------------------------


def freivalds_ok(a, b, c, q: int, rng: np.random.Generator) -> bool:
    """C == A @ B over F_q, tested as C v == A (B v) in Python integers.

    Never calls the program's kernel.  Each round misses a wrong C with
    probability at most 1/q.
    """
    a_obj, b_obj = a.astype(object), b.astype(object)
    c_obj = np.asarray(c).astype(object)
    if c_obj.shape != (a.shape[0], b.shape[1]):
        return False
    if c_obj.size and (c_obj.min() < 0 or c_obj.max() >= q):
        return False
    for _ in range(FREIVALDS_ROUNDS):
        v = np.array([int(x) for x in rng.integers(0, q, size=b.shape[1])], dtype=object)
        lhs = c_obj.dot(v) % q
        rhs = a_obj.dot(b_obj.dot(v) % q) % q
        if not np.array_equal(lhs, rhs):
            return False
    return True


def parse_budgets(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def proposed_point(budget: int, K: int, L: int, T: int) -> tuple[int, int]:
    """(m, R_th) of the proposed scheme under an upload budget."""
    m = min(budget - 1, L)
    return m, (K + T) * L + m * (K + T - 1)


def check_simulate(rc: int, out: str, cfg: dict, trials: int, seed: int) -> str | None:
    if rc != 0:
        return f"simulate exited {rc}"
    lines = out.strip().splitlines()
    if lines[0] != "scheme,budget,m,r_th,mean_time_s,std_err_s,trials,seed":
        return f"simulate header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    keys = sorted((row[0], int(row[1])) for row in rows)
    want = sorted((s, b) for s in ("proposed", "gasp") for b in cfg["budgets"])
    if keys != want:
        return "simulate rows do not cover each (scheme, budget) exactly once"
    for row in rows:
        if int(row[6]) != trials or int(row[7]) != seed:
            return f"simulate row {row} has wrong trials or seed"
        if not float(row[4]) > 0:
            return f"simulate row {row} has a non-positive mean"
        if row[0] == "proposed":
            want_m, want_rth = proposed_point(int(row[1]), cfg["K"], cfg["L"], cfg["T"])
            if (int(row[2]), int(row[3])) != (want_m, want_rth):
                return f"simulate row {row}: expected m={want_m} r_th={want_rth}"
    return None


def check_privacy(rc: int, out: str, w: AnalyticsWorkload) -> str | None:
    lines = out.strip().splitlines()
    subsets = math.comb(w.privacy_N, w.privacy_T)
    want = [f"sweep {i}: PASS ({subsets} subsets)" for i in range(w.privacy_sweeps)]
    if rc != 0 or lines != want + ["PASS"]:
        return f"privacy exited {rc} with {lines} (want {want + ['PASS']})"
    return None


def check_control(rc: int, out: str) -> str | None:
    lines = out.strip().splitlines()
    if rc != 2 or not lines[0].startswith("sweep 0: FAIL") or lines[-1] != "FAIL":
        return f"degenerate privacy control exited {rc} with {lines[-1:]} (want FAIL)"
    return None


def check_thresholds(rc: int, out: str) -> str | None:
    # The CLI defaults: K=L=5, T=3, budgets 2-10.
    lines = out.strip().splitlines()
    if rc != 0 or lines[0] != "budget,proposed_m,proposed_rth,gasp_m,gasp_rth":
        return f"thresholds exited {rc}"
    budgets = [int(line.split(",")[0]) for line in lines[1:]]
    if budgets != list(range(2, 11)):
        return f"thresholds budgets {budgets}"
    for line in lines[1:]:
        budget, pm, pr = (int(v) for v in line.split(",")[:3])
        if (pm, pr) != proposed_point(budget, 5, 5, 3):
            return f"thresholds row {line!r}"
    return None


def load_sim_oracle() -> dict:
    """K, L, T and budgets of the bundled heterogeneous config, read here."""
    path = Path(bipoly.__file__).parent / "configs" / "heterogeneous.cfg"
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    sec = parser["scheme"]
    return {
        "K": sec.getint("K"),
        "L": sec.getint("L"),
        "T": sec.getint("T"),
        "budgets": parse_budgets(parser["sim"].get("budgets", "2-10")),
    }


# -- coded jobs ------------------------------------------------------------


class CodedRunner:
    """Closed-loop runner of one coded workload."""

    STAGES = ("encode", "wire_up", "compute", "wire_down", "subset", "decode")

    def __init__(self, w: CodedWorkload, seed: int):
        self.w = w
        self.seed = seed
        self.params = w.params()
        self.field = fieldcore.PrimeField(w.q)

    @property
    def kernel_path(self) -> str:
        return np.dtype(getattr(self.field, "dtype", np.int64)).name

    def inputs(self, rng: np.random.Generator, n: int):
        dtype = getattr(self.field, "dtype", np.int64)
        a = rng.integers(0, self.w.q, size=(n, n), dtype=np.int64).astype(dtype)
        b = rng.integers(0, self.w.q, size=(n, n), dtype=np.int64).astype(dtype)
        return a, b

    def setup_once(self, rep: int, phase: Phase) -> float:
        """Field, parameters, first inputs and a toy-size warm-up job."""
        t0 = time.perf_counter()
        self.field = fieldcore.PrimeField(self.w.q)
        self.params = self.w.params()
        self.inputs(np.random.default_rng([self.seed, _JOB, 0]), self.w.n)
        small = math.lcm(self.w.K, self.w.L)
        self.job(rep, phase, stream=_WARMUP, n=small)
        return time.perf_counter() - t0

    def job(self, index: int, phase: Phase, tracer: Tracer | None = None,
            stream: int = _JOB, n: int | None = None, direct: bool = False) -> None:
        w, params = self.w, self.params
        n = n or w.n
        rng = np.random.default_rng([self.seed, stream, index])
        a, b = self.inputs(rng, n)
        dims = (n, n, n)
        phase.attempted += 1
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.job = index
        t = [time.perf_counter()]
        try:
            enc = scheme.encode(params, a, b, rng)
            t.append(time.perf_counter())
            up = wire.dump_shares(params, dims, enc.shares)
            _, _, shares = wire.load_shares(up)
            t.append(time.perf_counter())
            results = scheme.compute_all(shares)
            t.append(time.perf_counter())
            down = wire.dump_results(params, dims, results)
            _, _, back = wire.load_results(down)
            t.append(time.perf_counter())
            subset = scheme.random_prefix_subset(back, w.r_th, rng)
            t.append(time.perf_counter())
            decoded = scheme.decode(params, subset)
            t.append(time.perf_counter())
        except Exception as exc:  # any exception is a failed job
            phase.busy_s += time.perf_counter() - t[0]
            phase.fail(f"job {index}: {type(exc).__name__}: {exc}")
            return
        wall = t[-1] - t[0]
        phase.busy_s += wall
        check_rng = np.random.default_rng([self.seed, _CHECK, stream, index])
        if not freivalds_ok(a, b, decoded.assembled, w.q, check_rng):
            phase.fail(f"job {index}: decoded product differs from A @ B")
            return
        if stream != _JOB:
            return
        phase.job_s.append(wall)
        for name, start, end in zip(self.STAGES, t, t[1:]):
            phase.add_stage(name, end - start)
        if tracer:
            phase.traced_jobs.append((first, len(tracer.spans), wall))
        if direct:
            d0 = time.perf_counter()
            self.field.mat_mul(a, b)
            phase.add_stage("direct_mat_mul", time.perf_counter() - d0)


# -- analytics rounds --------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI call: exit code, stdout and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


class AnalyticsRunner:
    """Closed-loop runner of the analytics workload."""

    def __init__(self, w: AnalyticsWorkload, seed: int):
        self.w = w
        self.seed = seed
        self.cfg = load_sim_oracle()
        # The privacy audit and the configs run at q = 2**31 - 1.
        field = fieldcore.PrimeField(2**31 - 1)
        self.kernel_path = np.dtype(getattr(field, "dtype", np.int64)).name

    def setup_once(self, rep: int, phase: Phase) -> float:
        t0 = time.perf_counter()
        self.cfg = load_sim_oracle()
        self.job(rep, phase, stream=_WARMUP, w=_WARMUP_ANALYTICS)
        return time.perf_counter() - t0

    def job(self, index: int, phase: Phase, tracer: Tracer | None = None,
            stream: int = _JOB, w: AnalyticsWorkload | None = None,
            direct: bool = False) -> None:
        """One round of the four CLI calls; `direct` is unused here."""
        w = w or self.w
        seed = derive_seed(self.seed, stream, index)
        size = ["--N", str(w.privacy_N), "--T", str(w.privacy_T)]
        calls = [
            ("simulate", ["simulate", "--config", "heterogeneous", "--scheme", "both",
                          "--trials", str(w.sim_trials), "--seed", str(seed)]),
            ("privacy", ["privacy", "--sweeps", str(w.privacy_sweeps),
                         "--seed", str(seed)] + size),
            ("privacy_control", ["privacy", "--allow-degenerate", "--sweeps", "1",
                                 "--seed", str(seed)] + size),
            ("thresholds", ["thresholds"]),
        ]
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.job = index
        outcomes = []
        t0 = time.perf_counter()
        for name, argv in calls:
            try:
                outcomes.append((name,) + run_cli(argv))
            except Exception as exc:  # any exception is a failed call
                outcomes.append((name, None, f"{type(exc).__name__}: {exc}", 0.0))
        wall = time.perf_counter() - t0
        phase.busy_s += wall
        ok = True
        for name, rc, out, dt in outcomes:
            phase.attempted += 1
            try:
                if rc is None:
                    problem = out
                elif name == "simulate":
                    problem = check_simulate(rc, out, self.cfg, w.sim_trials, seed)
                elif name == "privacy":
                    problem = check_privacy(rc, out, w)
                elif name == "privacy_control":
                    problem = check_control(rc, out)
                else:
                    problem = check_thresholds(rc, out)
            except (IndexError, ValueError) as exc:
                problem = f"unparseable output ({exc}): {out[:200]!r}"
            if problem:
                ok = False
                phase.fail(f"round {index} {name}: {problem}")
            elif stream == _JOB:
                phase.add_stage(name, dt)
        if ok and stream == _JOB:
            phase.job_s.append(wall)
            if tracer:
                phase.traced_jobs.append((first, len(tracer.spans), wall))


def make_runner(workload: str, seed: int):
    w = WORKLOADS[workload]
    if isinstance(w, CodedWorkload):
        return CodedRunner(w, seed)
    return AnalyticsRunner(w, seed)


def measure(runner, seconds: float, start_index: int, tracer: Tracer | None = None,
            direct: bool = False) -> Phase:
    """Issue jobs back to back until `seconds` have passed (at least one)."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    index = start_index
    while index == start_index or time.perf_counter() < deadline:
        runner.job(index, phase, tracer=tracer, direct=direct)
        index += 1
    return phase
