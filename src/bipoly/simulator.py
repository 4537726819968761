"""Monte Carlo model of multi-message distributed computation time.

Workers draw a shifted-exponential per-task duration; a worker that is
slow is slow for all of its sub-tasks, so its j-th result reaches the
master at j times its duration (communication is instantaneous).  A run
ends when the recovery-threshold-th result arrives, decode time
excluded.  A sweep draws one (trials x N) duration matrix from
default_rng(seed), columns in worker-class order, and reads every
completion time off it with one partial sort per distinct m for all
schemes and budgets: a k-th order statistic has the same value
whichever other kth a partial sort also places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .baseline import GaspParams, gasp_max_m, gasp_rth
from .bivariate import SchemeParams
from .errors import IncompletableError, ParameterError
from .scheme import max_m_for_budget, recovery_threshold, with_m

PROPOSED = "proposed"
GASP = "gasp"

# Trials per partial sort: bounds the (rows, N*m) arrival temporaries,
# so memory grows with the (trials, N) duration matrix alone.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class WorkerClass:
    """A homogeneous group of workers: `count` machines with per-task
    duration nu + Exp(lam) seconds."""

    count: int
    lam: float
    nu: float

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError(f"worker class count must be >= 1, got {self.count}")
        if self.lam <= 0:
            raise ParameterError(f"rate lam must be > 0, got {self.lam}")
        if self.nu < 0:
            raise ParameterError(f"shift nu must be >= 0, got {self.nu}")


@dataclass(frozen=True)
class SimConfig:
    classes: tuple[WorkerClass, ...]
    scheme_rth: int
    m: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.scheme_rth < 1 or self.m < 1 or self.trials < 1:
            raise ParameterError(
                f"scheme_rth, m and trials must be >= 1, got {self}"
            )


@dataclass(frozen=True)
class SimResult:
    mean_time: float
    std_error: float
    per_trial_times: np.ndarray | None = None


def _durations(
    classes: Sequence[WorkerClass], trials: int, rng: np.random.Generator
) -> np.ndarray:
    """(trials, N) per-task durations, drawn class by class in declaration order."""
    return np.concatenate(
        [c.nu + -np.log1p(-rng.random((trials, c.count))) / c.lam for c in classes],
        axis=1,
    )


def _check_completable(n_workers: int, m: int, scheme_rth: int) -> None:
    if n_workers * m < scheme_rth:
        raise IncompletableError(
            f"{n_workers} workers x m={m} tasks cannot reach "
            f"the threshold {scheme_rth}"
        )


def _completion_times(
    durations: np.ndarray, m: int, thresholds: Sequence[int]
) -> np.ndarray:
    """(len(thresholds), trials) arrival times of each threshold-th result.

    Worker i delivers its j-th result at j times its duration, for
    j = 1..m; each row of `durations` is one trial.  One partial sort
    per block of trials places every threshold at once.
    """
    trials, n_workers = durations.shape
    for r_th in thresholds:
        _check_completable(n_workers, m, r_th)
    cols = [r_th - 1 for r_th in thresholds]
    out = np.empty((len(cols), trials))
    for lo in range(0, trials, _BLOCK_ROWS):
        block = durations[lo : lo + _BLOCK_ROWS, :, None] * np.arange(1, m + 1)
        arrivals = block.reshape(block.shape[0], -1)
        arrivals.partition(sorted(set(cols)), axis=1)
        out[:, lo : lo + _BLOCK_ROWS] = arrivals[:, cols].T
    return out


def simulate_once(cfg: SimConfig, rng: np.random.Generator) -> float:
    """Arrival time of the scheme_rth-th sub-task result in one trial."""
    durations = _durations(cfg.classes, 1, rng)
    return float(_completion_times(durations, cfg.m, [cfg.scheme_rth])[0, 0])


def expected_time(cfg: SimConfig, keep_times: bool = False) -> SimResult:
    """Monte Carlo mean completion time with its standard error.

    Deterministic for a given cfg.seed: all cfg.trials trials come from
    one draw of default_rng(cfg.seed).
    """
    durations = _durations(cfg.classes, cfg.trials, np.random.default_rng(cfg.seed))
    return _summary(_completion_times(durations, cfg.m, [cfg.scheme_rth])[0], keep_times)


def _summary(times: np.ndarray, keep_times: bool = False) -> SimResult:
    n = len(times)
    return SimResult(
        mean_time=float(times.mean()),
        std_error=float(times.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        per_trial_times=times if keep_times else None,
    )


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    budget: int
    m: int
    r_th: int
    mean_time_s: float
    std_err_s: float
    trials: int
    seed: int


def scheme_point(scheme: str, budget: int, params: SchemeParams) -> tuple[int, int]:
    """(m, recovery threshold) of a scheme under a partition budget."""
    if scheme == PROPOSED:
        m = max_m_for_budget(budget, params.L)
        return m, recovery_threshold(with_m(params, m))
    if scheme == GASP:
        m = gasp_max_m(budget)
        return m, gasp_rth(GaspParams(params.K, params.L, params.T, m))
    raise ParameterError(f"unknown scheme {scheme!r}; use {PROPOSED!r} or {GASP!r}")


def budget_sweep(
    classes: Sequence[WorkerClass],
    params: SchemeParams,
    budgets: Iterable[int],
    schemes: Sequence[str],
    trials: int,
    seed: int,
) -> list[SweepRow]:
    """Expected completion time per (scheme, budget), rows in that order.

    One duration matrix drawn from the seed serves every point, so
    points that map to the same (m, threshold) produce identical rows
    and comparisons across budgets and schemes share their random
    draws.  Each distinct m costs one partial sort per block of trials,
    which places all of that m's thresholds at once.
    """
    if isinstance(schemes, str):
        raise ParameterError(
            f"schemes must be a sequence of scheme names, got the string {schemes!r}"
        )
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    budgets = list(budgets)
    n_workers = sum(c.count for c in classes)
    points = []
    for scheme in schemes:
        for budget in budgets:
            m, r_th = scheme_point(scheme, budget, params)
            _check_completable(n_workers, m, r_th)
            points.append((scheme, budget, m, r_th))
    thresholds: dict[int, set[int]] = {}
    for _, _, m, r_th in points:
        thresholds.setdefault(m, set()).add(r_th)
    durations = _durations(classes, trials, np.random.default_rng(seed))
    summaries = {}
    for m, r_ths in thresholds.items():
        r_ths = sorted(r_ths)
        for r_th, times in zip(r_ths, _completion_times(durations, m, r_ths)):
            summaries[m, r_th] = _summary(times)
    rows = []
    for scheme, budget, m, r_th in points:
        res = summaries[m, r_th]
        rows.append(
            SweepRow(
                scheme=scheme,
                budget=budget,
                m=m,
                r_th=r_th,
                mean_time_s=res.mean_time,
                std_err_s=res.std_error,
                trials=trials,
                seed=seed,
            )
        )
    return rows


SWEEP_CSV_HEADER = "scheme,budget,m,r_th,mean_time_s,std_err_s,trials,seed"


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows to the stable CSV schema (6 significant digits)."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.scheme},{r.budget},{r.m},{r.r_th},"
            f"{r.mean_time_s:.6g},{r.std_err_s:.6g},{r.trials},{r.seed}"
        )
    return "\n".join(lines) + "\n"
