import math

import numpy as np
import pytest

from bipoly.bivariate import SchemeParams
from bipoly.cli import load_sim_config
from bipoly.errors import IncompletableError, ParameterError
from bipoly.simulator import (
    GASP,
    PROPOSED,
    SWEEP_CSV_HEADER,
    WorkerClass,
    _completion_times,
    _durations,
    _summary,
    budget_sweep,
    scheme_point,
    sweep_rows_to_csv,
)


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def one_class(count, lam, nu):
    return (WorkerClass(count=count, lam=lam, nu=nu),)


def point_times(classes, m, r_th, trials, seed):
    """Per-trial completion times of one (m, threshold) point."""
    durations = _durations(classes, trials, np.random.default_rng(seed))
    return _completion_times(durations, m, [r_th])[0]


def test_single_worker_single_trial_is_one_draw():
    t = point_times(one_class(1, 1.5, 0.2), m=1, r_th=1, trials=1, seed=9)
    # inverse CDF of nu + Exp(lam) on one uniform draw
    u = np.random.default_rng(9).random()
    assert t.tolist() == [0.2 + -math.log1p(-u) / 1.5]


def test_expected_time_matches_order_statistics():
    # m = 1: completion is the R-th order statistic of N shifted
    # exponentials, whose mean is nu + (H_N - H_{N-R}) / lam
    times = point_times(one_class(10, 2.0, 0.3), m=1, r_th=6, trials=30_000, seed=5)
    want = 0.3 + (harmonic(10) - harmonic(4)) / 2.0
    assert times.mean() == pytest.approx(want, rel=0.02)


def test_expected_time_single_trial():
    p = SchemeParams(K=5, L=5, T=3, m=1, N=51, q=2**31 - 1)
    rows = budget_sweep(one_class(51, 1.0, 0.0), p, [2, 6], (PROPOSED, GASP), 1, 1)
    assert [r.std_err_s for r in rows] == [0.0] * 4


def test_expected_time_deterministic_per_seed():
    first = point_times(one_class(12, 0.8, 0.1), m=2, r_th=20, trials=400, seed=77)
    again = point_times(one_class(12, 0.8, 0.1), m=2, r_th=20, trials=400, seed=77)
    assert first.shape == (400,)
    assert np.array_equal(first, again)


def test_expected_time_matches_per_trial_loop():
    # One (trials x N) uniform draw, class by class; trial t completes at
    # the threshold-th smallest of j * duration over workers and j <= m.
    classes = (WorkerClass(3, 2.0, 0.1), WorkerClass(4, 0.5, 0.3))
    trials = 5000  # more than one partial-sort block
    got = point_times(classes, m=2, r_th=9, trials=trials, seed=11)
    rng = np.random.default_rng(11)
    u = [rng.random((trials, c.count)) for c in classes]
    for t in range(trials):
        durations = [c.nu + -np.log1p(-u[k][t]) / c.lam for k, c in enumerate(classes)]
        arrivals = sorted(float(d) * j for row in durations for d in row for j in (1, 2))
        assert got[t] == arrivals[8]


def test_expected_time_different_seed_different_draws():
    a = point_times(one_class(12, 0.8, 0.1), m=2, r_th=20, trials=400, seed=77)
    b = point_times(one_class(12, 0.8, 0.1), m=2, r_th=20, trials=400, seed=78)
    assert not np.array_equal(a, b)


def test_completion_monotone_in_m():
    means = []
    errs = []
    for m in (1, 2, 3):
        mean, err = _summary(point_times(one_class(18, 1.0, 0.2), m, 18, 3000, 13))
        means.append(mean)
        errs.append(err)
    assert means[1] <= means[0] + 2 * (errs[0] + errs[1])
    assert means[2] <= means[1] + 2 * (errs[1] + errs[2])


def test_completion_monotone_in_threshold():
    means = []
    errs = []
    for rth in (5, 10, 15):
        mean, err = _summary(point_times(one_class(10, 1.0, 0.1), 2, rth, 3000, 3))
        means.append(mean)
        errs.append(err)
    assert means[0] <= means[1] + 2 * (errs[0] + errs[1])
    assert means[1] <= means[2] + 2 * (errs[1] + errs[2])


def test_scheme_point_values():
    p = SchemeParams(K=5, L=5, T=3, m=1, N=51, q=2**31 - 1)
    assert scheme_point(PROPOSED, 2, p) == (1, 47)
    assert scheme_point(PROPOSED, 6, p) == (5, 75)
    assert scheme_point(GASP, 2, p) == (1, 44)
    assert scheme_point(GASP, 10, p) == (5, 79)
    with pytest.raises(ParameterError):
        scheme_point("other", 2, p)


def test_budget_sweep_plateau_and_csv():
    p = SchemeParams(K=5, L=5, T=3, m=1, N=51, q=2**31 - 1)
    classes = one_class(51, 0.25, 0.4)
    rows = budget_sweep(classes, p, range(6, 11), [PROPOSED], trials=200, seed=4)
    assert [r.budget for r in rows] == [6, 7, 8, 9, 10]
    # budgets past the m = L knee share (m, R_th) and therefore the seed-tied mean
    assert len({(r.m, r.r_th, r.mean_time_s) for r in rows}) == 1
    csv = sweep_rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == PROPOSED and first[1] == "6"
    assert first[2] == "5" and first[3] == "75"


@pytest.mark.parametrize("config", ["heterogeneous", "homogeneous"])
def test_budget_sweep_rows_equal_expected_time_per_point(config):
    # One partial sort per m serves every (scheme, budget) point; each row
    # must equal the single-threshold estimate for its (m, R_th) exactly.
    cfg = load_sim_config(config)
    trials, seed = 5000, 17  # two partial-sort blocks
    rows = budget_sweep(
        cfg["classes"], cfg["params"], range(2, 11), (PROPOSED, GASP), trials, seed
    )
    assert [(r.scheme, r.budget) for r in rows] == [
        (s, b) for s in (PROPOSED, GASP) for b in range(2, 11)
    ]
    for r in rows:
        assert (r.m, r.r_th) == scheme_point(r.scheme, r.budget, cfg["params"])
        want = _summary(point_times(cfg["classes"], r.m, r.r_th, trials, seed))
        assert (r.mean_time_s, r.std_err_s) == want


def test_completion_times_many_thresholds_equal_single_calls():
    classes = (WorkerClass(5, 1.0, 0.2), WorkerClass(4, 0.3, 0.0))
    durations = _durations(classes, 4200, np.random.default_rng(3))
    thresholds = [27, 1, 9, 9, 18]  # unsorted, repeated, both ends
    got = _completion_times(durations, 3, thresholds)
    assert got.shape == (5, 4200)
    for row, r_th in zip(got, thresholds):
        assert np.array_equal(row, _completion_times(durations, 3, [r_th])[0])


def test_budget_sweep_raises_first_incompletable_point():
    # 16 workers reach GASP's budget-10 threshold (5 x 16 >= 79) but not
    # its budget-6 one; later points fail too, with other thresholds.
    p = SchemeParams(K=5, L=5, T=3, m=1, N=51, q=2**31 - 1)
    classes = one_class(16, 1.0, 0.1)
    with pytest.raises(IncompletableError) as err:
        budget_sweep(classes, p, [10, 6, 4, 3, 2], (GASP, PROPOSED), 50, 1)
    assert str(err.value) == "16 workers x m=3 tasks cannot reach the threshold 67"


def test_budget_sweep_rejects_a_bare_scheme_string():
    p = SchemeParams(K=5, L=5, T=3, m=1, N=51, q=2**31 - 1)
    with pytest.raises(ParameterError, match="sequence of scheme names"):
        budget_sweep(one_class(51, 1.0, 0.1), p, [2], PROPOSED, 10, 0)


def test_worker_class_validation():
    with pytest.raises(ParameterError):
        WorkerClass(count=0, lam=1.0, nu=0.0)
    with pytest.raises(ParameterError):
        WorkerClass(count=1, lam=0.0, nu=0.0)
    with pytest.raises(ParameterError):
        WorkerClass(count=1, lam=1.0, nu=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lam", "nu"])
def test_worker_class_refuses_non_finite_values(field, value):
    kwargs = {"count": 1, "lam": 1.0, "nu": 0.0, field: value}
    with pytest.raises(ParameterError, match=rf"^\w+ {field} must be a finite number .*, got {value}$"):
        WorkerClass(**kwargs)


@pytest.mark.parametrize("value", ["2", None])
@pytest.mark.parametrize("field", ["lam", "nu"])
def test_worker_class_names_a_value_that_is_not_a_real_number(field, value):
    # math.isfinite's bare TypeError before.
    kwargs = {"count": 1, "lam": 1.0, "nu": 0.0, field: value}
    with pytest.raises(ParameterError, match=rf"^{field}={value!r} is not a real number$"):
        WorkerClass(**kwargs)


@pytest.mark.parametrize("change, match", [
    (dict(trials=2.5), "^trials=2.5 is not an integer"),
    (dict(seed=1.5), "^seed=1.5 is not an integer"),
    (dict(seed=-1), "^seed must be >= 0, got -1"),
])
def test_budget_sweep_names_a_trial_count_or_seed_that_is_no_count(change, match):
    # These once raised numpy's bare TypeError or ValueError.
    p = SchemeParams(K=2, L=2, T=1, m=1, N=8, q=101)
    args = {"trials": 10, "seed": 0, **change}
    with pytest.raises(ParameterError, match=match):
        budget_sweep(one_class(8, 1.0, 0.0), p, [2], (PROPOSED,), **args)


def test_worker_class_count_must_be_an_integer():
    with pytest.raises(ParameterError, match="^count=2.5 is not an integer"):
        WorkerClass(count=2.5, lam=1.0, nu=0.0)
    assert type(WorkerClass(count=np.int64(3), lam=1.0, nu=0.0).count) is int
