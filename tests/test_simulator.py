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
    SimConfig,
    WorkerClass,
    _completion_times,
    _durations,
    budget_sweep,
    expected_time,
    scheme_point,
    simulate_once,
    sweep_rows_to_csv,
)


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def one_class(count, lam, nu):
    return (WorkerClass(count=count, lam=lam, nu=nu),)


def test_simulate_once_single_worker_is_one_draw():
    cfg = SimConfig(one_class(1, 1.5, 0.2), scheme_rth=1, m=1, trials=1, seed=0)
    t = simulate_once(cfg, np.random.default_rng(9))
    # inverse CDF of nu + Exp(lam) on one uniform draw
    u = np.random.default_rng(9).random()
    assert t == 0.2 + -math.log1p(-u) / 1.5


def test_simulate_once_incompletable():
    cfg = SimConfig(one_class(3, 1.0, 0.0), scheme_rth=7, m=2, trials=1, seed=0)
    with pytest.raises(IncompletableError):
        simulate_once(cfg, np.random.default_rng(0))
    with pytest.raises(IncompletableError):
        expected_time(cfg)


def test_expected_time_matches_order_statistics():
    # m = 1: completion is the R-th order statistic of N shifted
    # exponentials, whose mean is nu + (H_N - H_{N-R}) / lam
    cfg = SimConfig(one_class(10, 2.0, 0.3), scheme_rth=6, m=1, trials=30_000, seed=5)
    res = expected_time(cfg)
    want = 0.3 + (harmonic(10) - harmonic(4)) / 2.0
    assert res.mean_time == pytest.approx(want, rel=0.02)


def test_expected_time_single_trial():
    cfg = SimConfig(one_class(2, 1.0, 0.0), scheme_rth=1, m=1, trials=1, seed=1)
    res = expected_time(cfg)
    assert res.std_error == 0.0


def test_expected_time_deterministic_per_seed():
    cfg = SimConfig(one_class(12, 0.8, 0.1), scheme_rth=20, m=2, trials=400, seed=77)
    first = expected_time(cfg, keep_times=True)
    again = expected_time(cfg, keep_times=True)
    assert first.per_trial_times.shape == (400,)
    assert np.array_equal(first.per_trial_times, again.per_trial_times)
    assert first.mean_time == again.mean_time


def test_expected_time_matches_per_trial_loop():
    # One (trials x N) uniform draw, class by class; trial t completes at
    # the scheme_rth-th smallest of j * duration over workers and j <= m.
    classes = (WorkerClass(3, 2.0, 0.1), WorkerClass(4, 0.5, 0.3))
    trials = 5000  # more than one partial-sort block
    cfg = SimConfig(classes, scheme_rth=9, m=2, trials=trials, seed=11)
    got = expected_time(cfg, keep_times=True).per_trial_times
    rng = np.random.default_rng(11)
    u = [rng.random((trials, c.count)) for c in classes]
    for t in range(trials):
        durations = [c.nu + -np.log1p(-u[k][t]) / c.lam for k, c in enumerate(classes)]
        arrivals = sorted(float(d) * j for row in durations for d in row for j in (1, 2))
        assert got[t] == arrivals[8]


def test_expected_time_different_seed_different_draws():
    cfg = SimConfig(one_class(12, 0.8, 0.1), scheme_rth=20, m=2, trials=400, seed=77)
    other = SimConfig(cfg.classes, scheme_rth=20, m=2, trials=400, seed=78)
    a = expected_time(cfg, keep_times=True).per_trial_times
    b = expected_time(other, keep_times=True).per_trial_times
    assert not np.array_equal(a, b)


def test_completion_monotone_in_m():
    base = dict(scheme_rth=18, trials=3000, seed=13)
    means = []
    errs = []
    for m in (1, 2, 3):
        res = expected_time(SimConfig(one_class(18, 1.0, 0.2), m=m, **base))
        means.append(res.mean_time)
        errs.append(res.std_error)
    assert means[1] <= means[0] + 2 * (errs[0] + errs[1])
    assert means[2] <= means[1] + 2 * (errs[1] + errs[2])


def test_completion_monotone_in_threshold():
    means = []
    errs = []
    for rth in (5, 10, 15):
        res = expected_time(
            SimConfig(one_class(10, 1.0, 0.1), scheme_rth=rth, m=2, trials=3000, seed=3)
        )
        means.append(res.mean_time)
        errs.append(res.std_error)
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
        want = expected_time(SimConfig(cfg["classes"], r.r_th, r.m, trials, seed))
        assert (r.mean_time_s, r.std_err_s) == (want.mean_time, want.std_error)


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
