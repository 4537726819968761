"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are fixed here, not tuned at runtime."""

import itertools
import math

import numpy as np

from bipoly import cli
from bipoly.baseline import GaspParams, gasp_upload_cost_bits
from bipoly.bivariate import (
    EvalPoint,
    SchemeParams,
    build_support,
    falling_factorial,
    support_degree_sum,
    xi,
)
from bipoly.fieldcore import prime_field
from bipoly.privacy import (
    exhaustive_mi_check,
    perfect_privacy_check,
    sweep_collusion_subsets,
)
from bipoly.scheme import (
    compute_all,
    decode,
    encode,
    failure_bound_d,
    field_element_bits,
    interpolation_matrix,
    random_prefix_subset,
    recovery_threshold,
    sample_points,
    upload_cost_bits,
)
from bipoly.simulator import GASP, PROPOSED, budget_sweep

Q31 = 2**31 - 1


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- 1: round-trip correctness over the parameter sweep ---------------------


def test_c1_round_trip_sweep():
    rng = np.random.default_rng(20240501)
    field = prime_field(Q31)
    trials = 0
    failures = 0
    for K, L in itertools.product(range(1, 5), range(1, 5)):
        for T in range(3):
            for m in range(1, min(L, 3) + 1):
                r_th_probe = (K + T) * L + m * (K + T - 1)
                n = -(-r_th_probe // m) + 2
                p = SchemeParams(K=K, L=L, T=T, m=m, N=n, q=Q31)
                a = field.random_matrix(rng, 12, 12)
                b = field.random_matrix(rng, 12, 12)
                enc = encode(p, a, b, rng)
                results = compute_all(enc.shares)
                subset = random_prefix_subset(
                    results, recovery_threshold(p), rng
                )
                got = decode(p, subset).assembled
                trials += 1
                if not np.array_equal(got, field.mat_mul(a, b)):
                    failures += 1
    _report(
        1,
        "round-trip equals brute-force product across the sweep",
        trials >= 100 and failures == 0,
        f"{trials - failures}/{trials} configurations decoded exactly",
    )


# -- 2: threshold table reproduction ----------------------------------------


def test_c2_threshold_table(tmp_path, capsys):
    out = tmp_path / "thresholds.csv"
    code = cli.main(["thresholds", "--K", "5", "--L", "5", "--T", "3",
                     "--budgets", "2-10", "--out", str(out)])
    capsys.readouterr()
    rows = out.read_text().strip().split("\n")[1:]
    got = [tuple(int(v) for v in row.split(",")) for row in rows]
    want_proposed = [(1, 47), (2, 54), (3, 61), (4, 68), (5, 75),
                     (5, 75), (5, 75), (5, 75), (5, 75)]
    want_gasp = [(1, 44), (1, 44), (2, 61), (2, 61), (3, 67),
                 (3, 67), (4, 73), (4, 73), (5, 79)]
    ok = (
        code == 0
        and [r[0] for r in got] == list(range(2, 11))
        and [(r[1], r[2]) for r in got] == want_proposed
        and [(r[3], r[4]) for r in got] == want_gasp
    )
    _report(2, "threshold table matches the published budget curves exactly",
            ok, f"{len(got)} budget rows, tolerance 0")


# -- 3: empirical decode-failure rate under the degree bound ----------------


def test_c3_singular_rate_bound():
    q = 101
    p = SchemeParams(K=2, L=2, T=1, m=2, N=5, q=q)
    field = p.field
    assert failure_bound_d(p) == 21
    oracle = support_degree_sum(build_support(p))
    assert oracle == 25
    support = build_support(p)
    r_th = recovery_threshold(p)
    assert r_th == 10

    draws = 20_000
    workers = 5
    rng = np.random.default_rng(77)
    xs = rng.integers(0, q, size=(draws, workers))
    ys = rng.integers(0, q, size=(draws, workers))
    xp = np.ones((draws, workers, 5), dtype=np.int64)
    yp = np.ones((draws, workers, 2), dtype=np.int64)
    for e in range(1, 5):
        xp[:, :, e] = xp[:, :, e - 1] * xs % q
    yp[:, :, 1] = ys % q
    mats = np.zeros((draws, r_th, r_th), dtype=np.int64)
    for col, (dx, dy) in enumerate(support):
        mats[:, 0::2, col] = xp[:, :, dx] * yp[:, :, dy] % q
        if dy >= 1:
            coeff = falling_factorial(dy, 1) % q
            mats[:, 1::2, col] = xp[:, :, dx] * coeff % q * yp[:, :, dy - 1] % q
    ok_flags = field.batched_nonsingular(mats)

    # consistency spot check against the per-response code path
    for d in range(40):
        pairs = [
            (EvalPoint(int(xs[d, w]), int(ys[d, w])), o)
            for w in range(workers)
            for o in (0, 1)
        ]
        m_single = interpolation_matrix(p, support, pairs)
        assert np.array_equal(m_single, mats[d])
        assert (field.rank(m_single) == r_th) == bool(ok_flags[d])

    rate = 1.0 - ok_flags.mean()
    bound = oracle / q
    _report(3, "singular-system rate stays under the enumeration bound",
            rate <= bound,
            f"rate {rate:.4f} <= {bound:.4f} over {draws} uniform draws")


# -- 4: privacy verification -------------------------------------------------


def test_c4_privacy_rank_and_mutual_information():
    p = SchemeParams(K=5, L=5, T=3, m=5, N=51, q=Q31)
    rng = np.random.default_rng(9)
    subsets_total = 0
    all_pass = True
    for _ in range(10):
        points = sample_points(p, rng)
        report = sweep_collusion_subsets(points, p.K, p.T, p.m, p.q)
        subsets_total += report.subsets_checked
        all_pass &= report.passed
        # cross-validate the batch against the single-subset checker
        probe = [tuple(rng.choice(51, size=3, replace=False)) for _ in range(5)]
        for sub in probe:
            single = perfect_privacy_check(
                [points[i] for i in sorted(sub)], p.K, p.T, p.m, p.q
            )
            all_pass &= single.passed
    expected_subsets = 10 * math.comb(51, 3)
    all_pass &= subsets_total == expected_subsets

    mi_instances = 0
    mi_all_zero = True
    for t in (1, 2):
        for m in (1, 2):
            for q in (2, 3, 5, 7):
                if q - 1 < t:
                    continue
                pts = [EvalPoint(1 + i, (2 * i + 1) % q) for i in range(t)]
                mi = exhaustive_mi_check(pts, K=1, T=t, m=m, q=q)
                mi_instances += 1
                mi_all_zero &= mi == 0.0
    leak_r = exhaustive_mi_check([EvalPoint(1, 1)], K=1, T=1, m=1, q=3,
                                 zero_r_masks=True)
    leak_pt = exhaustive_mi_check([EvalPoint(0, 1)], K=1, T=1, m=2, q=5)
    ok = all_pass and mi_all_zero and leak_r > 0.0 and leak_pt > 0.0
    _report(4, "all coalitions pass the rank check; toy enumerations give MI 0",
            ok,
            f"{subsets_total} subset checks, {mi_instances} enumerations, "
            f"instrumented leaks {leak_r:.3f}/{leak_pt:.3f} bits")


# -- 5 and 6: completion-time curve reproduction -----------------------------


def _sweep_means(config_name: str, budgets, trials, seed):
    cfg = cli.load_sim_config(config_name)
    rows = budget_sweep(
        cfg["classes"], cfg["params"], budgets, (PROPOSED, GASP), trials, seed
    )
    out = {PROPOSED: {}, GASP: {}}
    for row in rows:
        out[row.scheme][row.budget] = row.mean_time_s
    return out


def _within(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * want


def test_c5_heterogeneous_curve():
    budgets = [2, 3, 4, 6, 8, 10]
    means = _sweep_means("heterogeneous", budgets, trials=10_000, seed=2024)
    want_proposed = {2: 535.398, 4: 14.168, 6: 3.836, 8: 3.792, 10: 3.817}
    want_gasp = {2: 336.89, 4: 64.92, 6: 23.473, 8: 7.782, 10: 4.331}
    ok = True
    details = []
    for budget, want in want_proposed.items():
        got = means[PROPOSED][budget]
        ok &= _within(got, want, 0.20)
        details.append(f"p{budget}:{got:.3g}")
    for budget, want in want_gasp.items():
        got = means[GASP][budget]
        ok &= _within(got, want, 0.20)
        details.append(f"g{budget}:{got:.3g}")
    ordering = all(
        means[PROPOSED][b] <= means[GASP][b] for b in budgets if b >= 3
    )
    ok &= ordering
    _report(5, "heterogeneous completion times within 20% of the reference curve",
            ok, " ".join(details) + f" ordering={ordering}")


def test_c6_homogeneous_curve():
    budgets = [2, 3, 4, 10]
    means = _sweep_means("homogeneous", budgets, trials=10_000, seed=42)
    want_proposed = {2: 10.135, 3: 4.711, 4: 4.195, 10: 4.311}
    want_gasp = {2: 8.643, 10: 4.54}
    ok = True
    details = []
    for budget, want in want_proposed.items():
        got = means[PROPOSED][budget]
        ok &= _within(got, want, 0.15)
        details.append(f"p{budget}:{got:.3g}")
    for budget, want in want_gasp.items():
        got = means[GASP][budget]
        ok &= _within(got, want, 0.15)
        details.append(f"g{budget}:{got:.3g}")
    _report(6, "homogeneous completion times within 15% of the reference curve",
            ok, " ".join(details))


# -- 7: order-statistics oracle ----------------------------------------------


def test_c7_order_statistics_oracle():
    from bipoly.simulator import WorkerClass, _completion_times, _durations

    n, r, lam, nu = 20, 10, 1.0, 0.1
    classes = (WorkerClass(count=n, lam=lam, nu=nu),)
    durations = _durations(classes, 100_000, np.random.default_rng(7))
    mean = float(_completion_times(durations, 1, [r])[0].mean())
    harmonic = lambda k: sum(1.0 / i for i in range(1, k + 1))
    want = nu + (harmonic(n) - harmonic(n - r)) / lam
    err = abs(mean - want) / want
    _report(7, "single-class mean matches the order-statistics closed form",
            err <= 0.02, f"mean {mean:.5f} vs {want:.5f}, err {err:.3%}")


# -- 8: degree-sum consistency ------------------------------------------------


def test_c8_degree_sum_consistency():
    checked = 0
    ok = True
    for K in range(1, 7):
        for L in range(1, 7):
            for T in range(0, 4):
                for m in range(1, L + 1):
                    p = SchemeParams(K=K, L=L, T=T, m=m, N=1, q=Q31)
                    oracle = support_degree_sum(build_support(p))
                    strip = sum(
                        dx + dy
                        for dx in range(K + T, 2 * K + 2 * T - 1)
                        for dy in range(m)
                    )
                    composed = xi(K + T - 1, L - 1) + strip
                    closed = failure_bound_d(p)
                    ok &= oracle == composed
                    ok &= oracle - closed == m * K
                    checked += 1
    _report(8, "degree-sum oracle matches the rectangle+strip decomposition "
               "and exceeds the closed form by exactly m*K",
            ok, f"{checked} parameter combinations")


# -- 9: upload-cost comparison -------------------------------------------------


def test_c9_upload_cost_strictly_better():
    r = s = c = 60
    n_workers = 10
    bits = field_element_bits(Q31)
    checked = 0
    ok = True
    for K in range(1, 7):
        for L in range(1, 7):
            for T in range(0, 4):
                for m in range(2, L + 1):
                    p = SchemeParams(K=K, L=L, T=T, m=m, N=n_workers, q=Q31)
                    proposed = upload_cost_bits(p, r, s, c)
                    univariate = n_workers * m * (r * s // K + s * c // L) * bits
                    if L <= K:
                        g = GaspParams(K=K, L=L, T=T, m=m)
                        assert univariate == gasp_upload_cost_bits(
                            g, n_workers, r, s, c, Q31
                        )
                    ok &= proposed < univariate
                    checked += 1
    _report(9, "multi-task upload cost is strictly below the univariate cost",
            ok, f"{checked} combinations with m > 1")
