import itertools
import math

import numpy as np
import pytest

from bipoly.bivariate import EvalPoint, SchemeParams, generators
from bipoly.errors import (
    DuplicatePointsError,
    ParameterError,
    TooLargeToEnumerateError,
)
from bipoly import privacy
from bipoly.fieldcore import prime_field
from bipoly.privacy import (
    exhaustive_mi_check,
    mask_matrices,
    perfect_privacy_check,
    sweep_collusion_subsets,
)
from bipoly.scheme import encode, sample_points

Q31 = 2**31 - 1


# -- coefficient matrices ---------------------------------------------------


def test_mask_matrices_single_worker():
    mats = mask_matrices([EvalPoint(3, 5)], K=2, T=1, m=1, q=101)
    assert mats.a_coeffs.shape == (1, 1)
    assert mats.a_coeffs[0, 0] == pow(3, 2, 101)
    assert mats.b_coeffs.shape == (1, 1)
    assert mats.b_coeffs[0, 0] == pow(3, 2, 101)


def test_mask_matrices_vandermonde_example():
    pts = [EvalPoint(1, 0), EvalPoint(2, 0)]
    mats = mask_matrices(pts, K=1, T=2, m=1, q=7)
    assert mats.a_coeffs.tolist() == [[1, 1], [2, 4]]
    # determinant 2 mod 7: full rank
    assert perfect_privacy_check(pts, K=1, T=2, m=1, q=7).passed


def test_mask_matrices_empty_for_t_zero():
    mats = mask_matrices([], K=2, T=0, m=2, q=101)
    assert mats.a_coeffs.shape == (0, 0)
    assert mats.b_coeffs.shape == (0, 0)
    assert perfect_privacy_check([], K=2, T=0, m=2, q=101).passed


def test_mask_matrices_reject_duplicate_tuples():
    with pytest.raises(DuplicatePointsError):
        mask_matrices([EvalPoint(1, 1), EvalPoint(1, 1)], K=1, T=2, m=1, q=7)


def test_zero_x_fails_with_witness():
    chk = perfect_privacy_check([EvalPoint(0, 3)], K=1, T=1, m=1, q=7)
    assert not chk.passed
    assert chk.failed_name == "a_coeffs"
    assert chk.witness is not None and chk.witness[0, 0] == 0


def test_repeated_x_fails_rank():
    pts = [EvalPoint(4, 1), EvalPoint(4, 2)]  # distinct tuples, same x
    chk = perfect_privacy_check(pts, K=1, T=2, m=2, q=101)
    assert not chk.passed


def test_rank_invariant_under_point_permutation():
    pts = [EvalPoint(3, 9), EvalPoint(5, 2), EvalPoint(7, 7)]
    f = prime_field(101)
    base = mask_matrices(pts, K=2, T=3, m=2, q=101)
    for perm in itertools.permutations(pts):
        mats = mask_matrices(list(perm), K=2, T=3, m=2, q=101)
        assert f.rank(mats.a_coeffs) == f.rank(base.a_coeffs)
        assert f.rank(mats.b_coeffs) == f.rank(base.b_coeffs)


@pytest.mark.parametrize("q", [5, 7])
def test_distinct_nonzero_x_always_full_rank(q):
    # exhaustive small-field sweep: any distinct nonzero x pair passes
    for x1, x2 in itertools.permutations(range(1, q), 2):
        for y1 in range(q):
            pts = [EvalPoint(x1, y1), EvalPoint(x2, (y1 + 1) % q)]
            assert perfect_privacy_check(pts, K=1, T=2, m=1, q=q).passed


def test_coefficients_match_encode_differences():
    # column t of a_coeffs (column (t, j) of b_coeffs) must equal the
    # observation change caused by setting exactly that mask to one
    q = 101
    p = SchemeParams(K=1, L=1, T=2, m=1, N=3, q=q)
    f = p.field
    a = f.asarray([[0]])
    b = f.asarray([[0]])
    pts = [EvalPoint(3, 7), EvalPoint(5, 2), EvalPoint(9, 4)]
    # the coalition is workers 1 and 2, so shares[0] and shares[1]
    mats = mask_matrices([pts[0], pts[1]], K=1, T=2, m=1, q=q)
    zero_r = [f.zeros(1, 1) for _ in range(2)]
    zero_s = [[f.zeros(1, 1)] for _ in range(2)]
    base = encode(p, a, b, points=pts, masks_r=zero_r, masks_s=zero_s).shares
    for t in range(2):
        bumped_r = [f.zeros(1, 1) for _ in range(2)]
        bumped_r[t] = f.asarray([[1]])
        enc = encode(p, a, b, points=pts, masks_r=bumped_r, masks_s=zero_s).shares
        for i in range(2):
            delta = (enc[i].share_a - base[i].share_a) % q
            assert delta[0, 0] == mats.a_coeffs[i, t]
    for t in range(2):
        bumped_s = [[f.zeros(1, 1)] for _ in range(2)]
        bumped_s[t] = [f.asarray([[1]])]
        enc = encode(p, a, b, points=pts, masks_r=zero_r, masks_s=bumped_s).shares
        for i in range(2):
            delta = (enc[i].shares_b[0] - base[i].shares_b[0]) % q
            assert delta[0, 0] == mats.b_coeffs[i, t]


@pytest.mark.parametrize("q", [101, Q31, 4611686018427387847])
def test_mask_matrices_are_slices_of_encodes_generators(q):
    # The coalition's mask matrices are the mask columns of the very
    # generators that encode's points give, on the coalition's rows.
    p = SchemeParams(K=3, L=4, T=2, m=3, N=9, q=q)
    rng = np.random.default_rng(q % 1009)
    a = p.field.random_matrix(rng, 6, 4)
    b = p.field.random_matrix(rng, 4, 8)
    points = [sh.point for sh in encode(p, a, b, rng).shares]
    gen_a, gen_b = generators(points, p.K, p.L, p.T, p.m, p.field)
    for _ in range(10):
        rows = [int(i) for i in rng.choice(p.N, size=p.T, replace=False)]
        mats = mask_matrices([points[i] for i in rows], p.K, p.T, p.m, q)
        orders = [i * p.m + o for i in rows for o in range(p.m)]
        assert np.array_equal(mats.a_coeffs, gen_a[rows][:, p.K :])
        assert np.array_equal(mats.b_coeffs, gen_b[orders][:, p.L :])


@pytest.mark.parametrize("K, m", [(-1, 1), (1, -1)])
def test_mask_matrices_reject_negative_dimensions(K, m):
    with pytest.raises(ParameterError, match=">= 0"):
        mask_matrices([EvalPoint(2, 3)], K=K, T=1, m=m, q=101)


# -- batched sweep -----------------------------------------------------------


def test_sweep_agrees_with_single_checks():
    q = 101
    p = SchemeParams(K=2, L=2, T=2, m=2, N=6, q=q)
    rng = np.random.default_rng(8)
    pts = sample_points(p, rng)
    report = sweep_collusion_subsets(pts, p.K, p.T, p.m, q)
    assert report.subsets_checked == math.comb(6, 2)
    failing = set(report.failing_subsets)
    for subset in itertools.combinations(range(6), 2):
        single = perfect_privacy_check(
            [pts[i] for i in subset], p.K, p.T, p.m, q
        )
        assert single.passed == (subset not in failing)
    assert report.passed


def test_sweep_flags_planted_degenerate_point():
    q = 101
    pts = [EvalPoint(3, 1), EvalPoint(3, 2), EvalPoint(7, 5), EvalPoint(9, 1)]
    report = sweep_collusion_subsets(pts, K=1, T=2, m=1, q=q)
    assert not report.passed
    assert (0, 1) in report.failing_subsets


def _oracle_failures(pts, K, T, m, q):
    return tuple(
        sub
        for sub in itertools.combinations(range(len(pts)), T)
        if not perfect_privacy_check([pts[i] for i in sub], K, T, m, q).passed
    )


def test_sweep_matches_rank_oracle_on_random_small_fields():
    # Draw x from {0, 1, 2} so zero and repeated x (with distinct y,
    # since the points are distinct tuples) are common; q in {2, 3}
    # with m up to 4 covers q < m.
    rng = np.random.default_rng(2026)
    seen = {"zero_x": 0, "repeated_x": 0, "q_below_m": 0, "passing": 0}
    for _ in range(150):
        q = int(rng.choice([2, 3, 5, 7]))
        T = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        K = int(rng.integers(1, 4))
        grid = [(x, y) for x in range(min(q, 3)) for y in range(q)]
        if len(grid) < T:
            continue
        n = int(rng.integers(T, min(len(grid), 6) + 1))
        pts = [EvalPoint(*grid[i]) for i in rng.choice(len(grid), n, replace=False)]
        report = sweep_collusion_subsets(pts, K, T, m, q, max_failures=10**9)
        assert report.subsets_checked == math.comb(n, T)
        assert report.failing_subsets == _oracle_failures(pts, K, T, m, q)
        xs = [p.x for p in pts]
        seen["zero_x"] += 0 in xs
        seen["repeated_x"] += len(set(xs)) < len(xs)
        seen["q_below_m"] += q < m
        seen["passing"] += len(report.failing_subsets) < report.subsets_checked
    assert min(seen.values()) > 0, seen


def test_sweep_at_the_largest_prime_matches_rank_oracle():
    q = 4611686018427387847
    rng = np.random.default_rng(5)
    xs = [int(v) for v in rng.integers(1, q, size=4, dtype=np.int64)]
    # plant a repeated x and a zero x among otherwise random points
    pts = [EvalPoint(x, i) for i, x in enumerate(xs + [xs[1], 0])]
    report = sweep_collusion_subsets(pts, K=2, T=2, m=2, q=q, max_failures=10**9)
    assert report.subsets_checked == math.comb(6, 2)
    assert report.failing_subsets == _oracle_failures(pts, 2, 2, 2, q)
    assert (1, 4) in report.failing_subsets and (0, 5) in report.failing_subsets
    assert (0, 1) not in report.failing_subsets


def test_default_sweep_skips_enumeration_when_all_points_pass(monkeypatch):
    # Distinct nonzero residues and q >= m make every coalition private,
    # so the default sweep counts C(N, T) without enumerating; it must
    # still agree with the rank oracle on every subset, T = N and T > N
    # included.  Other draws (repeated or zero residues, q < m) enumerate.
    rng = np.random.default_rng(909)
    seen = {"shortcut": 0, "enumerated": 0, "t_is_n": 0, "t_above_n": 0}
    for _ in range(80):
        q = int(rng.choice([2, 3, 5, 7, 11]))
        n = int(rng.integers(1, min(q, 5) + 1))
        T = int(rng.integers(1, n + 2))
        K = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        xs = rng.choice(q, n, replace=rng.random() < 0.3)
        # Points differ by a multiple of q in x where residues repeat.
        pts = [EvalPoint(int(x) + q * i, int(rng.integers(q))) for i, x in enumerate(xs)]
        want = _oracle_failures(pts, K, T, m, q)
        decided = len(set(xs)) == n and 0 not in xs and q >= m
        with monkeypatch.context() as patched:
            if decided:
                patched.setattr(privacy, "combinations", None)
            report = sweep_collusion_subsets(pts, K, T, m, q, max_failures=10**9)
        assert report.subsets_checked == math.comb(n, T)
        assert report.failing_subsets == want
        seen["shortcut" if decided else "enumerated"] += 1
        seen["t_is_n"] += decided and T == n
        seen["t_above_n"] += decided and T > n
    assert min(seen.values()) > 0, seen


def test_default_sweep_equals_explicit_combinations_on_degenerate_draws():
    # On a draw that fails the all-points check the sweep enumerates
    # coalitions and stops at the cut; it must list the same failing
    # subsets, in the same order and under the same cut, as the rank
    # oracle over itertools.combinations.
    rng = np.random.default_rng(4242)
    seen = {"q_below_m": 0, "zero_x": 0, "repeated_x": 0, "t_above_n": 0}
    for trial in range(120):
        q = int(rng.choice([2, 3, 5, 101]))
        n = int(rng.integers(1, 9))
        T = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        kind = trial % 3
        xs = rng.integers(1, q, size=n)
        if kind == 1:
            xs[rng.integers(n)] = 0
        elif kind == 2 and n >= 2:
            xs[1] = xs[0]
        pts = [EvalPoint(int(x) + q * i, i) for i, x in enumerate(xs)]
        cut = int(rng.integers(1, 30))
        got = sweep_collusion_subsets(pts, 1, T, m, q, max_failures=cut)
        assert got.failing_subsets == _oracle_failures(pts, 1, T, m, q)[:cut]
        assert got.subsets_checked == math.comb(n, T)
        seen["q_below_m"] += q < m
        seen["zero_x"] += 0 in xs
        seen["repeated_x"] += len(set(xs.tolist())) < n
        seen["t_above_n"] += T > n
    assert min(seen.values()) > 0, seen


def test_sweep_rejects_negative_tolerance():
    with pytest.raises(ParameterError, match="T must be >= 0"):
        sweep_collusion_subsets([EvalPoint(3, 1)], K=1, T=-1, m=1, q=101)


def test_sweep_rejects_negative_max_failures():
    # A negative cut once dropped the last failing coalition silently.
    pts = [EvalPoint(3, 1), EvalPoint(3, 2), EvalPoint(7, 5)]
    with pytest.raises(ParameterError, match="max_failures must be >= 0, got -1"):
        sweep_collusion_subsets(pts, K=1, T=2, m=1, q=101, max_failures=-1)
    report = sweep_collusion_subsets(pts, K=1, T=2, m=1, q=101, max_failures=0)
    assert report.failing_subsets == () and report.subsets_checked == 3


@pytest.mark.parametrize("change, match", [
    (dict(max_failures=2.5), "^max_failures=2.5 is not an integer"),
    (dict(T=2.0), "^T=2.0 is not an integer"),
    (dict(q=101.5), r"^q=101\.5 is not an integer"),  # once a report for F_101
])
def test_sweep_names_a_count_that_is_not_an_integer(change, match):
    # These once raised islice's bare ValueError and math.comb's TypeError.
    pts = [EvalPoint(3, 1), EvalPoint(3, 2), EvalPoint(7, 5)]
    with pytest.raises(ParameterError, match=match):
        sweep_collusion_subsets(pts, **{"K": 1, "T": 2, "m": 1, "q": 101, **change})


def test_checks_at_t_zero_see_no_coalition():
    pts = [EvalPoint(3, 1), EvalPoint(3, 2)]
    assert sweep_collusion_subsets(pts, K=1, T=0, m=1, q=101) == privacy.SweepReport(0, ())
    assert exhaustive_mi_check([], K=1, T=0, m=1, q=5) == 0.0


def test_mask_matrices_refuse_a_coalition_of_the_wrong_size():
    with pytest.raises(ParameterError, match="expected 2 coalition points, got 1"):
        mask_matrices([EvalPoint(3, 1)], K=1, T=2, m=1, q=101)


@pytest.mark.parametrize("K, m, match", [(1.5, 1, "^K=1.5 is not"), (1, 2.0, "^m=2.0 is not")])
def test_privacy_check_names_a_count_that_is_not_an_integer(K, m, match):
    # These once raised a bare TypeError from the generator builder.
    with pytest.raises(ParameterError, match=match):
        perfect_privacy_check([EvalPoint(3, 1)], K=K, T=1, m=m, q=101)


@pytest.mark.parametrize("check", [
    sweep_collusion_subsets, mask_matrices, perfect_privacy_check, exhaustive_mi_check,
])
@pytest.mark.parametrize("change, match", [
    (dict(K=-1), "^K must be >= 0, got -1$"),
    (dict(T=-1), "^T must be >= 0, got -1$"),
    (dict(m=-1), "^m must be >= 0, got -1$"),
    (dict(K=2.5), "^K=2.5 is not an integer$"),
    (dict(T=2.0), r"^T=2\.0 is not an integer$"),
    (dict(m="2"), "^m='2' is not an integer$"),
    (dict(q=5.0), r"^q=5\.0 is not an integer$"),
    (dict(points=[EvalPoint(2, 1), (3, 1)]), r"^point 1 is \(3, 1\); expected an EvalPoint$"),
    (dict(points=[EvalPoint(2, 1), EvalPoint(1.5, 1)]), r"^point 1: x=1\.5 is not an integer$"),
    (dict(points=[EvalPoint(2, 1.0), EvalPoint(3, 1)]), r"^point 0: y=1\.0 is not an integer$"),
], ids=["K-negative", "T-negative", "m-negative", "K-float", "T-float", "m-str", "q-float",
        "point-tuple", "x-float", "y-float"])
def test_every_check_refuses_a_bad_count_or_point(check, change, match):
    # One rule for all four: the sweep once passed K = -1, m = -1 and
    # K = 2.5 and raised bare errors for m = '2' and a tuple point, the
    # rank check passed x = 1.5 as x = 1, and the enumeration raised a
    # bare TypeError for T = 2.0.
    args = {"points": [EvalPoint(2, 1), EvalPoint(3, 1)], "K": 1, "T": 2, "m": 1, "q": 5}
    with pytest.raises(ParameterError, match=match):
        check(**{**args, **change})


# -- exhaustive mutual information --------------------------------------------


def test_mi_zero_for_masked_toy_instance():
    assert exhaustive_mi_check([EvalPoint(1, 1)], K=1, T=1, m=1, q=3) == 0.0


def test_mi_positive_when_left_masks_zeroed():
    mi = exhaustive_mi_check(
        [EvalPoint(1, 1)], K=1, T=1, m=1, q=3, zero_r_masks=True
    )
    assert mi == pytest.approx(math.log2(3), rel=1e-12)


def test_mi_positive_for_zero_x_point():
    mi = exhaustive_mi_check([EvalPoint(0, 1)], K=1, T=1, m=1, q=3)
    assert mi > 1.0  # both scalars leak outright


def test_mi_agrees_with_rank_criterion():
    # rank PASS -> MI exactly 0; planted rank FAIL -> MI > 0
    for q in (3, 5):
        for t in (1, 2):
            if q - 1 < t:
                continue
            for m in (1, 2):
                pts = [EvalPoint(1 + i, (2 * i + 1) % q) for i in range(t)]
                assert perfect_privacy_check(pts, 1, t, m, q).passed
                assert exhaustive_mi_check(pts, 1, t, m, q) == 0.0
    bad = [EvalPoint(0, 1)]
    assert not perfect_privacy_check(bad, 1, 1, 2, 5).passed
    assert exhaustive_mi_check(bad, 1, 1, 2, 5) > 0.0


def test_mi_rejects_infeasible_requests():
    with pytest.raises(TooLargeToEnumerateError):
        exhaustive_mi_check(
            [EvalPoint(i + 1, i) for i in range(2)], K=1, T=2, m=2, q=101
        )
    with pytest.raises(ParameterError):
        exhaustive_mi_check([EvalPoint(1, 1)], K=2, T=1, m=1, q=7)
