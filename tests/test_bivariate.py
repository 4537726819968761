import numpy as np
import pytest

import bipoly
from bipoly.bivariate import (
    EvalPoint,
    SchemeParams,
    build_support,
    derivative_row,
    eval_coded_a,
    eval_coded_b_derivative,
    falling_factorial,
    generators,
    support_degree_sum,
    xi,
)
from bipoly.errors import InvalidOrderError, ParameterError
from bipoly.fieldcore import prime_field
from bipoly.scheme import recovery_threshold

Q31 = 2**31 - 1


def params(K, L, T, m, N=1, q=Q31):
    return SchemeParams(K=K, L=L, T=T, m=m, N=N, q=q)


def scalar(v, q=Q31):
    return prime_field(q).asarray([[v]])


# -- parameter invariants -------------------------------------------------


def test_params_reject_m_above_l():
    with pytest.raises(ParameterError, match="m <= L"):
        params(2, 2, 1, 3)


def test_params_reject_small_field():
    with pytest.raises(ParameterError, match="2K\\+2T-2"):
        SchemeParams(K=5, L=5, T=3, m=1, N=1, q=2)
    with pytest.raises(ParameterError, match="q >= N"):
        SchemeParams(K=1, L=1, T=0, m=1, N=10, q=7)


def test_params_reject_composite_q():
    with pytest.raises(Exception):
        params(1, 1, 0, 1, q=15)


@pytest.mark.parametrize(
    "name, value", [("K", 2.5), ("L", "3"), ("T", None), ("m", 1.0), ("N", 4.0), ("q", 101.0),
                    ("q", "101")],
)
def test_params_name_a_field_that_is_not_an_integer(name, value):
    fields = dict(K=2, L=3, T=1, m=1, N=4, q=101)
    fields[name] = value
    with pytest.raises(ParameterError, match=f"^{name}={value!r} is not an integer"):
        SchemeParams(**fields)


def test_params_refuse_a_negative_tolerance():
    with pytest.raises(ParameterError, match="^T must be >= 0, got -1"):
        SchemeParams(K=2, L=3, T=-1, m=1, N=4, q=101)


def test_xi_refuses_a_negative_corner():
    with pytest.raises(ParameterError, match=r"corners must be >= 0, got \(-1, 2\)"):
        xi(-1, 2)


def test_xi_names_a_corner_that_is_not_an_integer():
    with pytest.raises(ParameterError, match=r"^a=1\.5 is not an integer"):
        xi(1.5, 2)  # once 10.5


def test_params_take_numpy_integers_as_python_ints():
    p = SchemeParams(*(np.int64(v) for v in (2, 3, 1, 2)), N=np.uint8(4), q=np.int32(101))
    assert p == params(2, 3, 1, 2, N=4, q=101)
    assert all(type(v) is int for v in (p.K, p.L, p.T, p.m, p.N, p.q))
    assert recovery_threshold(p) == 13


# -- monomial support -----------------------------------------------------


def test_support_sizes():
    assert len(build_support(params(5, 5, 3, 1))) == 47
    assert len(build_support(params(2, 2, 1, 2))) == 10
    assert build_support(params(1, 1, 0, 1)) == ((0, 0),)


def test_every_exported_name_resolves():
    missing = [name for name in bipoly.__all__ if not hasattr(bipoly, name)]
    assert missing == []
    assert type(build_support(params(2, 2, 1, 2))) is tuple


def test_support_exact_entries_small_case():
    got = build_support(params(2, 2, 1, 2))
    want = tuple(
        sorted(
            {(dx, dy) for dx in range(3) for dy in range(2)}
            | {(dx, dy) for dx in (3, 4) for dy in range(2)}
        )
    )
    assert got == want
    assert len(set(got)) == len(got)


def test_support_size_equals_recovery_threshold():
    for K in range(1, 5):
        for L in range(1, 5):
            for T in range(0, 3):
                for m in range(1, L + 1):
                    p = params(K, L, T, m)
                    support = build_support(p)
                    assert len(support) == recovery_threshold(p)
                    # Decode solves for the first K*L columns: x^k y^l, k < K, l < L.
                    assert support[: K * L] == tuple(
                        (k, l) for k in range(K) for l in range(L)
                    )


# -- polynomial evaluation ------------------------------------------------


def test_eval_a_at_zero_gives_first_partition():
    p = params(3, 1, 2, 1, q=101)
    f = p.field
    rng = np.random.default_rng(0)
    parts = [f.random_matrix(rng, 2, 3) for _ in range(3)]
    masks = [f.random_matrix(rng, 2, 3) for _ in range(2)]
    assert np.array_equal(eval_coded_a(p, parts, masks, 0), parts[0])


def test_eval_a_constant_when_single_part_unmasked():
    p = params(1, 1, 0, 1, q=101)
    a = scalar(42, 101)
    for x in (0, 1, 57, 100):
        assert np.array_equal(eval_coded_a(p, [a], [], x), a)


def test_eval_a_hand_example():
    # scalar partitions (2, 3), mask (5): 2 + 3*2 + 5*4 = 28 = 0 mod 7
    p = params(2, 1, 1, 1, q=7)
    out = eval_coded_a(p, [scalar(2, 7), scalar(3, 7)], [scalar(5, 7)], 2)
    assert out[0, 0] == 0


def test_eval_b_derivative_order0_origin():
    p = params(2, 3, 1, 2, q=101)
    f = p.field
    rng = np.random.default_rng(1)
    parts = [f.random_matrix(rng, 3, 2) for _ in range(3)]
    masks = [[f.random_matrix(rng, 3, 2) for _ in range(2)]]
    out = eval_coded_b_derivative(p, parts, masks, EvalPoint(0, 0), 0)
    assert np.array_equal(out, parts[0])


def test_eval_b_top_derivative_is_constant():
    # with no masks, the (L-1)-th derivative is (L-1)! times the last block
    p = params(1, 3, 0, 3, q=101)
    f = p.field
    rng = np.random.default_rng(2)
    parts = [f.random_matrix(rng, 2, 2) for _ in range(3)]
    want = parts[2] * falling_factorial(2, 2) % 101
    for pt in (EvalPoint(3, 9), EvalPoint(0, 0), EvalPoint(100, 55)):
        assert np.array_equal(eval_coded_b_derivative(p, parts, [], pt, 2), want)


def test_eval_b_derivative_hand_example():
    # B(x,y) = 1 + 4y + 2x^2 + 3x^2 y over F_7; d/dy = 4 + 3x^2 -> 0 at x=1
    p = params(2, 2, 1, 2, q=7)
    parts = [scalar(1, 7), scalar(4, 7)]
    masks = [[scalar(2, 7), scalar(3, 7)]]
    out = eval_coded_b_derivative(p, parts, masks, EvalPoint(1, 5), 1)
    assert out[0, 0] == 0


def test_eval_b_rejects_bad_order():
    p = params(2, 2, 1, 2, q=101)
    f = p.field
    parts = [f.zeros(1, 1) for _ in range(2)]
    masks = [[f.zeros(1, 1) for _ in range(2)]]
    with pytest.raises(InvalidOrderError):
        eval_coded_b_derivative(p, parts, masks, EvalPoint(1, 1), 2)


# -- derivative rows -------------------------------------------------------


def test_derivative_row_order0_is_monomial_row():
    p = params(2, 2, 1, 2, q=101)
    sup = build_support(p)
    f = p.field
    pt = EvalPoint(5, 9)
    row = derivative_row(sup, pt, 0, f)
    want = [pow(5, dx, 101) * pow(9, dy, 101) % 101 for dx, dy in sup]
    assert list(row) == want


def test_derivative_row_order1_pattern():
    # order-1 row: zeros on y-degree-0 monomials, powers of x on the rest
    p = params(2, 2, 1, 2, q=101)
    sup = build_support(p)
    f = p.field
    x = 7
    row = derivative_row(sup, EvalPoint(x, 3), 1, f)
    expect = {
        (0, 0): 0, (1, 0): 0, (2, 0): 0, (3, 0): 0, (4, 0): 0,
        (0, 1): 1,
        (1, 1): x,
        (2, 1): pow(x, 2, 101),
        (3, 1): pow(x, 3, 101),
        (4, 1): pow(x, 4, 101),
    }
    for col, pair in enumerate(sup):
        assert row[col] == expect[pair]


def naive_derivative_eval(coeff_grid, x, y, order, q):
    """Differentiate a dense coefficient grid `order` times in y, then
    evaluate by nested Horner: an oracle independent of derivative_row."""
    max_dx = len(coeff_grid)
    max_dy = len(coeff_grid[0])
    diff = [[0] * max_dy for _ in range(max_dx)]
    for dx in range(max_dx):
        for dy in range(order, max_dy):
            diff[dx][dy - order] = (
                coeff_grid[dx][dy] * falling_factorial(dy, order)
            ) % q
    total = 0
    for dx in reversed(range(max_dx)):
        inner = 0
        for dy in reversed(range(max_dy)):
            inner = (inner * y + diff[dx][dy]) % q
        total = (total * x + inner) % q
    return total


def test_derivative_row_contracts_like_direct_evaluation():
    p = params(3, 3, 1, 2, q=101)
    sup = build_support(p)
    f = p.field
    rng = np.random.default_rng(7)
    for _ in range(100):
        coeffs = {pair: int(rng.integers(101)) for pair in sup}
        grid = [[0] * 3 for _ in range(2 * 3 + 2 * 1 - 1)]
        for (dx, dy), v in coeffs.items():
            grid[dx][dy] = v
        pt = EvalPoint(int(rng.integers(101)), int(rng.integers(101)))
        order = int(rng.integers(2))
        row = derivative_row(sup, pt, order, f)
        contracted = sum(
            int(row[i]) * coeffs[pair] for i, pair in enumerate(sup)
        ) % 101
        assert contracted == naive_derivative_eval(grid, pt.x, pt.y, order, 101)


# -- degree bookkeeping ----------------------------------------------------


def test_xi_values():
    assert xi(0, 0) == 0
    assert xi(1, 1) == 4
    assert xi(2, 1) == 9


def test_xi_matches_rectangle_enumeration():
    for a in range(11):
        for b in range(11):
            brute = sum(i + j for i in range(a + 1) for j in range(b + 1))
            assert xi(a, b) == brute


def test_support_degree_sum_values():
    assert support_degree_sum(build_support(params(1, 1, 0, 1))) == 0
    assert support_degree_sum(build_support(params(2, 2, 1, 2))) == 25
    assert support_degree_sum(build_support(params(5, 5, 3, 1))) == 297


# -- generators ------------------------------------------------------------


@pytest.mark.parametrize("q", [101, Q31, 4611686018427387847])
def test_generator_rows_are_the_one_point_evaluations(q):
    # Row i of gen_a evaluates the left polynomial at x_i, and row
    # (i, order) of gen_b the order-th y-derivative of the right one.
    p = params(2, 3, 2, 2, N=3, q=q)
    f = p.field
    rng = np.random.default_rng(q % 97)
    parts_a = [f.random_matrix(rng, 2, 3) for _ in range(p.K)]
    masks_r = [f.random_matrix(rng, 2, 3) for _ in range(p.T)]
    parts_b = [f.random_matrix(rng, 3, 2) for _ in range(p.L)]
    masks_s = [[f.random_matrix(rng, 3, 2) for _ in range(p.m)] for _ in range(p.T)]
    points = [EvalPoint(int(rng.integers(q)), int(rng.integers(q))) for _ in range(p.N)]
    gen_a, gen_b = generators(points, p.K, p.L, p.T, p.m, f)
    assert gen_a.shape == (p.N, p.K + p.T)
    assert gen_b.shape == (p.N * p.m, p.L + p.T * p.m)
    stacked_a = parts_a + masks_r
    stacked_b = parts_b + [s for row in masks_s for s in row]
    for i, pt in enumerate(points):
        want = sum(int(g) * blk.astype(object) for g, blk in zip(gen_a[i], stacked_a)) % q
        assert np.array_equal(eval_coded_a(p, parts_a, masks_r, pt.x), want)
        for order in range(p.m):
            row = gen_b[i * p.m + order]
            want = sum(int(g) * blk.astype(object) for g, blk in zip(row, stacked_b)) % q
            got = eval_coded_b_derivative(p, parts_b, masks_s, pt, order)
            assert np.array_equal(got, want)
