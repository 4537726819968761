import re
from dataclasses import replace

import numpy as np
import pytest

from bipoly.bivariate import EvalPoint, SchemeParams, build_support, falling_factorial
from bipoly.errors import (
    BipolyError,
    BudgetTooSmallError,
    DecodeSingularError,
    DimensionMismatchError,
    DuplicatePointsError,
    FieldTooSmallError,
    IndivisibleDimensionsError,
    InvalidOrderError,
    NotEnoughResponsesError,
    OrderViolationError,
    ParameterError,
    ResponseContractError,
)
from bipoly.fieldcore import prime_field
from bipoly.scheme import (
    compute_all,
    decode,
    encode,
    failure_bound_d,
    field_element_bits,
    interpolation_matrix,
    max_m_for_budget,
    random_prefix_subset,
    recovery_threshold,
    sample_points,
    upload_cost_bits,
    validate_responses,
    worker_compute,
)

Q31 = 2**31 - 1
BIG_PRIME = 4611686018427387847  # largest prime below 2**62


def make_params(K, L, T, m, N, q=Q31):
    return SchemeParams(K=K, L=L, T=T, m=m, N=N, q=q)


def run_pipeline(p, r, s, c, seed=0):
    f = p.field
    rng = np.random.default_rng(seed)
    a = f.random_matrix(rng, r, s)
    b = f.random_matrix(rng, s, c)
    enc = encode(p, a, b, rng)
    results = compute_all(enc.shares)
    return a, b, enc, results, rng


# -- coefficient assembly ------------------------------------------------


def test_encode_identity_case():
    # K = L = 1 and T = 0: every share is the whole operand, at any point.
    p = make_params(1, 1, 0, 1, 2, q=101)
    f = p.field
    rng = np.random.default_rng(0)
    a = f.random_matrix(rng, 3, 4)
    b = f.random_matrix(rng, 4, 5)
    for sh in encode(p, a, b, rng).shares:
        assert np.array_equal(sh.share_a, a)
        assert len(sh.shares_b) == 1 and np.array_equal(sh.shares_b[0], b)


def test_encode_block_layout():
    # Row blocks of A and column blocks of B, sliced here, against every
    # share of a masked encoding with two derivative shares per worker.
    p = make_params(2, 3, 1, 2, 6, q=101)
    a, b, enc, _, _ = run_pipeline(p, 4, 3, 6, seed=1)
    parts_a, parts_b = _blocks(p, a, b)
    assert enc.masks_r.shape == (1, 2, 3) and enc.masks_s.shape == (1, 2, 3, 2)
    for sh in enc.shares:
        want_a = _share_a_by_python_ints(p, parts_a, enc.masks_r, sh.point.x)
        assert np.array_equal(sh.share_a, want_a)
        for order, blk in enumerate(sh.shares_b):
            want_b = _share_b_by_python_ints(p, parts_b, enc.masks_s, sh.point, order)
            assert np.array_equal(blk, want_b)


def test_encode_rejects_indivisible():
    f = prime_field(101)
    rng = np.random.default_rng(0)
    with pytest.raises(IndivisibleDimensionsError, match="K=3 does not divide r=4"):
        encode(make_params(3, 1, 0, 1, 1, q=101), f.zeros(4, 2), f.zeros(2, 2), rng)
    with pytest.raises(IndivisibleDimensionsError, match="L=2 does not divide c=3"):
        encode(make_params(1, 2, 0, 1, 1, q=101), f.zeros(4, 2), f.zeros(2, 3), rng)


def test_encode_refuses_unequal_inner_dimensions_as_a_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatchError, match=r"A is \(4, 3\), B is \(4, 4\)"):
        encode(make_params(2, 2, 0, 1, 1, q=101), _zeros(4, 3), _zeros(4, 4), rng)


def _zeros(*shape):
    return np.zeros(shape, dtype=np.int64)


# T = 2 and m = 2 on a (4, 3) @ (3, 4) product with K = L = 2: masks_r
# holds 2 blocks of (2, 3), masks_s a 2 x 2 grid of (3, 2) blocks.
GOOD_R, GOOD_S = [_zeros(2, 3)] * 2, [[_zeros(3, 2)] * 2] * 2


@pytest.mark.parametrize(
    "masks_r, masks_s, message",
    [
        ([_zeros(2, 3)], GOOD_S, "A-side masks: expected 2 blocks"),
        ([_zeros(2, 3), _zeros(3, 2)], GOOD_S,
         r"A-side masks: a block of shape \(3, 2\), not \(2, 3\)"),
        (GOOD_R, [[_zeros(3, 2)] * 2], "B-side masks: expected 2 x 2 blocks"),
        (GOOD_R, [[_zeros(3, 2)]] * 2, "B-side masks: expected 2 x 2 blocks"),
        (GOOD_R, [[_zeros(3, 2), _zeros(3, 3)]] * 2,
         r"B-side masks: a block of shape \(3, 3\), not \(3, 2\)"),
        (5, GOOD_S, "A-side masks: expected 2 blocks"),
        (GOOD_R, 5, "B-side masks: expected 2 x 2 blocks"),
        (GOOD_R, [5, 5], "B-side masks: expected 2 x 2 blocks"),
        ([_zeros(2, 3), [[1, 2, 3], [4]]], GOOD_S,
         "A-side masks: a block is a ragged nested sequence, not a rectangular array"),
        (GOOD_R, [[_zeros(3, 2), [[1], [2, 3], [4]]]] * 2,
         "B-side masks: a block is a ragged nested sequence, not a rectangular array"),
    ],
)
def test_encode_names_the_side_of_injected_masks_of_wrong_count_or_shape(
    masks_r, masks_s, message
):
    p = make_params(2, 2, 2, 2, 8, q=101)
    a, b, rng = _zeros(4, 3), _zeros(3, 4), np.random.default_rng(0)
    encode(p, a, b, rng, masks_r=GOOD_R, masks_s=GOOD_S)
    with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
        encode(p, a, b, rng, masks_r=masks_r, masks_s=masks_s)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("shape", [(16,), (2, 2, 4)])
def test_encode_names_an_operand_that_is_not_2d(side, shape):
    p = make_params(2, 2, 1, 2, 8, q=101)
    good, bad = p.field.zeros(4, 4), np.zeros(shape, dtype=np.int64)
    a, b = (bad, good) if side == "A" else (good, bad)
    with pytest.raises(DimensionMismatchError, match=rf"^{side} must be a 2-D matrix, got shape "
                       + re.escape(str(shape))):
        encode(p, a, b, np.random.default_rng(0))


def test_encode_takes_list_operands_and_refuses_string_ones():
    p = make_params(2, 2, 1, 2, 8, q=101)
    f = p.field
    rng = np.random.default_rng(4)
    a, b = f.random_matrix(rng, 4, 6), f.random_matrix(rng, 6, 4)
    listed = encode(p, a.tolist(), b.tolist(), np.random.default_rng(1)).shares
    ref = encode(p, a, b, np.random.default_rng(1)).shares
    assert bytes(listed.blob()) == bytes(ref.blob())
    assert np.array_equal(decode(p, compute_all(listed)).assembled, f.mat_mul(a, b))
    with pytest.raises(BipolyError, match="^A holds <U"):
        encode(p, a.astype(str), b, np.random.default_rng(1))


@pytest.mark.parametrize("side", ["A", "B"])
def test_encode_names_a_ragged_operand(side):
    p = make_params(2, 2, 1, 2, 8, q=101)
    good, ragged = p.field.zeros(4, 4), [[1, 2, 3, 4], [1, 2], [1, 2, 3, 4], [1, 2, 3, 4]]
    a, b = (ragged, good) if side == "A" else (good, ragged)
    with pytest.raises(DimensionMismatchError, match=f"^{side} is a ragged nested sequence"):
        encode(p, a, b, np.random.default_rng(0))


# -- evaluation points -------------------------------------------------------


def test_sample_points_deterministic():
    p = make_params(2, 2, 1, 2, 9, q=101)
    pts1 = sample_points(p, np.random.default_rng(5))
    pts2 = sample_points(p, np.random.default_rng(5))
    assert pts1 == pts2


def test_sample_points_distinct_and_masked_safe():
    p = make_params(2, 2, 1, 2, 90, q=101)
    pts = sample_points(p, np.random.default_rng(6))
    assert len(set(pts)) == len(pts)
    xs = [pt.x for pt in pts]
    assert 0 not in xs
    assert len(set(xs)) == len(xs)


def test_sample_points_field_too_small():
    p = make_params(1, 1, 0, 1, 7, q=7)
    sample_points(p, np.random.default_rng(0))  # N == q is fine when T == 0
    p1 = make_params(1, 1, 1, 1, 7, q=7)
    with pytest.raises(FieldTooSmallError):
        sample_points(p1, np.random.default_rng(0))


# -- encode ------------------------------------------------------------------


def test_encode_unmasked_at_origin_exposes_first_blocks():
    p = make_params(2, 2, 0, 1, 1, q=101)
    f = p.field
    rng = np.random.default_rng(2)
    a = f.random_matrix(rng, 4, 3)
    b = f.random_matrix(rng, 3, 4)
    enc = encode(p, a, b, rng, points=[EvalPoint(0, 0)])
    assert np.array_equal(enc.shares[0].share_a, a[:2])
    assert np.array_equal(enc.shares[0].shares_b[0], b[:, :2])


def test_encode_share_shapes():
    p = make_params(2, 3, 1, 2, 5, q=101)
    a, b, enc, _, _ = run_pipeline(p, 4, 5, 6)
    for sh in enc.shares:
        assert sh.share_a.shape == (2, 5)
        assert len(sh.shares_b) == 2
        for blk in sh.shares_b:
            assert blk.shape == (5, 2)
    assert len(enc.masks_r) == 1
    assert len(enc.masks_s) == 1 and len(enc.masks_s[0]) == 2


def test_encode_rejects_float_input():
    # Truncating 1.7 and 1.5 to 1 would decode to a wrong product.
    p = make_params(2, 2, 1, 2, 7, q=101)
    rng = np.random.default_rng(0)
    with pytest.raises(BipolyError, match="^A holds float64 entries, not integers$"):
        encode(p, np.full((4, 4), 1.7), np.eye(4) * 1.5, rng)
    with pytest.raises(BipolyError, match="^B holds complex128 entries, not integers$"):
        encode(p, np.eye(4, dtype=np.int64), np.eye(4) * 1j, rng)


def test_encode_requires_rng_or_full_injection():
    p = make_params(1, 1, 0, 1, 1, q=101)
    f = p.field
    a = f.zeros(2, 2)
    b = f.zeros(2, 2)
    with pytest.raises(ParameterError):
        encode(p, a, b)
    enc = encode(p, a, b, points=[EvalPoint(1, 1)], masks_r=[], masks_s=[])
    assert len(enc.shares) == 1


POINTS_101 = [EvalPoint(3, 7), EvalPoint(5, 2), EvalPoint(9, 4), EvalPoint(11, 0)]


@pytest.mark.parametrize(
    "worker, point, error, match",
    [
        (2, EvalPoint(101, 3), ParameterError, r"worker 2: x=101 is not a field element"),
        (3, EvalPoint(4, -1), ParameterError, r"worker 3: y=-1 is not a field element"),
        (4, EvalPoint(2**64, 1), ParameterError, r"worker 4: x=18446744073709551616"),
        (1, EvalPoint(2.5, 1), ParameterError, r"worker 1: x=2.5 is not a field element"),
        (2, EvalPoint(0, 3), ParameterError, r"worker 2: x=0 with T=1 .* unmasked A block"),
        (3, EvalPoint(3, 8), DuplicatePointsError, r"workers 1 and 3 share x=3"),
    ],
)
def test_encode_refuses_injected_points_heads_cannot_hold_or_that_break_privacy(
    worker, point, error, match
):
    p = make_params(2, 2, 1, 2, 4, q=101)
    f = p.field
    rng = np.random.default_rng(4)
    a, b = f.random_matrix(rng, 4, 4), f.random_matrix(rng, 4, 4)
    points = list(POINTS_101)
    points[worker - 1] = point
    with pytest.raises(error, match=match):
        encode(p, a, b, rng, points=points)


def test_encode_at_t0_allows_repeated_and_zero_x_but_not_other_bad_points():
    p = make_params(2, 2, 0, 2, 4, q=101)
    f = p.field
    rng = np.random.default_rng(4)
    a, b = f.random_matrix(rng, 4, 4), f.random_matrix(rng, 4, 4)
    points = [EvalPoint(0, 1), EvalPoint(0, 1), EvalPoint(5, 2), EvalPoint(5, 3)]
    enc = encode(p, a, b, rng, points=points)
    assert [sh.point for sh in enc.shares] == points
    with pytest.raises(ParameterError, match=r"worker 4: y=101"):
        encode(p, a, b, rng, points=points[:3] + [EvalPoint(5, 101)])
    with pytest.raises(ParameterError, match="expected 4 evaluation points, got 3"):
        encode(p, a, b, rng, points=points[:3])


def test_upload_cost_formula():
    # one element for each matrix in the smallest possible instance
    p = make_params(1, 1, 0, 1, 1, q=2)
    assert upload_cost_bits(p, 1, 1, 1) == 2
    # doubling m adds exactly N * sc/L elements
    p1 = make_params(2, 2, 1, 1, 5, q=Q31)
    p2 = make_params(2, 2, 1, 2, 5, q=Q31)
    delta = upload_cost_bits(p2, 4, 6, 8) - upload_cost_bits(p1, 4, 6, 8)
    assert delta == 5 * 6 * 4 * field_element_bits(Q31)


@pytest.mark.parametrize("dims, match", [
    ((4, -4, 4), "dims need s >= 0, got s=-4"),
    ((-4, 4, 4), "dims need r >= 1 for a product block, got r=-4"),
    ((4.0, 4, 4), "^r=4.0 is not an integer"),
])
def test_upload_cost_refuses_dims_that_encode_refuses(dims, match):
    # s = -4 once cost -1344 bits and r = 4.0 cost 1344.0.
    with pytest.raises(IndivisibleDimensionsError, match=match):
        upload_cost_bits(make_params(2, 2, 1, 2, 5, q=101), *dims)


def test_max_m_for_budget():
    assert max_m_for_budget(2, 5) == 1
    assert max_m_for_budget(3, 5) == 2
    assert max_m_for_budget(6, 5) == 5
    assert max_m_for_budget(10, 5) == 5
    assert max_m_for_budget(9, 1) == 1
    with pytest.raises(BudgetTooSmallError):
        max_m_for_budget(1, 5)
    # These once returned 0 and -3, an m no SchemeParams accepts.
    for cap in (0, -3):
        with pytest.raises(ParameterError, match=f"^cap l must be >= 1, got {cap}$"):
            max_m_for_budget(5, cap)


# -- worker computation -------------------------------------------------------


def test_worker_compute_products_and_order_guard():
    p = make_params(2, 2, 1, 2, 5, q=101)
    _, _, enc, _, _ = run_pipeline(p, 4, 3, 4)
    f = p.field
    sh = enc.shares[0]
    res = worker_compute(sh, 0)
    assert res.product.shape == (2, 2)
    assert np.array_equal(res.product, f.mat_mul(sh.share_a, sh.shares_b[0]))
    with pytest.raises(InvalidOrderError):
        worker_compute(sh, 2)


@pytest.mark.parametrize("order", [1.5, "0", None])
def test_worker_compute_names_an_order_that_is_not_an_integer(order):
    p = make_params(2, 2, 1, 2, 5, q=101)
    _, _, enc, _, _ = run_pipeline(p, 4, 3, 4)
    with pytest.raises(InvalidOrderError,
                       match=f"^worker 1: order={re.escape(repr(order))} is not an integer"):
        worker_compute(enc.shares[0], order)
    assert type(worker_compute(enc.shares[0], np.int64(1)).order) is int


def test_worker_product_matches_polynomial_oracle():
    # scalar instance: the computed product must equal the derivative of
    # the coefficient-convolution polynomial evaluated at the point
    p = make_params(1, 1, 1, 1, 3, q=101)
    f = p.field
    rng = np.random.default_rng(3)
    a = f.random_matrix(rng, 1, 1)
    b = f.random_matrix(rng, 1, 1)
    enc = encode(p, a, b, rng)
    # dense coefficient grids of the two masked polynomials
    acoef = [int(a[0, 0])] + [int(mk[0, 0]) for mk in enc.masks_r]
    bgrid = {(0, 0): int(b[0, 0])}
    for t, row in enumerate(enc.masks_s):
        for j, mk in enumerate(row):
            bgrid[(1 + t, j)] = int(mk[0, 0])
    prod = {}
    for i, av in enumerate(acoef):
        for (dx, dy), bv in bgrid.items():
            key = (i + dx, dy)
            prod[key] = (prod.get(key, 0) + av * bv) % 101
    for sh in enc.shares:
        res = worker_compute(sh, 0)
        direct = sum(
            v * pow(sh.point.x, dx, 101) * pow(sh.point.y, dy, 101)
            for (dx, dy), v in prod.items()
        ) % 101
        assert int(res.product[0, 0]) == direct


def test_compute_all_visits_orders_ascending():
    p = make_params(2, 2, 1, 2, 4, q=101)
    _, _, _, results, _ = run_pipeline(p, 4, 3, 4)
    assert len(results) == 8
    per_worker = {}
    for r in results:
        per_worker.setdefault(r.worker_id, []).append(r.order)
    assert all(orders == [0, 1] for orders in per_worker.values())


@pytest.mark.parametrize("q", [101, Q31, BIG_PRIME])
def test_compute_all_equals_per_order_worker_compute(q):
    p = make_params(2, 2, 1, 2, 6, q=q)
    _, _, enc, results, _ = run_pipeline(p, 4, 70, 4, seed=3)
    want = [worker_compute(sh, order) for sh in enc.shares for order in range(p.m)]
    assert [(r.worker_id, r.order, r.point) for r in results] == [
        (w.worker_id, w.order, w.point) for w in want
    ]
    for got, ref in zip(results, want):
        assert got.product.dtype == np.int64
        assert np.array_equal(got.product, ref.product)
    # Hand-built shares: B shares of unequal widths, and none at all.
    sh = enc.shares[1]
    uneven = replace(sh, shares_b=(sh.shares_b[0][:, :1], sh.shares_b[1]))
    empty = replace(enc.shares[0], shares_b=())
    out = compute_all([empty, uneven])
    assert [(r.worker_id, r.order) for r in out] == [(2, 0), (2, 1)]
    for order, res in enumerate(out):
        assert np.array_equal(res.product, worker_compute(uneven, order).product)
    assert compute_all([empty]) == []
    with pytest.raises(DimensionMismatchError):
        compute_all([replace(sh, shares_b=(sh.shares_b[0], sh.shares_b[1][:-1]))])


def test_worker_compute_takes_list_blocks():
    p = make_params(2, 2, 1, 2, 6, q=101)
    _, _, enc, results, _ = run_pipeline(p, 4, 5, 4)
    sh = enc.shares[2]
    listed = replace(
        sh, share_a=sh.share_a.tolist(), shares_b=tuple(blk.tolist() for blk in sh.shares_b)
    )
    want = [res.product.tolist() for res in results if res.worker_id == sh.worker_id]
    assert [worker_compute(listed, order).product.tolist() for order in range(p.m)] == want
    assert [res.product.tolist() for res in compute_all([listed])] == want
    with pytest.raises(DimensionMismatchError, match="cannot multiply shapes"):
        worker_compute(replace(listed, shares_b=(listed.shares_b[0][:-1],)), 0)


def _blocks(p, a, b):
    """The K row blocks of A and the L column blocks of B, sliced one by one."""
    br, bc = a.shape[0] // p.K, b.shape[1] // p.L
    parts_a = [a[i * br : (i + 1) * br, :] for i in range(p.K)]
    parts_b = [b[:, j * bc : (j + 1) * bc] for j in range(p.L)]
    return parts_a, parts_b


def _share_a_by_python_ints(p, parts_a, masks_r, x):
    blocks = list(parts_a) + list(masks_r)
    return sum(blk.astype(object) * pow(x, e, p.q) for e, blk in enumerate(blocks)) % p.q


def _share_b_by_python_ints(p, parts_b, masks_s, pt, order):
    terms = [(blk, 0, j) for j, blk in enumerate(parts_b)]
    terms += [(blk, p.K + t, j) for t, row in enumerate(masks_s) for j, blk in enumerate(row)]
    return sum(
        blk.astype(object)
        * (falling_factorial(j, order) * pow(pt.x, dx, p.q) * pow(pt.y, j - order, p.q))
        for blk, dx, j in terms
        if j >= order
    ) % p.q


@pytest.mark.parametrize("q", [Q31, BIG_PRIME])
def test_encode_and_compute_span_several_column_tiles(q):
    # 40 workers and 900-word A shares give generator products wider than
    # one column tile of the kernel, on its float64 and Python-int paths.
    p = make_params(2, 2, 1, 2, 40, q=q)
    a, b, enc, results, _ = run_pipeline(p, 60, 30, 40, seed=12)
    parts_a, parts_b = _blocks(p, a, b)
    for sh in enc.shares:
        want_a = _share_a_by_python_ints(p, parts_a, enc.masks_r, sh.point.x)
        assert np.array_equal(sh.share_a, want_a)
        for order, blk in enumerate(sh.shares_b):
            want_b = _share_b_by_python_ints(p, parts_b, enc.masks_s, sh.point, order)
            assert np.array_equal(blk, want_b)
    for res in results[::9]:
        sh = enc.shares[res.worker_id - 1]
        want = sh.share_a.astype(object).dot(sh.shares_b[res.order].astype(object)) % q
        assert np.array_equal(res.product, want)


# -- closed forms --------------------------------------------------------------


def test_recovery_threshold_values():
    assert recovery_threshold(make_params(5, 5, 3, 1, 51)) == 47
    assert recovery_threshold(make_params(5, 5, 3, 5, 51)) == 75
    assert recovery_threshold(make_params(1, 1, 0, 1, 1)) == 1


def test_failure_bound_values():
    assert failure_bound_d(make_params(2, 2, 1, 2, 5)) == 21
    assert failure_bound_d(make_params(5, 5, 3, 1, 51)) == 292


def test_failure_bound_is_integer_across_sweep():
    for K in range(1, 7):
        for L in range(1, 7):
            for T in range(0, 4):
                for m in range(1, L + 1):
                    failure_bound_d(make_params(K, L, T, m, 1))


# -- interpolation matrix -------------------------------------------------------


def interpolation_rows(p, results):
    """The rows decode builds for a response set, in (worker, order) order."""
    pairs = [(res.point, res.order) for res in validate_responses(p, results)]
    return interpolation_matrix(p, build_support(p), pairs)


def test_interpolation_matrix_shapes_and_pattern():
    p = make_params(2, 2, 1, 2, 4, q=101)
    _, _, _, results, _ = run_pipeline(p, 4, 3, 4)
    sup = build_support(p)
    mat = interpolation_rows(p, results)
    assert mat.shape == (8, 10)
    ordered = validate_responses(p, results)
    # even rows are order-0 monomial evaluations, odd rows their y-derivative
    for i, res in enumerate(ordered):
        x, y = res.point
        for col, (dx, dy) in enumerate(sup):
            if res.order == 0:
                want = pow(x, dx, 101) * pow(y, dy, 101) % 101
            elif dy < 1:
                want = 0
            else:
                want = falling_factorial(dy, 1) * pow(x, dx, 101) * pow(y, dy - 1, 101) % 101
            assert mat[i, col] == want


def test_interpolation_matrix_empty_and_single():
    p = make_params(2, 2, 1, 2, 4, q=101)
    assert interpolation_rows(p, []).shape == (0, 10)
    _, _, _, results, _ = run_pipeline(p, 4, 3, 4)
    assert interpolation_rows(p, results[:1]).shape == (1, 10)


def test_prefix_validation():
    p = make_params(2, 2, 1, 2, 4, q=101)
    _, _, _, results, _ = run_pipeline(p, 4, 3, 4)
    ordered = validate_responses(p, results[::-1])
    assert [(r.worker_id, r.order) for r in ordered] == sorted(
        (r.worker_id, r.order) for r in results
    )
    missing_first = [r for r in ordered if not (r.worker_id == 1 and r.order == 0)]
    with pytest.raises(OrderViolationError):
        validate_responses(p, missing_first)
    with pytest.raises(OrderViolationError):
        validate_responses(p, [ordered[0], ordered[0]])
    with pytest.raises(OrderViolationError, match="worker 1 returned 3 results but m=2"):
        validate_responses(p, ordered[:2] + [replace(ordered[1], order=2)])


# -- decode ---------------------------------------------------------------------


def test_decode_trivial_single_response():
    p = make_params(1, 1, 0, 1, 1, q=101)
    a, b, _, results, _ = run_pipeline(p, 3, 4, 5)
    dec = decode(p, results)
    assert np.array_equal(dec.assembled, p.field.mat_mul(a, b))


@pytest.mark.parametrize("q", [101, Q31, BIG_PRIME])
def test_decode_full_pipeline_matches_oracle(q):
    p = make_params(2, 2, 1, 2, 7, q=q)
    a, b, _, results, rng = run_pipeline(p, 4, 6, 4, seed=9)
    subset = random_prefix_subset(results, recovery_threshold(p), rng)
    dec = decode(p, subset)
    want = a.astype(object).dot(b.astype(object)) % q  # Python-int product
    assert dec.assembled.dtype == np.int64
    assert np.array_equal(dec.assembled, want)
    assert dec.blocks[1][0].shape == (2, 2)


def test_decode_subset_invariance():
    p = make_params(3, 2, 1, 2, 9, q=Q31)
    a, b, _, results, rng = run_pipeline(p, 6, 5, 4, seed=10)
    r_th = recovery_threshold(p)
    seen = None
    for _ in range(4):
        subset = random_prefix_subset(results, r_th, rng)
        out = decode(p, subset).assembled
        if seen is None:
            seen = out
        assert np.array_equal(out, seen)
    assert np.array_equal(seen, p.field.mat_mul(a, b))


def test_decode_requires_threshold_responses():
    p = make_params(2, 2, 1, 2, 5, q=Q31)
    _, _, _, results, rng = run_pipeline(p, 4, 4, 4)
    r_th = recovery_threshold(p)
    subset = random_prefix_subset(results, r_th - 1, rng)
    with pytest.raises(NotEnoughResponsesError):
        decode(p, subset)


def test_decode_rejects_order_violation():
    p = make_params(2, 2, 1, 2, 6, q=Q31)
    _, _, _, results, _ = run_pipeline(p, 4, 4, 4)
    broken = [r for r in results if not (r.worker_id == 1 and r.order == 0)]
    assert len(broken) >= recovery_threshold(p)
    with pytest.raises(OrderViolationError):
        decode(p, broken)


def test_decode_singular_on_repeated_points():
    p = make_params(1, 2, 0, 2, 4, q=101)
    f = p.field
    rng = np.random.default_rng(11)
    a = f.random_matrix(rng, 2, 2)
    b = f.random_matrix(rng, 2, 4)
    # workers 1 and 2 share a point: their order-0 rows are duplicates,
    # so exactly R_th responses drawn from those rows cannot decode
    pts = [EvalPoint(5, 7), EvalPoint(5, 7), EvalPoint(9, 2), EvalPoint(4, 4)]
    enc = encode(p, a, b, rng, points=pts)
    results = compute_all(enc.shares)
    order0 = [r for r in results if r.order == 0 and r.worker_id in (1, 2)]
    assert len(order0) == recovery_threshold(p)
    with pytest.raises(DecodeSingularError):
        decode(p, order0)


def test_decode_rejects_products_of_different_shapes():
    p = make_params(2, 2, 1, 2, 6, q=Q31)
    _, _, _, results, _ = run_pipeline(p, 4, 4, 4)
    bad = list(results)
    bad[-1] = replace(bad[-1], product=bad[-1].product[:, :1])
    with pytest.raises(DimensionMismatchError):
        decode(p, bad)


@pytest.mark.parametrize("flatten", [np.ravel, lambda x: x[np.newaxis]])
def test_decode_rejects_products_that_are_not_2d(flatten):
    p = make_params(2, 2, 1, 2, 6, q=Q31)
    _, _, _, results, _ = run_pipeline(p, 4, 4, 4)
    bad = [replace(res, product=flatten(res.product)) for res in results]
    with pytest.raises(DimensionMismatchError, match="result products must be 2-D"):
        decode(p, bad)


def test_decode_names_a_ragged_product():
    p = make_params(2, 2, 1, 2, 6, q=Q31)
    _, _, _, results, _ = run_pipeline(p, 4, 4, 4)
    bad = list(results)
    bad[3] = replace(bad[3], product=[[1, 2], [3]])
    with pytest.raises(DimensionMismatchError,
                       match="^worker 2 order 1 product is a ragged nested sequence"):
        decode(p, bad)


def test_decode_names_a_product_that_is_not_integers():
    # Once refused by the solve's asarray, which named no worker.
    p = make_params(2, 2, 1, 2, 6, q=Q31)
    _, _, _, results, _ = run_pipeline(p, 4, 4, 4)
    bad = list(results)
    bad[3] = replace(bad[3], product=bad[3].product + 0.0)
    with pytest.raises(DimensionMismatchError,
                       match="^worker 2 order 1 product holds float64 entries, not integers$"):
        decode(p, bad)


def test_decode_rejects_two_points_for_one_worker():
    p = make_params(2, 2, 1, 2, 6, q=Q31)
    _, _, _, results, _ = run_pipeline(p, 4, 4, 4)
    bad = list(results)
    moved = EvalPoint((bad[1].point.x + 1) % Q31, bad[1].point.y)
    assert bad[1].worker_id == bad[0].worker_id
    bad[1] = replace(bad[1], point=moved)
    with pytest.raises(BipolyError, match="one point per worker"):
        decode(p, bad)


def test_decode_names_a_point_that_is_not_an_eval_point():
    p = make_params(2, 2, 1, 2, 6, q=Q31)
    _, _, _, results, _ = run_pipeline(p, 4, 4, 4)
    bad = list(results)
    bad[3] = replace(bad[3], point=tuple(bad[3].point))
    assert (bad[3].worker_id, bad[3].order) == (2, 1)
    with pytest.raises(ResponseContractError, match="^worker 2 order 1 has point .*EvalPoint"):
        decode(p, bad)


@pytest.mark.parametrize(
    "orders, change, match",
    [
        ((1,), lambda res: replace(res, order=None), r"^worker 2 order None: order=None is not"),
        ((1,), lambda res: replace(res, order="1"), r"^worker 2 order 1: order='1' is not"),
        ((1,), lambda res: replace(res, order=1.0), r"^worker 2 order 1.0: order=1.0 is not"),
        ((1,), lambda res: replace(res, worker_id=None),
         r"^worker None order 1: worker_id=None is not an integer"),
        ((0, 1), lambda res: replace(res, point=EvalPoint(-res.point.x, res.point.y)),
         r"^worker 2 order 0: x=-\d+ is not a field element in \[0, q=101\)"),
        ((0, 1), lambda res: replace(res, point=EvalPoint(2**70, res.point.y)),
         r"^worker 2 order 0: x=1180591620717411303424 is not a field element"),
        ((0, 1), lambda res: replace(res, point=EvalPoint(res.point.x + 101, res.point.y)),
         r"^worker 2 order 0: x=\d+ is not a field element"),
        ((0, 1), lambda res: replace(res, point=EvalPoint(87.0, res.point.y)),
         r"^worker 2 order 0: x=87.0 is not a field element"),
    ],
)
def test_decode_names_a_response_that_breaks_the_contract(orders, change, match):
    # Each of these once escaped as a bare TypeError, was reported as an
    # order violation, or decoded to a wrong product with no error.
    p = make_params(2, 2, 1, 2, 8, q=101)
    _, _, _, results, _ = run_pipeline(p, 4, 4, 4)
    bad = [change(res) if res.worker_id == 2 and res.order in orders else res for res in results]
    with pytest.raises(ResponseContractError, match=match):
        decode(p, bad)


def test_decode_mask_freedom():
    # zeroing every mask must not change any extracted block
    p = make_params(2, 2, 2, 2, 8, q=Q31)
    f = p.field
    rng = np.random.default_rng(12)
    a = f.random_matrix(rng, 4, 4)
    b = f.random_matrix(rng, 4, 4)
    pts = sample_points(p, rng)
    masked = encode(p, a, b, rng, points=pts)
    zero_r = [f.zeros(2, 4) for _ in range(2)]
    zero_s = [[f.zeros(4, 2) for _ in range(2)] for _ in range(2)]
    unmasked = encode(p, a, b, points=pts, masks_r=zero_r, masks_s=zero_s)
    d1 = decode(p, compute_all(masked.shares))
    d2 = decode(p, compute_all(unmasked.shares))
    assert np.array_equal(d1.assembled, d2.assembled)


def test_random_prefix_subset_is_prefix_valid():
    p = make_params(2, 2, 1, 2, 6, q=101)
    _, _, _, results, rng = run_pipeline(p, 4, 4, 4)
    for size in (3, 7, 10):
        subset = random_prefix_subset(results, size, rng)
        assert len(subset) == size
        validate_responses(p, subset)
    with pytest.raises(NotEnoughResponsesError):
        random_prefix_subset(results, len(results) + 1, rng)


def test_max_m_for_budget_names_a_budget_that_is_not_an_integer():
    with pytest.raises(ParameterError, match="^budget=3.5 is not an integer"):
        max_m_for_budget(3.5, 5)  # once 2.5


def test_max_m_for_budget_names_a_cap_that_is_not_an_integer():
    with pytest.raises(ParameterError, match=r"^l=2\.5 is not an integer"):
        max_m_for_budget(5, 2.5)  # once 2.5


@pytest.mark.parametrize("size, match", [(-1, "size must be >= 0, got -1"),
                                         (2.5, "^size=2.5 is not an integer")])
def test_random_prefix_subset_refuses_a_size_that_is_no_count(size, match):
    # -1 once gave [] and 2.5 gave three results.
    p = make_params(2, 2, 1, 2, 6, q=101)
    _, _, _, results, rng = run_pipeline(p, 4, 4, 4)
    with pytest.raises(ParameterError, match=match):
        random_prefix_subset(results, size, rng)
