"""End-to-end coded multiplication: encode, worker products, decode.

The master splits A into K row blocks and B into L column blocks, masks
them with uniform random matrices, and hands worker i one evaluation of
the left polynomial plus the first m y-derivatives of the right
polynomial at a private point (x_i, y_i).  Every sub-task result is one
dense block product; any recovery_threshold() of them, taken in
per-worker derivative order, pin down all K*L blocks of A @ B through
one square linear solve.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .bivariate import (
    EvalPoint,
    SchemeParams,
    build_support,
    derivative_matrix,
    generators,
    stack_coefficients_a,
    stack_coefficients_b,
)
from .errors import (
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
from .fieldcore import mat_mul_mod, prime_field
# The share and result records live with their wire layout; scheme
# re-exports them as part of its API.
from .wire import PartialResult, ResultSet, ShareSet, WorkerShare, result_set, share_set


@dataclass(frozen=True)
class DecodedProduct:
    """K x L grid of recovered blocks and their assembly into A @ B."""

    blocks: tuple[tuple[np.ndarray, ...], ...]
    assembled: np.ndarray


class Encoding(NamedTuple):
    shares: ShareSet
    masks_r: list[np.ndarray]
    masks_s: list[list[np.ndarray]]


def recovery_threshold(params: SchemeParams) -> int:
    """Minimum number of in-order sub-task results that determine A @ B."""
    k, l, t, m = params.K, params.L, params.T, params.m
    return (k + t) * l + m * (k + t - 1)


def failure_bound_d(params: SchemeParams) -> int:
    """Closed-form degree bound d; decoding fails with probability <= d/q.

    Evaluated in exact integer arithmetic.  See support_degree_sum for
    the enumeration oracle, which exceeds this expression by m*K.  The
    numerator is even: s*l*(s+l-2) is, and the first term is
    m*(m+1)*(s+1) mod 2.
    """
    k, l, t, m = params.K, params.L, params.T, params.m
    s = k + t
    num = m * (3 * s * s + m * s - 8 * k - 6 * t - m + 3) + s * l * (k + l + t - 2)
    return num // 2


def field_element_bits(q: int) -> int:
    """ceil(log2 q): bits needed to address one field element."""
    return (q - 1).bit_length()


def upload_cost_bits(params: SchemeParams, r: int, s: int, c: int) -> int:
    """Total master-to-worker bits: N(rs/K + m*sc/L) elements."""
    _check_divisible(params, r, c)
    per_worker = r * s // params.K + params.m * s * c // params.L
    return params.N * per_worker * field_element_bits(params.q)


def max_m_for_budget(budget: int, l: int) -> int:
    """Largest m under an upload budget counted in matrix partitions.

    One partition-equivalent carries the A share; the rest carry B
    derivative shares, capped at L.
    """
    if budget < 2:
        raise BudgetTooSmallError(
            f"budget {budget} cannot hold one A share and one B share"
        )
    return min(budget - 1, l)


def _check_divisible(params: SchemeParams, r: int, c: int) -> None:
    if r % params.K:
        raise IndivisibleDimensionsError(f"K={params.K} does not divide r={r}")
    if c % params.L:
        raise IndivisibleDimensionsError(f"L={params.L} does not divide c={c}")


def _array(value, what: str) -> np.ndarray:
    """np.asarray of an operand or product; a ragged nested list names `what`."""
    try:
        return np.asarray(value)
    except ValueError:
        raise DimensionMismatchError(
            f"{what} is a ragged nested sequence, not a rectangular array"
        ) from None


def partition(
    params: SchemeParams, a: np.ndarray, b: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Row blocks of A (height r/K) and column blocks of B (width c/L)."""
    a, b = _array(a, "A"), _array(b, "B")
    for name, operand in (("A", a), ("B", b)):
        if operand.ndim != 2:
            raise DimensionMismatchError(
                f"{name} must be a 2-D matrix, got shape {operand.shape}"
            )
    r, s = a.shape
    s2, c = b.shape
    if s != s2:
        raise IndivisibleDimensionsError(
            f"inner dimensions differ: A is {a.shape}, B is {b.shape}"
        )
    _check_divisible(params, r, c)
    br, bc = r // params.K, c // params.L
    parts_a = [a[i * br : (i + 1) * br, :].copy() for i in range(params.K)]
    parts_b = [b[:, j * bc : (j + 1) * bc].copy() for j in range(params.L)]
    return parts_a, parts_b


def sample_points(params: SchemeParams, rng: np.random.Generator) -> list[EvalPoint]:
    """Uniform evaluation points with pairwise-distinct (x, y) tuples.

    With T >= 1 the x coordinates are additionally pairwise distinct and
    nonzero: x_i = 0 would hand worker i an unmasked A block, and a
    repeated x would let two colluders cancel mask contributions.
    """
    q, n = params.q, params.N
    if q < n:
        raise FieldTooSmallError(f"q={q} < N={n}: not enough points to go around")
    if params.T >= 1:
        if q - 1 < n:
            raise FieldTooSmallError(
                f"q-1={q - 1} < N={n}: masking needs distinct nonzero x coordinates"
            )
        xs: list[int] = []
        seen = set()
        while len(xs) < n:
            cand = int(rng.integers(1, q))
            if cand not in seen:
                seen.add(cand)
                xs.append(cand)
        ys = [int(rng.integers(0, q)) for _ in range(n)]
        return [EvalPoint(x, y) for x, y in zip(xs, ys)]
    points: list[EvalPoint] = []
    taken = set()
    while len(points) < n:
        cand = EvalPoint(int(rng.integers(0, q)), int(rng.integers(0, q)))
        if cand not in taken:
            taken.add(cand)
            points.append(cand)
    return points


def _check_points(params: SchemeParams, points: Sequence[EvalPoint]) -> None:
    """N points that head words can hold and that keep the shares private.

    Every coordinate is an integer in [0, q).  With T >= 1 the x
    coordinates are also nonzero and pairwise distinct, as sample_points
    draws them: that is the condition under which every T-coalition
    learns nothing (privacy.sweep_collusion_subsets).
    """
    q = params.q
    if len(points) != params.N:
        raise ParameterError(f"expected {params.N} evaluation points, got {len(points)}")
    seen: dict[int, int] = {}
    for worker_id, point in enumerate(points, 1):
        for name, value in zip(("x", "y"), point):
            try:
                inside = 0 <= operator.index(value) < q
            except TypeError:
                inside = False
            if not inside:
                raise ParameterError(
                    f"worker {worker_id}: {name}={value!r} is not a field element in [0, q={q})"
                )
        if params.T >= 1:
            x = point[0]
            if x == 0:
                raise ParameterError(
                    f"worker {worker_id}: x=0 with T={params.T} would hand it an unmasked A block"
                )
            if x in seen:
                raise DuplicatePointsError(
                    f"workers {seen[x]} and {worker_id} share x={x}; "
                    f"T={params.T} needs pairwise distinct x coordinates"
                )
            seen[x] = worker_id


def encode(
    params: SchemeParams,
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator | None = None,
    points: Sequence[EvalPoint] | None = None,
    masks_r: Sequence[np.ndarray] | None = None,
    masks_s: Sequence[Sequence[np.ndarray]] | None = None,
) -> Encoding:
    """Produce the N worker shares for multiplying a @ b, as one blob's ShareSet.

    Masks default to fresh uniform draws; points default to
    sample_points().  Both can be injected for deterministic tests;
    injected points must be field elements and, with T >= 1, have
    nonzero, pairwise distinct x.  The returned masks exist for test
    instrumentation only and must never be serialized alongside
    worker-facing data.
    """
    field = params.field
    parts_a, parts_b = partition(params, a, b)
    br, s = parts_a[0].shape
    bc = parts_b[0].shape[1]
    if rng is None and (points is None or masks_r is None or masks_s is None):
        raise ParameterError(
            "encode needs an rng when points or masks are not supplied"
        )
    if points is None:
        points = sample_points(params, rng)
    else:
        _check_points(params, points)
    # Drawn masks are canonical already; only injected ones are reduced.
    if masks_r is None:
        masks_r = [field.random_matrix(rng, br, s) for _ in range(params.T)]
    else:
        masks_r = [field.asarray(mk) for mk in masks_r]
    if masks_s is None:
        masks_s = [
            [field.random_matrix(rng, s, bc) for _ in range(params.m)]
            for _ in range(params.T)
        ]
    else:
        masks_s = [[field.asarray(mk) for mk in row] for row in masks_s]
    # Shares are generator rows times stacked coefficients: one kernel
    # call per side for all N workers, written straight into the share
    # records of the wire blob, so each share is a read-only view of its
    # worker's record.
    coeffs_a = stack_coefficients_a(params, parts_a, masks_r)
    coeffs_b = stack_coefficients_b(params, parts_b, masks_s)
    gen_a, gen_b = generators(points, params.K, params.L, params.T, params.m, field)
    shares, side_a, side_b = share_set(params, (params.K * br, s, params.L * bc), points)
    mat_mul_mod(gen_a, coeffs_a, params.q, out=side_a)
    mat_mul_mod(gen_b, coeffs_b, params.q, out=side_b)
    return Encoding(shares, list(masks_r), [list(row) for row in masks_s])


def worker_compute(share: WorkerShare, order: int) -> PartialResult:
    """One sub-task: multiply the A share by the order-th B share.

    Workers run orders 0, 1, ..., m-1 in sequence; drivers enforce that
    ordering, and decode rejects response sets that break it.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise InvalidOrderError(
            f"order {order!r} for worker {share.worker_id} is not an integer"
        ) from None
    if not 0 <= order < len(share.shares_b):
        raise InvalidOrderError(
            f"order {order} outside [0, {len(share.shares_b) - 1}] "
            f"for worker {share.worker_id}"
        )
    field = prime_field(share.q)
    product = field.mat_mul(share.share_a, share.shares_b[order])
    return PartialResult(
        worker_id=share.worker_id, order=order, point=share.point, product=product
    )


def compute_all(shares: Sequence[WorkerShare]) -> ResultSet | list[PartialResult]:
    """Run every worker through all m sub-tasks in increasing order.

    For a ShareSet each worker's m sub-tasks run as one product of its A
    share with its B shares side by side, so the A share is split once;
    the product is written straight into the worker's m records of one
    result blob, and the blob's ResultSet is returned.  A share list of
    any other kind gives the list of worker_compute's results.
    """
    if not isinstance(shares, ShareSet):
        return [worker_compute(sh, o) for sh in shares for o in range(len(sh.shares_b))]
    results, products = result_set(shares)
    field = shares.params.field
    for share, out in zip(shares, products):
        field.mat_mul(share.share_a, np.concatenate(share.shares_b, axis=1), out=out)
    return results


def sort_responses(results: Sequence[PartialResult]) -> list[PartialResult]:
    """Deterministic master-side ordering: by (worker_id, order)."""
    return sorted(results, key=lambda r: (r.worker_id, r.order))


def validate_prefix(results: Sequence[PartialResult], m: int | None = None) -> None:
    """Check the in-order computation contract.

    Each worker's received orders must be exactly 0..k-1 for some k
    (no gaps, no duplicates), and below m when m is given.
    """
    by_worker: dict[int, list[int]] = {}
    for res in results:
        by_worker.setdefault(res.worker_id, []).append(res.order)
    for wid, orders in by_worker.items():
        orders.sort()
        if orders != list(range(len(orders))):
            raise OrderViolationError(
                f"worker {wid} responses have orders {orders}; "
                "expected a gap-free prefix 0..k-1"
            )
        if m is not None and len(orders) > m:
            raise OrderViolationError(
                f"worker {wid} returned {len(orders)} results but m={m}"
            )


def validate_responses(results: Sequence[PartialResult], m: int | None = None) -> None:
    """Check the whole response contract before a decode.

    On top of validate_prefix: each worker reports one EvalPoint across
    all its results, and every product has the same 2-D shape.
    Distinct workers that share a point are left to the solve, which
    finds the system singular.
    """
    validate_prefix(results, m)
    points: dict[int, EvalPoint] = {}
    for res in results:
        if not isinstance(res.point, EvalPoint):
            raise ResponseContractError(
                f"worker {res.worker_id} order {res.order} reports point {res.point!r}; "
                "expected an EvalPoint"
            )
        first = points.setdefault(res.worker_id, res.point)
        if first != res.point:
            raise ResponseContractError(
                f"worker {res.worker_id} reports points {tuple(first)} and "
                f"{tuple(res.point)}; expected one point per worker"
            )
    shapes = {
        _array(res.product, f"worker {res.worker_id} order {res.order} product").shape
        for res in results
    }
    if any(len(shape) != 2 for shape in shapes):
        raise DimensionMismatchError(
            f"result products must be 2-D, got shapes {sorted(shapes)}"
        )
    if len(shapes) > 1:
        raise DimensionMismatchError(
            f"result products disagree in shape: {sorted(shapes)}"
        )


def interpolation_matrix(
    params: SchemeParams,
    support: Sequence[tuple[int, int]],
    point_orders: Sequence[tuple[EvalPoint, int]],
) -> np.ndarray:
    """Stack derivative-evaluation rows for the given (point, order) pairs."""
    return derivative_matrix(point_orders, support, params.field)


def decode(params: SchemeParams, results: Sequence[PartialResult]) -> DecodedProduct:
    """Recover A @ B from at least recovery_threshold() in-order results.

    Exactly the first R_th responses in (worker_id, order) order are
    used; truncating a sorted response set keeps each worker's prefix,
    so the order contract survives.  The coefficient of x^(k-1) y^(l-1)
    for k <= K, l <= L is the block A_k @ B_l: mask cross terms only
    reach x-degrees >= K, so the extracted blocks are mask-free.
    """
    r_th = recovery_threshold(params)
    if len(results) < r_th:
        raise NotEnoughResponsesError(
            f"{len(results)} responses < recovery threshold {r_th}"
        )
    validate_responses(results, params.m)
    chosen = sort_responses(results)[:r_th]
    field = params.field
    mat = interpolation_matrix(
        params, build_support(params), [(res.point, res.order) for res in chosen]
    )
    # Only the K*L coefficients of x^k y^l, k < K and l < L, are wanted,
    # so solve for just those rows of the inverse: row j of inv(mat) is
    # column j of inv(mat.T), and mat is singular exactly when mat.T is.
    # The support's lexicographic order puts them first, as k * L + l:
    # every x-degree below K carries all L y-degrees.
    rows = field.solve_linear(mat.T, field.identity(r_th)[:, : params.K * params.L])
    if rows is None:
        raise DecodeSingularError(
            "interpolation matrix is singular for these evaluation points; "
            "re-encode with fresh points"
        )
    rhs = field.asarray(np.stack([np.ravel(res.product) for res in chosen]))
    coeffs = mat_mul_mod(rows.T, rhs, params.q)
    br, bc = np.shape(chosen[0].product)
    grid = coeffs.reshape(params.K, params.L, br, bc)
    blocks = tuple(tuple(row) for row in grid)
    assembled = grid.transpose(0, 2, 1, 3).reshape(params.K * br, params.L * bc)
    return DecodedProduct(blocks=blocks, assembled=assembled)


def random_prefix_subset(
    results: Sequence[PartialResult], size: int, rng: np.random.Generator
) -> list[PartialResult]:
    """Random subset of `size` results that respects per-worker order.

    Picks how many results each worker contributes, then takes that
    worker's lowest orders, so any returned subset is decode-eligible.
    """
    by_worker: dict[int, list[PartialResult]] = {}
    for res in results:
        by_worker.setdefault(res.worker_id, []).append(res)
    for lst in by_worker.values():
        lst.sort(key=lambda r: r.order)
    wids = sorted(by_worker)
    caps = {wid: len(by_worker[wid]) for wid in wids}
    if size > sum(caps.values()):
        raise NotEnoughResponsesError(
            f"cannot draw {size} results from {sum(caps.values())} available"
        )
    counts = dict.fromkeys(wids, 0)
    total = 0
    while total < size:
        open_wids = [wid for wid in wids if counts[wid] < caps[wid]]
        pick = open_wids[int(rng.integers(len(open_wids)))]
        counts[pick] += 1
        total += 1
    return [res for wid in wids for res in by_worker[wid][: counts[wid]]]


def with_m(params: SchemeParams, m: int) -> SchemeParams:
    """Copy of params with a different per-worker task cap."""
    return replace(params, m=m)
