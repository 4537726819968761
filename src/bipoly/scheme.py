"""End-to-end coded multiplication: encode, worker products, decode.

The master splits A into K row blocks and B into L column blocks, masks
them with uniform random matrices (encode's two coefficient matrices,
reshapes of A and B over one mask draw per side), and hands worker i one
evaluation of the left polynomial plus the first m y-derivatives of the
right polynomial at a private point (x_i, y_i).  Every sub-task result
is one dense block product; any recovery_threshold() of them, taken in
per-worker derivative order, pin down all K*L blocks of A @ B through
one square linear solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bivariate import (
    EvalPoint,
    SchemeParams,
    as_int,
    block_dims,
    build_support,
    check_field_point,
    derivative_matrix,
    generators,
    _block_array,
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
from .fieldcore import as_int_array, mat_mul_mod, prime_field
# The share and result records live with their wire layout; scheme
# re-exports them as part of its API.
from .wire import PartialResult, ResultSet, ShareSet, WorkerShare, result_set, share_set


@dataclass(frozen=True)
class DecodedProduct:
    """K x L grid of recovered blocks and their assembly into A @ B."""

    blocks: tuple[tuple[np.ndarray, ...], ...]
    assembled: np.ndarray


class Encoding(NamedTuple):
    """The worker shares, and the masks R (T, r/K, s) and S (T, m, s, c/L)."""

    shares: ShareSet
    masks_r: np.ndarray
    masks_s: np.ndarray


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
    br, bc = block_dims(params.K, params.L, (r, s, c), IndivisibleDimensionsError)
    per_worker = br * s + params.m * s * bc
    return params.N * per_worker * field_element_bits(params.q)


def max_m_for_budget(budget: int, l: int) -> int:
    """Largest m under an upload budget counted in matrix partitions.

    One partition-equivalent carries the A share; the rest carry B
    derivative shares, capped at L.
    """
    if as_int(budget, "budget", ParameterError) < 2:
        raise BudgetTooSmallError(
            f"budget {budget} cannot hold one A share and one B share"
        )
    l = as_int(l, "l", ParameterError)
    if l < 1:
        raise ParameterError(f"cap l must be >= 1, got {l}")
    return min(budget - 1, l)


def sample_points(params: SchemeParams, rng: np.random.Generator) -> list[EvalPoint]:
    """Uniform evaluation points with pairwise-distinct (x, y) tuples.

    With T >= 1 the x coordinates are additionally pairwise distinct and
    nonzero: x_i = 0 would hand worker i an unmasked A block, and a
    repeated x would let two colluders cancel mask contributions.
    """
    q, n = params.q, params.N
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
    """A sequence of N points that head words can hold and that keep the shares
    private.

    Every point is an EvalPoint of integers in [0, q).  With T >= 1 the
    x coordinates are also nonzero and pairwise distinct, as
    sample_points draws them: that is the condition under which every
    T-coalition learns nothing (privacy.sweep_collusion_subsets).
    """
    if not isinstance(points, Sequence):
        raise ParameterError(f"points={points!r} is not a sequence of EvalPoints")
    if len(points) != params.N:
        raise ParameterError(f"expected {params.N} evaluation points, got {len(points)}")
    seen: dict[int, int] = {}
    for worker_id, point in enumerate(points, 1):
        check_field_point(point, params.q, f"worker {worker_id}", ParameterError)
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

    a and b are integer matrices (as_int_array), reduced mod q.  Masks
    default to fresh uniform draws; points default to sample_points().
    Both can be injected for deterministic tests; injected points must
    be field elements and, with T >= 1, have nonzero, pairwise distinct
    x; injected masks must be T blocks of shape (r/K, s) and a T x m
    grid of (s, c/L).  The returned masks
    exist for test instrumentation only and must never be serialized
    alongside worker-facing data.
    """
    a = as_int_array(a, "A", DimensionMismatchError)
    b = as_int_array(b, "B", DimensionMismatchError)
    for name, operand in (("A", a), ("B", b)):
        if operand.ndim != 2:
            raise DimensionMismatchError(f"{name} must be a 2-D matrix, got shape {operand.shape}")
    (r, s), c = a.shape, b.shape[1]
    if b.shape[0] != s:
        raise DimensionMismatchError(f"inner dimensions differ: A is {a.shape}, B is {b.shape}")
    br, bc = block_dims(params.K, params.L, (r, s, c), IndivisibleDimensionsError)
    field, K, L, T, m = params.field, params.K, params.L, params.T, params.m
    if rng is None and (points is None or masks_r is None or masks_s is None):
        raise ParameterError("encode needs an rng when points or masks are not supplied")
    if points is None:
        points = sample_points(params, rng)
    else:
        _check_points(params, points)
    # Drawn masks are canonical already; only injected ones are reduced.
    if masks_r is None:
        masks_r = rng.integers(0, params.q, size=(T, br, s), dtype=np.int64)
    else:
        masks_r = _block_array(masks_r, (T,), "A-side masks", field, (br, s))
    if masks_s is None:
        masks_s = rng.integers(0, params.q, size=(T, m, s, bc), dtype=np.int64)
    else:
        masks_s = _block_array(masks_s, (T, m), "B-side masks", field, (s, bc))
    # Coefficient rows in bivariate.generators' column order, blocks
    # flattened: A's K row blocks, then R[t]; B's L column blocks, then
    # S[t][j], t-major.  Shares are generators times coefficients, one
    # kernel call per side for all N workers, written straight into the
    # wire blob, so each share is a read-only view of its worker's record.
    coeffs_a = np.concatenate([field._reduce(a).reshape(K, br * s), masks_r.reshape(T, br * s)])
    blocks_b = field._reduce(b).reshape(s, L, bc).transpose(1, 0, 2).reshape(L, s * bc)
    coeffs_b = np.concatenate([blocks_b, masks_s.reshape(T * m, s * bc)])
    gen_a, gen_b = generators(points, K, L, T, m, field)
    shares, side_a, side_b = share_set(params, (r, s, c), points)
    mat_mul_mod(gen_a, coeffs_a, params.q, out=side_a)
    mat_mul_mod(gen_b, coeffs_b, params.q, out=side_b)
    return Encoding(shares, masks_r, masks_s)


def worker_compute(share: WorkerShare, order: int) -> PartialResult:
    """One sub-task: multiply the A share by the order-th B share.

    Workers run orders 0, 1, ..., m-1 in sequence; drivers enforce that
    ordering, and decode rejects response sets that break it.
    """
    order = as_int(order, "order", InvalidOrderError, f"worker {share.worker_id}")
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


def validate_responses(
    params: SchemeParams, results: Sequence[PartialResult]
) -> list[PartialResult]:
    """Check the whole response contract; return the responses in (worker_id, order) order.

    Every worker_id and order is an integer and every point an EvalPoint
    of field elements.  Each worker's orders read 0, 1, ..., k-1 with
    k <= m (no gaps, no duplicates), its responses report one point, and
    every product is an integer array of one 2-D shape.  Distinct workers
    that share a point are left to the solve, which finds it singular.
    """
    for res in results:
        what = f"worker {res.worker_id} order {res.order}"
        for name, value in (("worker_id", res.worker_id), ("order", res.order)):
            as_int(value, name, ResponseContractError, what)
        check_field_point(res.point, params.q, what, ResponseContractError)
    ordered = sorted(results, key=lambda res: (res.worker_id, res.order))
    shapes = set()
    for wid, run in itertools.groupby(ordered, key=lambda res: res.worker_id):
        run = list(run)
        orders = [res.order for res in run]
        if orders != list(range(len(orders))):
            raise OrderViolationError(
                f"worker {wid} responses have orders {orders}; expected a gap-free prefix 0..k-1"
            )
        if len(orders) > params.m:
            raise OrderViolationError(
                f"worker {wid} returned {len(orders)} results but m={params.m}"
            )
        for res in run:
            if res.point != run[0].point:
                raise ResponseContractError(
                    f"worker {wid} reports points {tuple(run[0].point)} and "
                    f"{tuple(res.point)}; expected one point per worker"
                )
            what = f"worker {wid} order {res.order} product"
            shapes.add(as_int_array(res.product, what, DimensionMismatchError).shape)
    if any(len(shape) != 2 for shape in shapes):
        raise DimensionMismatchError(f"result products must be 2-D, got shapes {sorted(shapes)}")
    if len(shapes) > 1:
        raise DimensionMismatchError(f"result products disagree in shape: {sorted(shapes)}")
    return ordered


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
    chosen = validate_responses(params, results)[:r_th]
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
    size = as_int(size, "size", ParameterError)
    if size < 0:
        raise ParameterError(f"size must be >= 0, got {size}")
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
