"""Bivariate polynomial machinery behind the coded shares.

A product of the masked encoding polynomials lives on a fixed monomial
support in the (x-degree, y-degree) plane: a full rectangle of width
K+T and height L, plus a strip of height m covering the x-degrees
K+T .. 2K+2T-2 contributed by the mask cross terms.  This module builds
that support and the generator matrices of y-derivative monomial
evaluations from which the coded shares and the per-response rows of
the interpolation system are both taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BipolyError, DimensionMismatchError, InvalidOrderError, ParameterError
from .fieldcore import PrimeField, as_int, as_int_array, mat_mul_mod, mul_mod, prime_field


class EvalPoint(NamedTuple):
    """One worker's evaluation point (x, y), both canonical in [0, q)."""

    x: int
    y: int


def check_field_point(point, q: int, what: str, error: type[BipolyError]) -> None:
    """Raise `error`, naming `what`, unless point is an EvalPoint of integers in [0, q)."""
    if not isinstance(point, EvalPoint):
        raise error(f"{what} has point {point!r}; expected an EvalPoint")
    for name, value in zip(("x", "y"), point):
        if not (isinstance(value, (int, np.integer)) and 0 <= value < q):
            raise error(f"{what}: {name}={value!r} is not a field element in [0, q={q})")


def block_dims(K: int, L: int, dims, error: type[BipolyError]) -> tuple[int, int]:
    """(r/K, c/L) for dims (r, s, c): integers with r, c >= 1, s >= 0, K | r and L | c;
    any other dims raise `error` naming the rule they break."""
    r, s, c = (as_int(dim, name, error) for name, dim in zip("rsc", dims))
    for name, dim in (("r", r), ("c", c)):
        if dim < 1:
            raise error(f"dims need {name} >= 1 for a product block, got {name}={dim}")
    if s < 0:
        raise error(f"dims need s >= 0, got s={s}")
    if r % K:
        raise error(f"K | r violated: K={K} does not divide r={r}")
    if c % L:
        raise error(f"L | c violated: L={L} does not divide c={c}")
    return r // K, c // L


def falling_factorial(a: int, b: int) -> int:
    """a * (a-1) * ... * (a-b+1); equals 1 for b == 0."""
    out = 1
    for i in range(b):
        out *= a - i
    return out


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of one coded-multiplication instance.

    K, L   -- row partitions of the left matrix, column partitions of the right
    T      -- collusion tolerance (0 disables masking, for non-private tests)
    m      -- sub-tasks per worker, at most L
    N      -- number of workers
    q      -- prime field order
    """

    K: int
    L: int
    T: int
    m: int
    N: int
    q: int

    def __post_init__(self):
        for name in ("K", "L", "T", "m", "N", "q"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, ParameterError))
        for name, low in (("K", 1), ("L", 1), ("T", 0), ("m", 1), ("N", 1)):
            if getattr(self, name) < low:
                raise ParameterError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.m > self.L:
            raise ParameterError(
                f"m <= L violated: m={self.m}, L={self.L} "
                "(a worker cannot hold more derivative shares than column blocks)"
            )
        prime_field(self.q)  # validates primality and the 2**62 cap
        max_x_deg = 2 * self.K + 2 * self.T - 2
        if self.q <= max_x_deg:
            raise ParameterError(
                f"q > 2K+2T-2 violated: q={self.q} but the product polynomial has "
                f"x-degree {max_x_deg}; formal derivatives need a larger field"
            )
        if self.q <= self.L - 1:
            raise ParameterError(
                f"q > L-1 violated: q={self.q}, y-degree reaches {self.L - 1}"
            )
        if self.q < self.N:
            raise ParameterError(
                f"q >= N violated: q={self.q} cannot give {self.N} workers distinct points"
            )

    @property
    def field(self) -> PrimeField:
        return prime_field(self.q)


def build_support(params: SchemeParams) -> tuple[tuple[int, int], ...]:
    """Monomial support of the coded product: its sorted (dx, dy) pairs.

    Rectangle [0, K+T-1] x [0, L-1] union strip [K+T, 2K+2T-2] x [0, m-1],
    sorted lexicographically so decoding is bit-reproducible.
    """
    k, l, t, m = params.K, params.L, params.T, params.m
    entries = {(dx, dy) for dx in range(k + t) for dy in range(l)}
    entries |= {
        (dx, dy)
        for dx in range(k + t, 2 * k + 2 * t - 1)
        for dy in range(m)
    }
    return tuple(sorted(entries))


def derivative_matrix(
    rows: Sequence[tuple[EvalPoint, int]],
    columns: Sequence[tuple[int, int]],
    field: PrimeField,
) -> np.ndarray:
    """Generator matrix of y-derivative monomial evaluations over F_q.

    Entry (i, j) is fall(dy, o) * x^dx * y^(dy - o) for row i = (point
    (x, y), order o) and column j = monomial (dx, dy): the order-o formal
    y-derivative of x^dx y^dy evaluated at the point.  It vanishes when
    dy < o, where the falling factorial has a zero factor.  Encoding
    shares, interpolation rows and their one-row forms below all come
    from this one builder.
    """
    q = field.q
    cols = np.asarray(columns, dtype=np.int64).reshape(-1, 2)
    dx, dy = cols[:, 0], cols[:, 1]
    orders = np.array([order for _, order in rows], dtype=np.int64)
    top_dx = int(dx.max(initial=0))
    top_dy = int(dy.max(initial=0))
    top_order = int(orders.max(initial=0))
    x_pow = _power_table([pt.x for pt, _ in rows], top_dx, field)
    y_pow = _power_table([pt.y for pt, _ in rows], top_dy, field)
    fall = np.array(
        [[falling_factorial(d, o) % q for d in range(top_dy + 1)]
         for o in range(top_order + 1)],
        dtype=np.int64,
    )
    y_exp = np.maximum(dy[None, :] - orders[:, None], 0)
    out = mul_mod(fall[orders[:, None], dy[None, :]], x_pow[:, dx], q)
    return mul_mod(out, np.take_along_axis(y_pow, y_exp, axis=1), q)


def _power_table(bases: Sequence[int], top: int, field: PrimeField) -> np.ndarray:
    """Row i holds bases[i]^0 .. bases[i]^top over F_q."""
    q = field.q
    base = np.array([int(b) % q for b in bases], dtype=np.int64)
    out = np.ones((len(base), top + 1), dtype=np.int64)
    for d in range(1, top + 1):
        out[:, d] = mul_mod(out[:, d - 1], base, q)
    return out


def generators(
    points: Sequence[EvalPoint], K: int, L: int, T: int, m: int, field: PrimeField
) -> tuple[np.ndarray, np.ndarray]:
    """The left- and right-matrix generators of the masked polynomials at `points`.

    gen_a has one row per point, over the columns x^0 .. x^(K+T-1): the
    K partitions, then the T masks R[t].  gen_b has one row per (point,
    order), order < m, point by point, over the columns y^0 .. y^(L-1)
    for the partitions, then x^(K+t) y^j for the masks S[t][j].  These
    are the row orders of the coefficient matrices scheme.encode
    assembles, so each generator times its coefficients gives the shares.
    """
    columns_a = [(k, 0) for k in range(K + T)]
    columns_b = [(0, j) for j in range(L)] + [(K + t, j) for t in range(T) for j in range(m)]
    gen_a = derivative_matrix([(pt, 0) for pt in points], columns_a, field)
    gen_b = derivative_matrix(
        [(pt, order) for pt in points for order in range(m)], columns_b, field
    )
    return gen_a, gen_b


def _block_array(blocks, counts: tuple, what: str, field: PrimeField, shape=None) -> np.ndarray:
    """Nested sequences of blocks as one canonical array of shape counts + block shape.

    `counts` gives the nesting: (T,) for the A-side masks, (T, m) for the
    B side's.  Every block has `shape`, or the first block's shape; a
    count or shape that differs, a level that is not a sequence and a
    block that is not integers raise a DimensionMismatchError naming `what`.
    """
    flat = [blocks]
    for n in counts:
        try:
            counted = all(len(level) == n for level in flat)
        except TypeError:  # a level without a length, such as an int
            counted = False
        if not counted:
            raise DimensionMismatchError(f"{what}: expected {' x '.join(map(str, counts))} blocks")
        flat = [blk for level in flat for blk in level]
    block = f"{what}: a block"
    flat = [field.asarray(as_int_array(blk, block, DimensionMismatchError)) for blk in flat]
    shape = flat[0].shape if shape is None else shape
    for blk in flat:
        if blk.shape != shape:
            raise DimensionMismatchError(f"{block} of shape {blk.shape}, not {shape}")
    return np.array(flat, dtype=np.int64).reshape(counts + shape)


def eval_coded_a(
    params: SchemeParams,
    parts_a: Sequence[np.ndarray],
    masks_r: Sequence[np.ndarray],
    x: int,
) -> np.ndarray:
    """Evaluate the masked left-matrix polynomial at x.

    The polynomial has the K partitions on x^0 .. x^(K-1) and the T
    masks on x^K .. x^(K+T-1).
    """
    field, K, L, T, m = params.field, params.K, params.L, params.T, params.m
    parts = _block_array(parts_a, (K,), "A-side parts", field)
    masks = _block_array(masks_r, (T,), "A-side masks", field, parts.shape[1:])
    coeffs = np.concatenate([parts, masks]).reshape(K + T, parts[0].size)
    gen_a, _ = generators([EvalPoint(x, 0)], K, L, T, m, field)
    return mat_mul_mod(gen_a, coeffs, params.q).reshape(parts.shape[1:])


def eval_coded_b_derivative(
    params: SchemeParams,
    parts_b: Sequence[np.ndarray],
    masks_s: Sequence[Sequence[np.ndarray]],
    point: EvalPoint,
    order: int,
) -> np.ndarray:
    """Formal order-th y-derivative of the masked right-matrix polynomial.

    The polynomial carries the L partitions on y^0 .. y^(L-1) and mask
    S[t][j] on x^(K+t) * y^j.  Differentiation multiplies each live term
    by a falling factorial of its y-degree; terms of y-degree below
    `order` vanish.
    """
    field, K, L, T, m = params.field, params.K, params.L, params.T, params.m
    if not 0 <= order < m:
        raise InvalidOrderError(f"derivative order {order} outside [0, {m - 1}]")
    parts = _block_array(parts_b, (L,), "B-side parts", field)
    masks = _block_array(masks_s, (T, m), "B-side masks", field, parts.shape[1:])
    blocks = np.concatenate([parts, masks.reshape((T * m,) + parts.shape[1:])])
    coeffs = blocks.reshape(L + T * m, parts[0].size)
    _, gen_b = generators([point], K, L, T, m, field)
    return mat_mul_mod(gen_b[order : order + 1], coeffs, params.q).reshape(parts.shape[1:])


def derivative_row(
    support: Sequence[tuple[int, int]], point: EvalPoint, order: int, field: PrimeField
) -> np.ndarray:
    """Row of order-th y-derivative monomial evaluations at one point."""
    return derivative_matrix([(point, order)], support, field)[0]


def xi(a: int, b: int) -> int:
    """Total degree of all monomials x^i y^j over the rectangle [0,a] x [0,b]."""
    a, b = as_int(a, "a", ParameterError), as_int(b, "b", ParameterError)
    if a < 0 or b < 0:
        raise ParameterError(f"rectangle corners must be >= 0, got ({a}, {b})")
    return a * (a + 1) // 2 * (b + 1) + b * (b + 1) // 2 * (a + 1)


def support_degree_sum(support: Sequence[tuple[int, int]]) -> int:
    """Sum of dx + dy over the support, by direct enumeration."""
    return sum(dx + dy for dx, dy in support)
