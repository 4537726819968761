"""Machine-checkable privacy verification for the coded shares.

A coalition of T workers observes T evaluations of the masked left
polynomial and m*T evaluations (derivatives included) of the masked
right polynomial.  Privacy holds when the coefficient matrices mapping
the uniform masks onto those observations have full rank: the masks
then act as a one-time pad and the coalition's view is independent of
the inputs.

For coalition points (x_i, y_i) and K >= 1 full rank has a closed
form: the x_i mod q are nonzero and pairwise distinct, and q >= m.
Both matrices factor through V[i, t] = x_i^(K+t):

  * left masks:  a_coeffs = V = diag(x_i^K) * Vandermonde(x_i);
  * right masks: b_coeffs = blockdiag(W_i) * kron(V, I_m), where
    W_i[o, j] = fall(j, o) * y_i^(j-o) is upper triangular with
    diagonal o! for o < m, all nonzero mod q exactly when q >= m.

`sweep_collusion_subsets` evaluates that closed form over every
subset.  `perfect_privacy_check` (exact rank over F_q, one coalition)
and `exhaustive_mi_check` (mutual information by enumeration, toy
scale) test the rank criterion independently of it.

These checks deliberately take the masking dimensions (K, T, m, q)
directly: the column-partition count L never enters the coalition's
view, so toy instances are not forced to satisfy the decode-side
m <= L coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bivariate import EvalPoint, generators
from .errors import (
    DuplicatePointsError,
    ParameterError,
    TooLargeToEnumerateError,
)
from .fieldcore import prime_field

# Hard cap on exhaustive enumeration: q**(2 + T + T*m) states.
_ENUM_LIMIT = 20_000_000


@dataclass(frozen=True)
class MaskMatrices:
    """Coefficient matrices from mask variables to coalition observations.

    a_coeffs[i, t] multiplies left-mask t in worker i's A share;
    b_coeffs[i*m + o, t*m + j] multiplies right-mask (t, j) in worker
    i's order-o derivative share.
    """

    a_coeffs: np.ndarray
    b_coeffs: np.ndarray


@dataclass(frozen=True)
class PrivacyCheck:
    """Outcome of a rank check, with the deficient matrix as witness."""

    passed: bool
    rank_a: int
    rank_b: int
    failed_name: str | None = None
    witness: np.ndarray | None = None


def _validate_points(points: Sequence[EvalPoint], t: int) -> None:
    if len(points) != t:
        raise ParameterError(f"expected {t} coalition points, got {len(points)}")
    if len(set(points)) != len(points):
        raise DuplicatePointsError(f"coalition points are not distinct: {points}")


def mask_matrices(
    points: Sequence[EvalPoint], K: int, T: int, m: int, q: int
) -> MaskMatrices:
    """Build the mask-to-observation coefficient matrices for one coalition.

    Left masks ride on x^(K+t); right mask (t, j) rides on x^(K+t) y^j,
    so its order-o derivative coefficient is fall(j, o) x^(K+t) y^(j-o).
    Both are the mask columns of encode's generators at the coalition's
    points (bivariate.generators): the A side past its K partition
    columns, and the whole B side when it has no partition columns (L = 0).
    """
    field = prime_field(q)
    _validate_points(points, T)
    if K < 0 or m < 0:
        raise ParameterError(f"K and m must be >= 0, got K={K}, m={m}")
    gen_a, gen_b = generators(points, K, 0, T, m, field)
    return MaskMatrices(a_coeffs=gen_a[:, K:], b_coeffs=gen_b)


def perfect_privacy_check(
    points: Sequence[EvalPoint], K: int, T: int, m: int, q: int
) -> PrivacyCheck:
    """PASS iff both mask-coefficient matrices have full rank over F_q.

    Full rank means every observation carries an independent uniform
    mask combination, so the coalition's view is a one-time-pad image.
    A failed check returns the rank-deficient matrix as witness.
    """
    field = prime_field(q)
    mats = mask_matrices(points, K, T, m, q)
    rank_a = field.rank(mats.a_coeffs) if T else 0
    rank_b = field.rank(mats.b_coeffs) if T else 0
    if rank_a < T:
        return PrivacyCheck(False, rank_a, rank_b, "a_coeffs", mats.a_coeffs)
    if rank_b < m * T:
        return PrivacyCheck(False, rank_a, rank_b, "b_coeffs", mats.b_coeffs)
    return PrivacyCheck(True, rank_a, rank_b)


@dataclass(frozen=True)
class SweepReport:
    """Result of a privacy sweep over coalition subsets."""

    subsets_checked: int
    failing_subsets: tuple[tuple[int, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.failing_subsets


def _combinations(n: int, t: int) -> np.ndarray:
    """(C(n, t), t) array of every t-subset of range(n), lexicographic.

    Built one column at a time: a row whose last entry is v gains the
    children v+1, ..., n-t+j in column j, in that order.
    """
    sub = np.arange(max(n - t + 1, 0), dtype=np.intp)[:, None]
    for j in range(1, t):
        last = sub[:, -1]
        counts = n - t + j - last
        sub = np.repeat(sub, counts, axis=0)
        # Child k of a row lands at row first + k and holds last + 1 + k.
        first = np.cumsum(counts) - counts
        col = np.repeat(last + 1 - first, counts) + np.arange(len(sub))
        sub = np.column_stack([sub, col])
    return sub


def sweep_collusion_subsets(
    points: Sequence[EvalPoint],
    K: int,
    T: int,
    m: int,
    q: int,
    max_failures: int = 20,
) -> SweepReport:
    """Check every T-subset of workers against the exact privacy criterion.

    A coalition is private exactly when its x_i mod q are pairwise
    distinct and nonzero (nonzero matters for K >= 1) and q >= m.
    Proof: a_coeffs = diag(x_i^K) * Vandermonde(x_i), and b_coeffs =
    blockdiag(W_i) * kron(a_coeffs, I_m) with each W_i upper triangular
    of diagonal 0!, 1!, ..., (m-1)!, all nonzero mod q iff q >= m.

    Subsets index into `points` (0-based) and run over all C(N, T) in
    lexicographic order.  The report counts every subset checked and
    lists the first `max_failures` failing ones in enumeration order:
    exactly those perfect_privacy_check fails.  Works at any supported q.
    When all N residues already pass the criterion, so does every
    subset, and the sweep counts C(N, T) without enumerating.
    """
    prime_field(q)
    if T < 0:
        raise ParameterError(f"tolerance T must be >= 0, got {T}")
    if T == 0:
        return SweepReport(0, ())
    n = len(points)
    residues = [pt.x % q for pt in points]
    if len(set(residues)) == n and (K == 0 or 0 not in residues) and q >= m:
        return SweepReport(math.comb(n, T), ())
    sub = _combinations(n, T)
    # xs[t] holds the residue of every coalition's t-th member.
    xs = np.array(residues, dtype=np.int64)[sub].T
    ok = np.full(sub.shape[0], q >= m)
    for b in range(1, T):
        for a in range(b):
            ok &= xs[a] != xs[b]
    if K > 0:
        ok &= (xs != 0).all(axis=0)
    failing = sub[~ok][:max_failures]
    return SweepReport(sub.shape[0], tuple(tuple(map(int, row)) for row in failing))


def exhaustive_mi_check(
    points: Sequence[EvalPoint],
    K: int,
    T: int,
    m: int,
    q: int,
    zero_r_masks: bool = False,
) -> float:
    """Exact mutual information (bits) between scalar inputs and the view.

    Enumerates every (A, B, masks) tuple for a single-partition instance
    (scalar A and B) and counts the joint distribution of ((A, B),
    coalition view).  Returns exactly 0.0 when the view is independent
    of the inputs.  zero_r_masks pins the left masks to zero to
    instrument a deliberately broken encoding.
    """
    prime_field(q)
    if K != 1:
        raise ParameterError(
            "exhaustive enumeration covers single-partition instances (K = 1)"
        )
    mats = mask_matrices(points, K, T, m, q)
    if T == 0:
        return 0.0
    n_mask = T + T * m
    n_view = T * (1 + m)
    states = q ** (2 + n_mask)
    if states > _ENUM_LIMIT:
        raise TooLargeToEnumerateError(
            f"{states} states exceed the enumeration limit {_ENUM_LIMIT}"
        )
    n_tuples = q**n_mask
    idx = np.arange(n_tuples, dtype=np.int64)
    # Row v holds mask v in every tuple: left masks t, then right masks
    # (t, j), matching the columns of the coefficient matrices.
    digits = idx // q ** np.arange(n_mask, dtype=np.int64)[:, None] % q
    if zero_r_masks:
        digits[:T] = 0
    # Mask contribution to each view component; components are ordered
    # A-view per worker first, then (worker, order) derivative views.
    parts = np.concatenate(
        [mats.a_coeffs @ digits[:T], mats.b_coeffs @ digits[T:]]
    ) % q
    code = q ** np.arange(n_view, dtype=np.int64) @ parts
    base_counts = np.bincount(code, minlength=q**n_view)
    grid = base_counts.reshape((q,) * n_view)
    # Axis a of the grid is component n_view-1-a (most significant first).
    # Shifting the A-view axes by A and the order-0 derivative axes by B
    # turns the mask distribution into the view distribution for (A, B).
    joint = np.zeros((q * q, q**n_view), dtype=np.int64)
    for a_val in range(q):
        for b_val in range(q):
            shifts = []
            for axis in range(n_view):
                comp = n_view - 1 - axis
                if comp < T:
                    shifts.append(a_val)
                elif (comp - T) % m == 0:
                    shifts.append(b_val)
                else:
                    shifts.append(0)
            rolled = np.roll(grid, shift=tuple(shifts), axis=tuple(range(n_view)))
            joint[a_val * q + b_val] = rolled.ravel()
    total = q * q * n_tuples
    colsum = joint.sum(axis=0)
    rows, cols = np.nonzero(joint)
    c = joint[rows, cols].astype(np.float64)
    # log2(c * q^2) - log2(colsum) is exactly zero when the conditional
    # equals the marginal, keeping the perfectly-private case at 0.0.
    terms = c / total * (np.log2(c * q * q) - np.log2(colsum[cols].astype(np.float64)))
    return float(terms.sum())
