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

`sweep_collusion_subsets` evaluates that closed form, `_private`, over
every subset.  `perfect_privacy_check` (exact rank over F_q, one coalition)
and `exhaustive_mi_check` (mutual information by enumeration, toy
scale) test the rank criterion independently of it.

These checks deliberately take the masking dimensions (K, T, m, q)
directly: L never enters the coalition's view, so toy instances need
not satisfy the decode-side m <= L coupling.  All four take them, and
the points, through one check (_coalition), so they refuse alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Sequence

import numpy as np

from .bivariate import EvalPoint, as_int, generators
from .errors import (
    DuplicatePointsError,
    ParameterError,
    TooLargeToEnumerateError,
)
from .fieldcore import PrimeField, prime_field

# Hard cap on exhaustive enumeration: q**(2 + T + T*m) states.
_ENUM_LIMIT = 20_000_000
# Hard cap on the coalitions a sweep enumerates.
_SUBSET_LIMIT = 2_000_000


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


def _coalition(
    points: Sequence[EvalPoint], K: int, T: int, m: int, q: int
) -> tuple[PrimeField, list[EvalPoint]]:
    """F_q and the points mod q, the inputs of every check here: q prime, K, T and m
    integers >= 0, points EvalPoints of integers of any size; else a ParameterError."""
    field = prime_field(q)
    for name, value in (("K", K), ("T", T), ("m", m)):
        if as_int(value, name, ParameterError) < 0:
            raise ParameterError(f"{name} must be >= 0, got {value}")
    reduced = []
    for i, point in enumerate(points):
        if not isinstance(point, EvalPoint):
            raise ParameterError(f"point {i} is {point!r}; expected an EvalPoint")
        x, y = (as_int(v, name, ParameterError, f"point {i}") for name, v in zip("xy", point))
        reduced.append(EvalPoint(x % field.q, y % field.q))
    return field, reduced


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
    field, reduced = _coalition(points, K, T, m, q)
    if len(points) != T:
        raise ParameterError(f"expected {T} coalition points, got {len(points)}")
    if len(set(points)) != len(points):
        raise DuplicatePointsError(f"coalition points are not distinct: {points}")
    gen_a, gen_b = generators(reduced, K, 0, T, m, field)
    return MaskMatrices(a_coeffs=gen_a[:, K:], b_coeffs=gen_b)


def perfect_privacy_check(
    points: Sequence[EvalPoint], K: int, T: int, m: int, q: int
) -> PrivacyCheck:
    """PASS iff both mask-coefficient matrices have full rank over F_q.

    Full rank means every observation carries an independent uniform
    mask combination, so the coalition's view is a one-time-pad image.
    A failed check returns the rank-deficient matrix as witness.
    """
    field, _ = _coalition(points, K, T, m, q)
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


def _private(residues: Sequence[int], K: int, m: int, q: int) -> bool:
    """The module's closed form: x mod q nonzero (for K >= 1) and distinct, q >= m."""
    return q >= m and len(set(residues)) == len(residues) and (K == 0 or 0 not in residues)


def sweep_collusion_subsets(
    points: Sequence[EvalPoint],
    K: int,
    T: int,
    m: int,
    q: int,
    max_failures: int = 20,
) -> SweepReport:
    """Check every T-subset of workers against the exact privacy criterion.

    Subsets index into `points` (0-based) and run over all C(N, T) in
    lexicographic order.  The report counts every subset and lists the
    first `max_failures` failing ones in that order: exactly those
    perfect_privacy_check fails.  Works at any supported q.  When all N
    residues pass the criterion, so does every subset, and the sweep
    counts C(N, T) without enumerating.  Otherwise it enumerates, and
    stops at the `max_failures`-th failure; more than 2,000,000 subsets
    raise TooLargeToEnumerateError.
    """
    field, points = _coalition(points, K, T, m, q)
    if as_int(max_failures, "max_failures", ParameterError) < 0:
        raise ParameterError(f"max_failures must be >= 0, got {max_failures}")
    if T == 0:
        return SweepReport(0, ())
    n = len(points)
    residues = [pt.x for pt in points]
    count = math.comb(n, T)
    if _private(residues, K, m, field.q):
        return SweepReport(count, ())
    if count > _SUBSET_LIMIT:
        raise TooLargeToEnumerateError(
            f"C({n},{T}) = {count} subsets exceed the enumeration limit {_SUBSET_LIMIT}"
        )
    failing = (
        sub for sub in combinations(range(n), T)
        if not _private([residues[i] for i in sub], K, m, field.q)
    )
    return SweepReport(count, tuple(islice(failing, max_failures)))


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of the distribution proportional to counts."""
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def exhaustive_mi_check(
    points: Sequence[EvalPoint],
    K: int,
    T: int,
    m: int,
    q: int,
    zero_r_masks: bool = False,
) -> float:
    """Exact mutual information (bits) between scalar inputs and the view.

    Enumerates every mask tuple for a single-partition instance (scalar
    A and B).  The view given (A, B) is the mask image shifted by (A, B),
    so the MI is H(mixture of the q^2 shifted images) - H(image): exactly
    0.0 when the view is independent of the inputs, as the mixture is
    then q^2 times the image.  zero_r_masks pins the left masks to zero
    to instrument a deliberately broken encoding.
    """
    _coalition(points, K, T, m, q)
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
    idx = np.arange(q**n_mask, dtype=np.int64)
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
    roles = [(comp < T, comp >= T and (comp - T) % m == 0) for comp in reversed(range(n_view))]
    mixture = np.zeros_like(grid)
    for a_val in range(q):
        for b_val in range(q):
            shifts = tuple(a_val * on_a + b_val * on_b for on_a, on_b in roles)
            mixture += np.roll(grid, shift=shifts, axis=tuple(range(n_view)))
    return _entropy(mixture) - _entropy(grid)
