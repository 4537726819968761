"""Prime-field arithmetic and dense exact linear algebra over F_q.

Matrices are int64 numpy arrays holding canonical representatives in
[0, q) for every supported q < 2**62: a residue fits int64, and so does
a sum of two.  A product of two residues fits only below 2**31, so every
product goes through one of three primitives that know the modulus:
:func:`mat_mul_mod`, the elementwise :func:`mul_mod` and the fused
elimination update :func:`sub_mul_mod`.  For q >= 2**31 these multiply
Python integers and cast the reduced result back to int64.  Apart from
them only :func:`kernel_operand`, which prepares operands for
mat_mul_mod, branches on the size of q.  No function mutates its inputs.

Matrix products for q < 2**31 go through float64 BLAS: the operands are
split into 16-bit limbs, the limb products run as float64 products whose
sums stay exact below 2**53, and the pieces are recombined mod q with
shifts (the limb-splitting technique of FFLAS-FFPACK, Dumas, Giorgi and
Pernet, ACM TOMS 2008).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    BipolyError,
    DimensionMismatchError,
    NonPrimeModulusError,
    ZeroInverseError,
)

# Largest supported modulus: canonical residues and sums of two of them
# fit int64, and residues fit the serialized u64 words.
MAX_MODULUS = 1 << 62

# Below this modulus a product of two residues fits int64 (a*b < 2**62).
_INT64_LIMIT = 1 << 31

# float64 holds every integer of magnitude up to 2**53 exactly.
_FLOAT_EXACT = 1 << 53
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1

# Witness set making Miller-Rabin deterministic for all 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_q for a prime q with 2 <= q < 2**62.

    Matrix helpers work on int64 numpy arrays of canonical residues.
    Use :func:`prime_field` to get a cached instance.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        q = int(q)
        if q >= MAX_MODULUS:
            raise NonPrimeModulusError(
                f"field order {q} exceeds the supported maximum 2**62"
            )
        if not is_prime(q):
            raise NonPrimeModulusError(f"field order {q} is not prime")
        self.q = q

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat exponentiation."""
        if a % self.q == 0:
            raise ZeroInverseError("zero has no multiplicative inverse")
        return pow(a, self.q - 2, self.q)

    # -- array plumbing --------------------------------------------------

    def asarray(self, values) -> np.ndarray:
        """Canonical int64 field array from any integer array-like."""
        arr = np.asarray(values)
        if arr.dtype.kind in "fc":
            raise BipolyError(
                f"field elements must be integers, got {arr.dtype} input"
            )
        if arr.dtype == object or arr.dtype == np.uint64:
            # Reduce before the int64 cast, which wraps values >= 2**63.
            return (arr % self.q).astype(np.int64)
        return arr.astype(np.int64) % self.q

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def random_matrix(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        """Uniform matrix over F_q, shape (rows, cols)."""
        return rng.integers(0, self.q, size=(rows, cols), dtype=np.int64)

    # -- matrix algebra --------------------------------------------------

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product over F_q."""
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise DimensionMismatchError(
                f"cannot multiply shapes {a.shape} x {b.shape}"
            )
        return mat_mul_mod(a, b, self.q)

    def solve_linear(self, m: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
        """Solve m @ x = rhs by Gauss-Jordan elimination.

        Returns the unique solution, or None when m is singular.  The
        pivot is the first nonzero entry of each column; in an exact
        field any nonzero pivot is as good as any other.
        """
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"coefficient matrix {m.shape} is not square")
        if rhs.ndim != 2 or rhs.shape[0] != m.shape[0]:
            raise DimensionMismatchError(
                f"right-hand side {rhs.shape} does not match system size {m.shape[0]}"
            )
        n = m.shape[0]
        aug = np.concatenate([self.asarray(m), self.asarray(rhs)], axis=1)
        for col in range(n):
            pivots = np.nonzero(aug[col:, col])[0]
            if pivots.size == 0:
                return None
            p = col + int(pivots[0])
            if p != col:
                aug[[col, p]] = aug[[p, col]]
            inv = self.inv(int(aug[col, col]))
            aug[col] = mul_mod(aug[col], inv, self.q)
            factors = aug[:, col].copy()
            factors[col] = 0
            aug = sub_mul_mod(aug, factors[:, None], aug[col][None, :], self.q)
        return aug[:, n:]

    def rank(self, m: np.ndarray) -> int:
        """Rank over F_q via row elimination with column skipping."""
        a = self.asarray(m)
        rows, cols = a.shape
        r = 0
        for col in range(cols):
            if r == rows:
                break
            pivots = np.nonzero(a[r:, col])[0]
            if pivots.size == 0:
                continue
            p = r + int(pivots[0])
            if p != r:
                a[[r, p]] = a[[p, r]]
            inv = self.inv(int(a[r, col]))
            a[r] = mul_mod(a[r], inv, self.q)
            if r + 1 < rows:
                factors = a[r + 1 :, col].copy()
                a[r + 1 :] = sub_mul_mod(a[r + 1 :], factors[:, None], a[r][None, :], self.q)
            r += 1
        return r

    def batched_nonsingular(self, mats: np.ndarray) -> np.ndarray:
        """Non-singularity of a stack of square matrices, shape (B, n, n).

        Vectorised over the batch axis.  Uses cross-multiplication
        instead of pivot normalisation so no batched inversions are
        needed.
        """
        a = self.asarray(mats)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimensionMismatchError(f"expected a (B, n, n) stack, got {a.shape}")
        batch, n, _ = a.shape
        if n == 0:
            return np.ones(batch, dtype=bool)
        singular = np.zeros(batch, dtype=bool)
        bidx = np.arange(batch)
        for col in range(n):
            colvals = a[:, col:, col]
            nonzero = colvals != 0
            singular |= ~nonzero.any(axis=1)
            piv_row = np.argmax(nonzero, axis=1) + col
            swap = a[bidx, piv_row].copy()
            a[bidx, piv_row] = a[:, col]
            a[:, col] = swap
            if col + 1 == n:
                break
            piv = a[:, col, col]
            below = a[:, col + 1 :, :]
            scaled = mul_mod(piv[:, None, None], below, self.q)
            a[:, col + 1 :, :] = sub_mul_mod(
                scaled, below[:, :, col][:, :, None], a[:, col : col + 1, :], self.q
            )
        return ~singular


def exact_inner_limit(q: int, split_right: bool = True) -> int:
    """Largest inner dimension whose limb products sum exactly in float64.

    Both operands hold canonical residues below q < 2**31 and split into
    a high limb (at most (q-1) >> 16) and a low 16-bit limb.  With
    `split_right` the sums hi.hi, hi.lo + lo.hi and lo.lo have terms of
    at most hi*hi, 2*hi*lo and lo*lo; without it the right operand stays
    whole and each term is at most max(hi, lo) * (q-1).
    """
    hi, lo = (q - 1) >> _LIMB_BITS, min(q - 1, _LIMB_MASK)
    if split_right:
        widest = max(hi * hi, 2 * hi * lo, lo * lo)
    else:
        widest = max(hi, lo) * (q - 1)
    return _FLOAT_EXACT // max(widest, 1)


def _limbs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.int64)
    return (x >> _LIMB_BITS).astype(np.float64), (x & _LIMB_MASK).astype(np.float64)


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place for nonnegative int64 x (floor division is cheaper than %)."""
    x -= x // q * q
    return x


def _shift_add(hi: np.ndarray, lo: np.ndarray, q: int) -> np.ndarray:
    """(hi * 2**16 + lo) mod q for hi in [0, q) and exact float64 sums lo < 2**53."""
    hi <<= _LIMB_BITS
    hi += lo.astype(np.int64)
    return _reduce(hi, q)


def _limb_product(a: np.ndarray, b: np.ndarray, q: int, split_right: bool) -> np.ndarray:
    """a @ b mod q for an inner dimension within exact_inner_limit(q, split_right)."""
    a_hi, a_lo = _limbs(a)
    if not split_right:
        bf = np.asarray(b, dtype=np.float64)
        out = _reduce((a_hi @ bf).astype(np.int64), q)
        return _shift_add(out, a_lo @ bf, q)
    b_hi, b_lo = _limbs(b)
    # The cross term runs as two products summed in float64 rather than
    # one concatenated product: the copies cost more than a product saves.
    out = _reduce((a_hi @ b_hi).astype(np.int64), q)
    out = _shift_add(out, a_hi @ b_lo + a_lo @ b_hi, q)
    return _shift_add(out, a_lo @ b_lo, q)


def mul_mod(a, b, q: int) -> np.ndarray:
    """Elementwise a * b mod q for canonical int64 operands; int64 result."""
    if q < _INT64_LIMIT:
        return a * b % q
    a, b = (np.asarray(x, dtype=object) for x in (a, b))
    return np.asarray(a * b % q, dtype=np.int64)


def sub_mul_mod(a, b, c, q: int) -> np.ndarray:
    """Elementwise (a - b * c) mod q, the row update of an elimination.

    Below 2**31 it is fused so that the update costs one reduction, not
    two.  Above, only the product runs on Python integers; the
    subtraction stays in int64, which is cheaper than converting `a`.
    """
    if q < _INT64_LIMIT:
        return (a - b * c) % q
    return (a - mul_mod(b, c, q)) % q


def kernel_operand(x: np.ndarray, q: int) -> np.ndarray:
    """x as mat_mul_mod reads it fastest when it is reused across calls.

    Below 2**31 that is float64, which holds canonical residues exactly;
    larger moduli keep the array as it is.
    """
    return np.asarray(x, dtype=np.float64) if q < _INT64_LIMIT else x


def mat_mul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact a @ b over F_q for canonical 2-D operands of matching shapes.

    Operands are integer arrays, or float64 arrays from kernel_operand.

    The result is int64.  For q < 2**31 it comes from float64 BLAS
    products of 16-bit limbs.  Only the left operand is split when the
    unsplit right operand keeps the sums exact, as for the short inner
    dimensions of encode's generator products; inner dimensions beyond
    the exact limit are processed in chunks reduced mod q between them.
    Larger moduli multiply Python integers.
    """
    if q >= _INT64_LIMIT:
        return (np.dot(a.astype(object), b.astype(object)) % q).astype(np.int64)
    inner = a.shape[1]
    split_right = inner > exact_inner_limit(q, split_right=False)
    limit = exact_inner_limit(q, split_right)
    if inner <= limit:
        return _limb_product(a, b, q, split_right)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for start in range(0, inner, limit):
        chunk = slice(start, start + limit)
        out += _limb_product(a[:, chunk], b[chunk], q, split_right)
        _reduce(out, q)
    return out


@functools.lru_cache(maxsize=None)
def prime_field(q: int) -> PrimeField:
    """Cached PrimeField factory; validates primality once per modulus."""
    return PrimeField(q)
