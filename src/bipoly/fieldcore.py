"""Prime-field arithmetic and dense exact linear algebra over F_q.

Matrices are int64 numpy arrays holding canonical representatives in
[0, q) for every supported q < 2**62: a residue fits int64, and so does
a sum of two.  A product of two residues fits only below 2**31, so every
product goes through one of three primitives that know the modulus:
:func:`mat_mul_mod`, the elementwise :func:`mul_mod` and the fused
elimination update :func:`sub_mul_mod`.  For q >= 2**31 these multiply
Python integers and cast the reduced result back to int64.  No other
function branches on the size of q, and none mutates its inputs.

Matrix products for q < 2**31 go through float64 BLAS.  Only the left
operand is split, into k balanced digits of w bits; the right operand
stays whole.  Every float64 value the kernel forms is an integer of
magnitude at most 2**53, so it is exact, and each output word is reduced
as few times as that allows (the delayed-reduction principle of
FFLAS-FFPACK, Dumas, Giorgi and Pernet, ACM TOMS 2008).  Balanced digits
halve a term's magnitude, and where the output is no larger than the
right operand, centring that operand on [-(q-1)/2, (q-1)/2] as it is
cast halves it again: at q = 2**31 - 1 a 240-long inner dimension takes
two 16-bit digits in one BLAS call.  :func:`limb_plan` derives w and k
from q and the inner dimension; inner dimensions past the exact limit
are cut into chunks.  The output is computed in column tiles of about
2**15 words, so every elementwise pass stays in a 2 MB L2 cache, and
each tile is written straight into the output, which may be a caller's
strided destination.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import (
    BipolyError,
    DimensionMismatchError,
    NonPrimeModulusError,
    ParameterError,
    ZeroInverseError,
)

# Largest supported modulus: canonical residues and sums of two of them
# fit int64, and residues fit the serialized u64 words.
MAX_MODULUS = 1 << 62

# Below this modulus a product of two residues fits int64 (a*b < 2**62).
_INT64_LIMIT = 1 << 31

# float64 holds every integer of magnitude up to 2**53 exactly.
_FLOAT_EXACT = 1 << 53

# Output words per column tile: a tile and its scratch arrays stay in L2.
_TILE_WORDS = 1 << 15

# A further digit costs a whole product's multiply-adds per output word,
# a further chunk of the inner dimension only one reduction.  So digits
# are added only until one exact product sums this many inner terms;
# longer inner dimensions are chunked.
_MIN_CHUNK = 1 << 10

# Witness set making Miller-Rabin deterministic for all 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def as_int(value, name: str, error: type[BipolyError], what: str = "") -> int:
    """value as a Python int if it is an integer of any index type (Python's,
    numpy's); otherwise `error`, prefixed by `what`, naming the field and value."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what}{': ' if what else ''}{name}={value!r} is not an integer") from None


def as_int_array(values, name: str, error: type[BipolyError]) -> np.ndarray:
    """values as a numpy array of integers: a bool, signed or unsigned dtype, or
    object entries that all are integers of any size.  A ragged nesting or any
    other entry (float, complex, str) is refused, not parsed: `error` names `name`."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise error(f"{name} is a ragged nested sequence, not a rectangular array") from None
    exact = arr
    if arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # numpy promotes a list mixing ints beyond int64 to float64.
        exact = np.array(values, dtype=object)
    if exact.dtype.kind in "biu" or (
        exact.dtype == object and all(isinstance(v, (int, np.integer)) for v in exact.flat)
    ):
        return exact
    raise error(f"{name} holds {arr.dtype} entries, not integers")


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
        q = as_int(q, "q", ParameterError)
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
        """Multiplicative inverse, by Python's modular pow."""
        a = as_int(a, "a", ParameterError)
        if a % self.q == 0:
            raise ZeroInverseError("zero has no multiplicative inverse")
        return pow(a, -1, self.q)

    # -- array plumbing --------------------------------------------------

    def asarray(self, values) -> np.ndarray:
        """Canonical int64 field array from any integer array-like; as_int_array
        refuses any other input with a DimensionMismatchError."""
        return self._reduce(as_int_array(values, "a field array", DimensionMismatchError))

    def _reduce(self, arr: np.ndarray) -> np.ndarray:
        """asarray's reduction alone, for an array as_int_array has already passed."""
        if arr.dtype == object or arr.dtype == np.uint64:
            # Reduce before the int64 cast, which wraps values >= 2**63.
            return (arr % self.q).astype(np.int64)
        # A fresh array: callers such as rank eliminate in place.  Its
        # bounds cost two reads a word, % a division, so it is reduced
        # only when a word lies outside [0, q).
        out = arr.astype(np.int64)
        if out.size and (out.min() < 0 or out.max() >= self.q):
            out %= self.q
        return out

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def random_matrix(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        """Uniform matrix over F_q, shape (rows, cols)."""
        return rng.integers(0, self.q, size=(rows, cols), dtype=np.int64)

    # -- matrix algebra --------------------------------------------------

    def mat_mul(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact product over F_q of the asarray'd operands, into `out` as mat_mul_mod takes it."""
        a, b = self.asarray(a), self.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise DimensionMismatchError(
                f"cannot multiply shapes {a.shape} x {b.shape}"
            )
        return mat_mul_mod(a, b, self.q, out=out)

    def solve_linear(self, m: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
        """Solve m @ x = rhs by Gauss-Jordan elimination (see _eliminate).

        Returns the unique solution, or None when m is singular.
        """
        m, rhs = self.asarray(m), self.asarray(rhs)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"coefficient matrix {m.shape} is not square")
        if rhs.ndim != 2 or rhs.shape[0] != m.shape[0]:
            raise DimensionMismatchError(
                f"right-hand side {rhs.shape} does not match system size {m.shape[0]}"
            )
        n = m.shape[0]
        aug = np.concatenate([m, rhs], axis=1)
        return aug[:, n:] if self._eliminate(aug, n) == n else None

    def rank(self, m: np.ndarray) -> int:
        """Rank over F_q: the pivot count of a Gauss-Jordan elimination."""
        a = self.asarray(m)
        if a.ndim != 2:
            raise DimensionMismatchError(f"rank needs a 2-D matrix, got shape {a.shape}")
        return self._eliminate(a, a.shape[1])

    def batched_nonsingular(self, mats: np.ndarray) -> np.ndarray:
        """Non-singularity of each matrix of a (B, n, n) stack: a full pivot count."""
        a = self.asarray(mats)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimensionMismatchError(f"expected a (B, n, n) stack, got {a.shape}")
        n = a.shape[2]
        return np.array([self._eliminate(mat, n) == n for mat in a], dtype=bool)

    def _eliminate(self, a: np.ndarray, cols: int) -> int:
        """Gauss-Jordan on the first `cols` columns of a, in place; the pivot count.

        The pivot is the first nonzero entry of a column at or below the
        next pivot row; in an exact field any nonzero pivot is as good as
        any other.  A column without one is skipped.  The pivot row is
        scaled to 1 and cleared from every other row, so the pivot
        columns end as unit vectors.  Rows from the pivot row down are
        zero left of the current column, so each row update touches only
        the live columns from it onwards.
        """
        rows, r = a.shape[0], 0
        for col in range(cols):
            if r == rows:
                break
            pivots = np.nonzero(a[r:, col])[0]
            if pivots.size == 0:
                continue
            p = r + int(pivots[0])
            if p != r:
                a[[r, p]] = a[[p, r]]
            live = a[:, col:]
            live[r] = mul_mod(live[r], self.inv(int(live[r, 0])), self.q)
            factors = live[:, :1].copy()
            factors[r] = 0
            live[...] = sub_mul_mod(live, factors, live[r : r + 1], self.q)
            r += 1
        return r


def mul_mod(a, b, q: int) -> np.ndarray:
    """Elementwise a * b mod q for canonical int64 operands; int64 result."""
    if q < _INT64_LIMIT:
        return a * b % q
    a, b = (np.asarray(x, dtype=object) for x in (a, b))
    return np.asarray(a * b % q, dtype=np.int64)


def sub_mul_mod(a, b, c, q: int) -> np.ndarray:
    """Elementwise (a - b * c) mod q, the row update of an elimination.

    Below 2**31 it is fused so that the update costs one reduction, not
    two, and it reduces by x - x // q * q: numpy divides int64 by a
    scalar with a multiply and shift (libdivide), where % divides each
    word in hardware.  Above, only the product runs on Python integers;
    the subtraction stays in int64, which is cheaper than converting `a`.
    """
    if q < _INT64_LIMIT:
        x = a - b * c
        x -= x // q * q
        return x
    return (a - mul_mod(b, c, q)) % q


def exact_terms(q: int, w: int, centred: bool = True) -> int:
    """Most terms one float64 product of balanced w-bit digits sums exactly.

    The left operand splits into k = ceil(bits / w) balanced digits (see
    _digits): the low ones lie in [-2**(w-1), 2**(w-1)) and the top one
    is non-negative.  A term is a digit times a right entry.  In the
    Horner form (`centred`) that entry is a residue less h = (q - 1) // 2,
    at most q - 1 - h in magnitude; in the folded form it is a residue.
    A Horner step adds such a sum to the previous residue shifted left by
    w bits, and the row correction h * sum_l a[i, l] mod q adds one more
    residue, so the sum may use 2**53 less both.  The folded form adds
    neither and keeps the same bound.
    """
    bits = (q - 1).bit_length()
    k = -(-bits // w)
    half = 1 << (w - 1)
    offset = sum(half << (w * j) for j in range(k - 1))
    digit = max(half, (q - 1 + offset) >> (w * (k - 1)))
    right = q - 1 - (q - 1) // 2 if centred else q - 1
    return (_FLOAT_EXACT - ((q - 1) << w) - (q - 1)) // (digit * right)


@functools.lru_cache(maxsize=256)
def limb_plan(q: int, rows: int, inner: int) -> tuple[bool, int, int, int]:
    """(fold, w, k, chunk) of mat_mul_mod for a rows x inner left operand, q < 2**31.

    The left operand splits into k balanced digits of w bits.  `fold`
    holds when the output has more rows than the right operand
    (rows > inner): the digits then fold into one product whose inner
    dimension is k times the operand's, against uncentred residues;
    otherwise the digit blocks stack along the rows of one product
    against the centred right operand, recombined by Horner.  k is the
    fewest digits whose exact sum covers that inner dimension, or
    _MIN_CHUNK terms of it, and one exact product covers `chunk` inner
    columns of the operands.
    """
    fold = rows > inner
    bits = (q - 1).bit_length()
    for k in range(1, bits + 1):
        w = -(-bits // k)
        terms = exact_terms(q, w, centred=not fold)
        # One-bit digits (k == bits) always sum about 2**21 terms exactly.
        if terms >= min(k * inner if fold else inner, _MIN_CHUNK) or k == bits:
            return fold, w, k, terms // k if fold else terms


def _digits(a: np.ndarray, w: int, k: int) -> np.ndarray:
    """Balanced base-2**w digits of a non-negative a, as float64, top digit first.

    Returns shape (k,) + a.shape with sum_j digits[k-1-j] * 2**(w*j) == a.
    The top digit is non-negative and the k - 1 low ones lie in
    [-2**(w-1), 2**(w-1)).  Each digit of weight 2**(w*j) is the one that
    leaves a remainder in [-offset, 2**(w*j) - offset), where offset is
    sum_{i<j} 2**(w-1) * 2**(w*i); every value is an integer below 2**53,
    so the float arithmetic is exact.
    """
    digits = np.empty((k,) + a.shape)
    rest = digits[k - 1]
    rest[...] = a
    half = 1 << (w - 1)
    for j in range(k - 1, 0, -1):
        digit = digits[k - 1 - j]
        np.add(rest, float(sum(half << (w * i) for i in range(j))), out=digit)
        digit *= 1.0 / (1 << (w * j))
        np.floor(digit, out=digit)
        rest -= digit * float(1 << (w * j))
    return digits


def _reduce(x: np.ndarray, q: int, scratch: np.ndarray, out: np.ndarray | None = None):
    """x mod q for float64 x holding integers in [-2**53, 2**53], into `out` or x.

    The result lies in [0, q) for either sign of x.  The quotient is
    exact: a non-integer x / q lies at least 1/q from the next integer,
    which is more than half an ulp of it below 2**53 in magnitude, so
    rounding cannot carry it across that integer and the floor is the
    true one.  An int64 `out` takes the result without a separate cast.
    """
    np.divide(x, q, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= q
    return np.subtract(x, scratch, out=x if out is None else out, casting="unsafe")


def _horner(products: np.ndarray, k: int, q: int, w: int, scratch) -> np.ndarray:
    """sum_j block_j * 2**(w*j) of k row blocks, top digit first; reduced before each shift.

    Returns the first block, which accumulates the sum in place; every
    value it holds stays within 2**53 in magnitude.
    """
    rows = products.shape[0] // k
    acc = products[:rows]
    for j in range(1, k):
        _reduce(acc, q, scratch)
        acc *= float(1 << w)
        acc += products[j * rows : (j + 1) * rows]
    return acc


def _folded(left: np.ndarray, right: np.ndarray, q: int, w: int, k: int) -> np.ndarray:
    """[digit_k-1 | ... | digit_0] @ [right * 2**(w*(k-1)) mod q; ...; right]; within 2**53."""
    inner = right.shape[0]
    stacked = np.empty((k * inner, right.shape[1]))
    stacked[(k - 1) * inner :] = right
    for j in range(k - 1, 0, -1):
        block = stacked[(j - 1) * inner : j * inner]
        np.multiply(stacked[j * inner : (j + 1) * inner], float(1 << w), out=block)
        _reduce(block, q, np.empty_like(block))
    return left @ stacked


def _limb_kernel(a: np.ndarray, q: int):
    """A function writing a @ tile mod q into an int64 destination tile.

    The left operand is split into its digits once, per chunk of the
    inner dimension; each tile of the right operand is cast to float64
    once per chunk, in the Horner form less h = (q - 1) // 2 in the same
    pass.  The Horner form adds back the row correction
    h * sum_l a[i, l] mod q once, before the last reduction.  A single
    chunk is reduced once more, straight into the destination; several
    are reduced each, summed and reduced again.
    """
    fold, w, k, chunk = limb_plan(q, *a.shape)
    rows = a.shape[0]
    h = (q - 1) // 2
    cuts = [slice(at, at + chunk) for at in range(0, a.shape[1], chunk)] or [slice(0, 0)]
    # Top digit first; folded: side by side, Horner: stacked along the rows.
    lefts = []
    for cut in cuts:
        digits = _digits(a[:, cut], w, k)
        if fold:
            lefts.append(np.concatenate(digits, axis=1))
        else:
            lefts.append(digits.reshape(k * rows, digits.shape[2]))
    if not fold:
        correction = (h * (a.sum(axis=1) % q) % q).astype(np.float64)[:, None]

    def product(tile: np.ndarray, dest: np.ndarray) -> None:
        scratch = np.empty((rows, tile.shape[1]))
        total = None
        for cut, left in zip(cuts, lefts):
            if fold:
                acc = _folded(left, tile[cut], q, w, k)
            else:
                acc = _horner(left @ np.subtract(tile[cut], float(h)), k, q, w, scratch)
            if len(cuts) > 1:
                _reduce(acc, q, scratch)
            total = acc if total is None else np.add(total, acc, out=total)
        if not fold:
            total += correction
        # Both are contiguous, so reshaping them to dest's shape is a view.
        _reduce(total.reshape(dest.shape), q, scratch.reshape(dest.shape), out=dest)

    return product


def mat_mul_mod(
    a: np.ndarray, b: np.ndarray, q: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact a @ b over F_q for canonical 2-D integer operands; int64 result.

    The output is filled in column tiles of about 2**15 words.  For
    q < 2**31 the left operand splits into k balanced digits of w bits,
    with w derived from q and the inner dimension (see limb_plan), and
    the right operand stays whole as float64.  The shape picks one of
    two forms:

    * output no larger than the right operand (rows <= inner, as in
      worker products, decode and the direct product): the right
      operand is centred, b - (q - 1) // 2, as it is cast, and the k
      digit blocks stack along the rows of one product, which Horner
      recombines with one reduction per digit; the row correction
      ((q - 1) // 2) * sum_l a[i, l] mod q is added before the last;
    * output wider than the right operand (rows > inner, as in encode's
      generator products): the digits fold into one product against
      the stacked copies b * 2**(w*j) mod q, so each output word is
      reduced once.

    Every float64 value formed is an integer of magnitude at most 2**53.
    Inner dimensions past the exact limit are cut into chunks whose
    reduced products are summed and reduced again.  Larger moduli
    multiply Python integers, one tile at a time.

    `out`, when given, is a writable int64 array that must not overlap a
    or b, such as a strided view into a larger buffer.  It has one of two
    shapes:

    * (..., cols), whose leading axes hold the rows in row-major order;
    * (rows, blocks, width) with blocks * width == cols, whose block j
      takes columns j * width onwards, so that blocks side by side in the
      product land in separate records; tiles then hold whole blocks.

    The product is written into it, tile by tile, and it is returned.
    """
    rows, cols = a.shape[0], b.shape[1]
    width = max(1, _TILE_WORDS // max(rows, 1))
    if out is None:
        out = np.empty((rows, cols), dtype=np.int64)
    usable = out.dtype == np.int64 and out.flags.writeable
    if (
        usable
        and out.ndim >= 2
        and out.shape[-1] == cols
        and int(np.prod(out.shape[:-1])) == rows
    ):
        def dest(start, stop):
            return out[..., start:stop]
    elif usable and out.ndim == 3 and out.shape[0] == rows and out.shape[1] * out.shape[2] == cols:
        step = max(1, out.shape[2])
        width = max(step, width // step * step)

        def dest(start, stop):
            return out[:, start // step : stop // step]
    else:
        raise DimensionMismatchError(
            f"destination {out.dtype} {out.shape} cannot take the {rows} x {cols} "
            f"product of {a.shape} x {b.shape}; expected writable int64 (..., {cols}) "
            f"with {rows} rows, or ({rows}, blocks, width) with {cols} columns"
        )
    if q >= _INT64_LIMIT:
        left = a.astype(object)

        def product(tile, dest):
            dest[...] = (np.dot(left, tile.astype(object)) % q).reshape(dest.shape)
    else:
        product = _limb_kernel(np.asarray(a, dtype=np.int64), q)
    for start in range(0, cols, width):
        product(b[:, start : start + width], dest(start, start + width))
    return out


@functools.lru_cache(maxsize=None, typed=True)
def prime_field(q: int) -> PrimeField:
    """Cached PrimeField factory; validates q once per value and type, so a
    float equal to a cached q is refused like any other."""
    return PrimeField(q)
