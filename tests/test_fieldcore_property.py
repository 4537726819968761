"""Property tests: the multiply primitives against Python-int arithmetic."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipoly.fieldcore import (  # noqa: E402
    is_prime,
    mat_mul_mod,
    mul_mod,
    prime_field,
    sub_mul_mod,
)

BIG_PRIME = 4611686018427387847  # largest prime below 2**62
PRIMES = [2, 3, 5, 251, 65521, 65537, 1048573, 2**31 - 1, 2**31 + 11, BIG_PRIME]


@st.composite
def prime_moduli(draw):
    """Fixed edge primes, or the next prime above a random start."""
    if draw(st.booleans()):
        return draw(st.sampled_from(PRIMES))
    n = draw(st.integers(min_value=2, max_value=BIG_PRIME))
    while not is_prime(n):
        n += 1
    return n


def operands(q, shape, rng, extreme):
    """Uniform residues, or residues within 2 of q-1 (the widest products)."""
    if extreme:
        return q - 1 - rng.integers(0, min(q, 3), size=shape)
    return prime_field(q).random_matrix(rng, *shape)


def python_ints(x):
    return np.asarray(x).astype(object)


@settings(max_examples=60, deadline=None)
@given(
    q=prime_moduli(),
    shape=st.tuples(*[st.integers(min_value=0, max_value=12)] * 3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extreme=st.booleans(),
)
@example(q=BIG_PRIME, shape=(3, 4, 2), seed=0, extreme=True)
@example(q=2**31 + 11, shape=(3, 4, 2), seed=0, extreme=False)
def test_kernel_equals_python_int_product(q, shape, seed, extreme):
    r, s, c = shape
    rng = np.random.default_rng(seed)
    a = operands(q, (r, s), rng, extreme)
    b = operands(q, (s, c), rng, extreme)
    out = prime_field(q).mat_mul(a, b)
    want = python_ints(a).dot(python_ints(b)) % q
    assert out.dtype == np.int64
    assert out.shape == (r, c)
    assert np.array_equal(out, want)


@settings(max_examples=60, deadline=None)
@given(
    q=prime_moduli(),
    shape=st.tuples(*[st.integers(min_value=0, max_value=6)] * 2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extreme=st.booleans(),
)
@example(q=BIG_PRIME, shape=(3, 4), seed=0, extreme=True)
@example(q=2**31 + 11, shape=(3, 4), seed=0, extreme=False)
def test_elementwise_primitives_equal_python_ints(q, shape, seed, extreme):
    # The broadcast shapes of an elimination row update: rows (r, c),
    # factors (r, 1), pivot row (1, c).
    r, c = shape
    rng = np.random.default_rng(seed)
    a = operands(q, (r, c), rng, extreme)
    b = operands(q, (r, 1), rng, extreme)
    row = operands(q, (1, c), rng, extreme)
    prod = mul_mod(a, row, q)
    update = sub_mul_mod(a, b, row, q)
    assert prod.dtype == update.dtype == np.int64
    assert np.array_equal(prod, python_ints(a) * python_ints(row) % q)
    assert np.array_equal(
        update, (python_ints(a) - python_ints(b) * python_ints(row)) % q
    )


KERNEL_PRIMES = [2, 3, 65537, 2**31 - 1]


@st.composite
def kernel_cases(draw):
    """(q, rows, inner, cols) across a chunk limit and a column-tile edge.

    At q = 2**31 - 1 one Horner product (rows <= inner) sums 251 inner
    terms and one folded product (rows > inner) 62.  A tile holds
    2**15 // rows output columns.  Half the cases are at 2**31 - 1.
    """
    q = draw(st.sampled_from(KERNEL_PRIMES) | st.just(2**31 - 1))
    small = st.integers(min_value=0, max_value=40)
    if draw(st.booleans()):
        rows = draw(st.integers(min_value=0, max_value=6))
        inner = max(rows, draw(small | st.integers(min_value=245, max_value=510)))
    else:
        inner = draw(small | st.integers(min_value=58, max_value=130))
        rows = inner + draw(st.integers(min_value=1, max_value=6))
    if inner <= 40 and draw(st.booleans()):
        cols = (1 << 15) // max(rows, 1) + draw(st.integers(min_value=-1, max_value=1))
    else:
        cols = draw(st.integers(min_value=0, max_value=6))
    return q, rows, inner, cols


def kernel_operand(q, shape, rng, kind):
    """Uniform residues, or ones at the extremes of the centred kernel.

    "low" entries are near 0 (b - h near -h), "high" ones near q - 1,
    and "digits" ones have every low 16-bit digit at -2**15 under the
    top digit 2**15, the widest left entry at q = 2**31 - 1.
    """
    if kind == "uniform":
        return prime_field(q).random_matrix(rng, *shape)
    if kind == "low":
        return rng.integers(0, min(q, 3), size=shape)
    if kind == "high":
        return q - 1 - rng.integers(0, min(q, 3), size=shape)
    return np.full(shape, (2**31 - 2**15) % q, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(
    case=kernel_cases(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.tuples(*[st.sampled_from(["uniform", "low", "high", "digits"])] * 2),
)
@example(case=(2**31 - 1, 1, 252, 2), seed=0, kinds=("digits", "low"))
@example(case=(2**31 - 1, 2, 503, 3), seed=0, kinds=("high", "high"))
@example(case=(2**31 - 1, 64, 63, 2), seed=0, kinds=("digits", "high"))
@example(case=(65537, 3, 20, (1 << 15) // 3 + 1), seed=0, kinds=("high", "low"))
def test_mat_mul_mod_equals_python_ints_across_chunks_and_tiles(case, seed, kinds):
    q, rows, inner, cols = case
    rng = np.random.default_rng(seed)
    a = kernel_operand(q, (rows, inner), rng, kinds[0])
    b = kernel_operand(q, (inner, cols), rng, kinds[1])
    out = mat_mul_mod(a, b, q)
    assert out.dtype == np.int64 and out.shape == (rows, cols)
    assert np.array_equal(out, python_ints(a).dot(python_ints(b)) % q)


# -- elimination against the plain Gauss-Jordan loops -----------------------


def oracle_solve(m, rhs, q):
    """Gauss-Jordan over the whole augmented matrix, in Python integers."""
    n = m.shape[0]
    aug = np.concatenate([python_ints(m), python_ints(rhs)], axis=1) % q
    for col in range(n):
        pivots = np.nonzero(aug[col:, col])[0]
        if pivots.size == 0:
            return None
        p = col + int(pivots[0])
        if p != col:
            aug[[col, p]] = aug[[p, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), q - 2, q) % q
        factors = aug[:, col].copy()
        factors[col] = 0
        aug = (aug - factors[:, None] * aug[col][None, :]) % q
    return aug[:, n:]


def oracle_rank(m, q):
    """Row elimination with column skipping, in Python integers."""
    a = python_ints(m) % q
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
        a[r] = a[r] * pow(int(a[r, col]), q - 2, q) % q
        if r + 1 < rows:
            factors = a[r + 1 :, col].copy()
            a[r + 1 :] = (a[r + 1 :] - factors[:, None] * a[r][None, :]) % q
        r += 1
    return r


ELIMINATION_PRIMES = [2, 101, 2**31 - 1, BIG_PRIME]


def low_rank_matrix(q, rows, cols, rank, rng):
    """A rows x cols matrix of rank at most `rank`: a product through rank."""
    f = prime_field(q)
    return f.mat_mul(f.random_matrix(rng, rows, rank), f.random_matrix(rng, rank, cols))


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from(ELIMINATION_PRIMES),
    n=st.integers(min_value=0, max_value=9),
    rhs_cols=st.integers(min_value=0, max_value=3),
    deficit=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(q=2**31 - 1, n=5, rhs_cols=2, deficit=1, seed=0)
@example(q=BIG_PRIME, n=6, rhs_cols=1, deficit=0, seed=1)
def test_solve_linear_equals_the_plain_loop(q, n, rhs_cols, deficit, seed):
    rng = np.random.default_rng(seed)
    f = prime_field(q)
    m = low_rank_matrix(q, n, n, max(n - deficit, 0), rng)
    rhs = f.random_matrix(rng, n, rhs_cols)
    got, want = f.solve_linear(m, rhs), oracle_solve(m, rhs, q)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from(ELIMINATION_PRIMES),
    rows=st.integers(min_value=0, max_value=9),
    cols=st.integers(min_value=0, max_value=9),
    rank=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(q=101, rows=6, cols=4, rank=2, seed=0)
@example(q=BIG_PRIME, rows=4, cols=7, rank=3, seed=1)
def test_rank_equals_the_plain_loop(q, rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    m = low_rank_matrix(q, rows, cols, rank, rng)
    assert prime_field(q).rank(m) == oracle_rank(m, q)
