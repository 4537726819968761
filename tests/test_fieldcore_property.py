"""Property tests: the multiply primitives against Python-int arithmetic."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipoly.fieldcore import (  # noqa: E402
    is_prime,
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
