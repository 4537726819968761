"""Property test: the exact kernel against Python-int products."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipoly.fieldcore import is_prime, prime_field  # noqa: E402

PRIMES = [2, 3, 5, 251, 65521, 65537, 1048573, 2**31 - 1]


@st.composite
def prime_moduli(draw):
    """Fixed edge primes, or the next prime above a random start."""
    if draw(st.booleans()):
        return draw(st.sampled_from(PRIMES))
    n = draw(st.integers(min_value=2, max_value=2**31 - 2))
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(
    q=prime_moduli(),
    shape=st.tuples(*[st.integers(min_value=0, max_value=12)] * 3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extreme=st.booleans(),
)
def test_kernel_equals_python_int_product(q, shape, seed, extreme):
    r, s, c = shape
    f = prime_field(q)
    rng = np.random.default_rng(seed)
    if extreme:  # the widest limbs: values near q-1
        a = q - 1 - rng.integers(0, min(q, 3), size=(r, s))
        b = q - 1 - rng.integers(0, min(q, 3), size=(s, c))
    else:
        a = f.random_matrix(rng, r, s)
        b = f.random_matrix(rng, s, c)
    out = f.mat_mul(a, b)
    want = a.astype(object).dot(b.astype(object)) % q
    assert out.dtype == np.int64
    assert out.shape == (r, c)
    assert np.array_equal(out, want)
