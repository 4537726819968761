"""Fuzz the wire codec: a blob with one word overwritten either fails to
load with a BipolyError or loads into objects that dump back to it."""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipoly import wire  # noqa: E402
from bipoly.bivariate import SchemeParams  # noqa: E402
from bipoly.errors import BipolyError  # noqa: E402
from bipoly.scheme import compute_all, encode  # noqa: E402

BIG_PRIME = 4611686018427387847  # largest prime below 2**62
CODECS = {
    "shares": (wire.dump_shares, wire.load_shares),
    "results": (wire.dump_results, wire.load_results),
}


@functools.lru_cache(maxsize=None)
def blob(q: int, kind: str) -> bytes:
    p = SchemeParams(K=2, L=2, T=1, m=2, N=3, q=q)
    rng = np.random.default_rng(5)
    dims = (2, 3, 4)
    enc = encode(p, p.field.random_matrix(rng, 2, 3), p.field.random_matrix(rng, 3, 4), rng)
    if kind == "shares":
        return wire.dump_shares(p, dims, enc.shares)
    return wire.dump_results(p, dims, compute_all(enc.shares))


def pinned(q: int) -> list[int]:
    """The edges of a field word and of a u64 word."""
    return [0, q - 1, q, 2**63, 2**64 - 1]


def assert_raises_or_round_trips(kind: str, data: bytes) -> None:
    dump, load = CODECS[kind]
    try:
        params, dims, objs = load(data)
    except BipolyError:
        return
    assert dump(params, dims, objs) == data


def with_word(data: bytes, index: int, value: int) -> bytes:
    words = np.frombuffer(data, dtype="<u8").copy()
    words[index] = value
    return words.tobytes()


@pytest.mark.parametrize("q", [101, BIG_PRIME])
@pytest.mark.parametrize("kind", sorted(CODECS))
def test_pinned_words_at_every_position(q, kind):
    base = blob(q, kind)
    for index in range(len(base) // 8):
        for value in pinned(q):
            assert_raises_or_round_trips(kind, with_word(base, index, value))


@pytest.mark.parametrize("q", [101, BIG_PRIME])
@pytest.mark.parametrize("kind", sorted(CODECS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_overwritten_word_raises_or_round_trips(q, kind, data):
    base = blob(q, kind)
    index = data.draw(st.integers(0, len(base) // 8 - 1), label="index")
    value = data.draw(
        st.one_of(st.sampled_from(pinned(q)), st.integers(0, 2**64 - 1)), label="value"
    )
    assert_raises_or_round_trips(kind, with_word(base, index, value))
