"""Fuzz the entry points that take matrices from a caller.

`PrimeField.mat_mul`, `worker_compute`, `compute_all` of a plain list
and both dumps of plain lists get canonical operands with one of them
mutated: a float, complex, string or bool array, an int64 or object
entry outside [0, q), a ragged nested list or a wrong shape.  Every call
must either match the Python-int oracle or raise a BipolyError; no
other exception may escape.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipoly import wire  # noqa: E402
from bipoly.bivariate import SchemeParams  # noqa: E402
from bipoly.errors import BipolyError  # noqa: E402
from bipoly.fieldcore import prime_field  # noqa: E402
from bipoly.scheme import compute_all, encode, worker_compute  # noqa: E402

PRIMES = [101, 2**31 - 1, 4611686018427387847]
# Every block has at least two rows and two columns, so a ragged list
# and a trimmed inner dimension stay well defined.
DIMS = (4, 3, 4)
MUTATIONS = [
    "none", "float", "complex", "str", "bool", "int64_low", "int64_high",
    "object_low", "object_high", "ragged", "flat", "stacked", "trimmed",
]


def canonical(data, q: int, rows: int, cols: int) -> np.ndarray:
    words = data.draw(st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(words, dtype=np.int64).reshape(rows, cols)


def mutate(data, base: np.ndarray, q: int, inner_axis: int):
    """(value, entries): base under a drawn mutation, and its Python-int entries.

    entries is None when the value is not an integer matrix of base's
    shape; "trimmed" drops the last index of inner_axis.
    """
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    i = data.draw(st.integers(0, base.shape[0] - 1))
    j = data.draw(st.integers(0, base.shape[1] - 1))
    entries = base.tolist()
    if kind == "none":
        return base, entries
    if kind == "float":
        return base + data.draw(st.sampled_from([0.0, 0.5])), None
    if kind == "complex":
        return base.astype(complex), None
    if kind == "str":
        return base.astype(str), None
    if kind == "bool":
        return base % 2 == 1, (base % 2).tolist()
    if kind == "ragged":
        entries[i].append(0)
        return entries, None
    if kind == "flat":
        return base.ravel(), None
    if kind == "stacked":
        return base[None], None
    if kind == "trimmed":
        return np.delete(base, -1, axis=inner_axis), None
    value = data.draw({
        "int64_low": st.integers(-(2**63), -1),
        "int64_high": st.integers(q, 2**63 - 1),
        "object_low": st.integers(-(2**80), -1),
        "object_high": st.integers(2**63, 2**80),
    }[kind], label="entry")
    out = base.astype(object) if kind.startswith("object") else base.copy()
    out[i, j] = value
    entries[i][j] = value
    return out, entries


def product(a, b, q: int):
    """The Python-int product of two integer matrices mod q."""
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def expect(call, want):
    """call() equals want, or raises a BipolyError when want is None."""
    if want is None:
        with pytest.raises(BipolyError):
            call()
    else:
        assert call() == want


@functools.lru_cache(maxsize=None)
def pipeline(q: int):
    p = SchemeParams(K=2, L=2, T=1, m=2, N=3, q=q)
    rng = np.random.default_rng(q % 997)
    r, s, c = DIMS
    enc = encode(p, p.field.random_matrix(rng, r, s), p.field.random_matrix(rng, s, c), rng)
    return p, list(enc.shares), list(compute_all(list(enc.shares)))


def mutated_shares(data, q: int):
    """The shares with one block of one worker mutated, and each share's block entries.

    Entries are (A-share, [B-shares]) per worker; a mutated block's
    entries are None when it is not an integer matrix of its shape.
    """
    _, shares, _ = pipeline(q)
    w = data.draw(st.integers(0, len(shares) - 1), label="worker")
    block = data.draw(st.integers(-1, len(shares[w].shares_b) - 1), label="block")
    entries = [(sh.share_a.tolist(), [blk.tolist() for blk in sh.shares_b]) for sh in shares]
    shares, sh = list(shares), shares[w]
    if block < 0:
        value, got = mutate(data, sh.share_a, q, 1)
        shares[w] = replace(sh, share_a=value)
        entries[w] = (got, entries[w][1])
    else:
        value, got = mutate(data, sh.shares_b[block], q, 0)
        shares[w] = replace(sh, shares_b=sh.shares_b[:block] + (value,) + sh.shares_b[block + 1 :])
        entries[w][1][block] = got
    return shares, entries


def fits(entries, q: int) -> bool:
    """An integer matrix whose words are all field elements."""
    return entries is not None and all(0 <= v < q for row in entries for v in row)


@pytest.mark.parametrize("q", PRIMES)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mat_mul_matches_the_oracle_or_raises(q, data):
    rows, inner, cols = (data.draw(st.integers(2, 4)) for _ in range(3))
    a, b = canonical(data, q, rows, inner), canonical(data, q, inner, cols)
    if data.draw(st.booleans(), label="mutate a"):
        a, ea = mutate(data, a, q, 1)
        eb = b.tolist()
    else:
        b, eb = mutate(data, b, q, 0)
        ea = a.tolist()
    want = None if ea is None or eb is None else product(ea, eb, q)
    expect(lambda: prime_field(q).mat_mul(a, b).tolist(), want)


@pytest.mark.parametrize("q", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_worker_products_match_the_oracle_or_raise(q, data):
    shares, entries = mutated_shares(data, q)
    wants = [
        [None if ea is None or eb is None else product(ea, eb, q) for eb in ebs]
        for ea, ebs in entries
    ]
    for sh, row in zip(shares, wants):
        for order, want in enumerate(row):
            expect(lambda: worker_compute(sh, order).product.tolist(), want)
    flat = [want for row in wants for want in row]
    expect(
        lambda: [res.product.tolist() for res in compute_all(shares)],
        None if None in flat else flat,
    )


@pytest.mark.parametrize("q", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_share_dump_matches_the_oracle_or_raises(q, data):
    # A dump writes integer blocks bit for bit, so it succeeds exactly
    # when every block word is a field element, and loads back as given.
    p, _, _ = pipeline(q)
    shares, entries = mutated_shares(data, q)
    ok = all(fits(ea, q) and all(fits(eb, q) for eb in ebs) for ea, ebs in entries)

    def round_trip():
        loaded = wire.load_shares(bytes(wire.dump_shares(p, DIMS, shares)))[2]
        return [(sh.share_a.tolist(), [blk.tolist() for blk in sh.shares_b]) for sh in loaded]

    expect(round_trip, entries if ok else None)


@pytest.mark.parametrize("q", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_result_dump_matches_the_oracle_or_raises(q, data):
    p, _, results = pipeline(q)
    k = data.draw(st.integers(0, len(results) - 1), label="record")
    entries = [res.product.tolist() for res in results]
    value, entries[k] = mutate(data, results[k].product, q, 0)
    results = results[:k] + [replace(results[k], product=value)] + results[k + 1 :]

    def round_trip():
        loaded = wire.load_results(bytes(wire.dump_results(p, DIMS, results)))[2]
        return [res.product.tolist() for res in loaded]

    expect(round_trip, entries if all(fits(e, q) for e in entries) else None)
