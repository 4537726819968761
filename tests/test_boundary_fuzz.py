"""Fuzz the entry points that take matrices, responses, coalitions or bytes.

`PrimeField.mat_mul`, `encode`, `worker_compute`, `compute_all` of a
plain list and both dumps of plain lists get canonical operands with one
of them mutated: a float, complex, string or bool array, an int64 or
object entry outside [0, q), a ragged nested list or a wrong shape.
Every call must either match the Python-int oracle or raise a
BipolyError; no other exception may escape.  `decode` gets a response
set with one response's worker_id, order, point or product broken, and
must return A @ B or raise a BipolyError.  The four privacy checks get
a coalition with K, T or m mutated (negative, float, str) or one point
mutated (a tuple, a float coordinate, a non-canonical integer); each
must give what it gives on the canonical coalition, or, for an input
outside the contract, raise a BipolyError, and the sweep refuses
exactly what the rank check refuses.  Both loads get blobs with header
words at their edges, swapped or truncated, and must return a set or
raise a WireFormatError.
"""

import dataclasses
import functools
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipoly import wire  # noqa: E402
from bipoly.bivariate import EvalPoint, SchemeParams  # noqa: E402
from bipoly.errors import BipolyError, WireFormatError  # noqa: E402
from bipoly.fieldcore import prime_field  # noqa: E402
from bipoly.privacy import (  # noqa: E402
    exhaustive_mi_check,
    mask_matrices,
    perfect_privacy_check,
    sweep_collusion_subsets,
)
from bipoly.scheme import compute_all, decode, encode, worker_compute  # noqa: E402

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


def mutate_either(data, a: np.ndarray, b: np.ndarray, q: int):
    """(a, b, ea, eb): a drawn one of the factors of a @ b mutated, and both entries."""
    if data.draw(st.booleans(), label="mutate a"):
        a, ea = mutate(data, a, q, 1)
        return a, b, ea, b.tolist()
    b, eb = mutate(data, b, q, 0)
    return a, b, a.tolist(), eb


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
    a, b, ea, eb = mutate_either(data, a, b, q)
    want = None if ea is None or eb is None else product(ea, eb, q)
    expect(lambda: prime_field(q).mat_mul(a, b).tolist(), want)


@pytest.mark.parametrize("q", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_matches_the_oracle_or_raises(q, data):
    # Points and masks come from the rng alone, so an integer operand
    # gives the shares of its entries reduced mod q.
    p, _, _ = pipeline(q)
    r, s, c = DIMS
    a, b, ea, eb = mutate_either(data, canonical(data, q, r, s), canonical(data, q, s, c), q)

    def shares(a, b):
        return bytes(encode(p, a, b, np.random.default_rng(0)).shares.blob())

    def reduced(entries):
        return np.array([[v % q for v in row] for row in entries], dtype=np.int64)

    want = None if ea is None or eb is None else shares(reduced(ea), reduced(eb))
    expect(lambda: shares(a, b), want)


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


@functools.lru_cache(maxsize=None)
def decodable(q: int):
    """Params, A @ B and the 12 responses of 6 workers; R_th is 10."""
    p = SchemeParams(K=2, L=2, T=1, m=2, N=6, q=q)
    rng = np.random.default_rng(q % 991)
    r, s, c = DIMS
    a, b = p.field.random_matrix(rng, r, s), p.field.random_matrix(rng, s, c)
    return p, p.field.mat_mul(a, b).tolist(), list(compute_all(encode(p, a, b, rng).shares))


def broken_response(data, res, q: int, m: int):
    """res with its worker_id, order, point or product drawn out of the contract."""
    x, y = res.point
    field = data.draw(st.sampled_from(["worker_id", "order", "point", "product"]), label="field")
    value = data.draw(st.sampled_from({
        "worker_id": [None, str(res.worker_id), float(res.worker_id)],
        "order": [None, str(res.order), 1.5, -1, m],
        "point": [
            (x, y), EvalPoint(-x - 1, y), EvalPoint(x + q, y), EvalPoint(2**70, y),
            EvalPoint(x, float(y)),
        ],
        "product": [
            res.product + 0.0, res.product.astype(str), res.product.tolist()[:-1] + [[0]],
            res.product.ravel(), res.product[None],
        ],
    }[field]), label="value")
    return replace(res, **{field: value})


@pytest.mark.parametrize("q", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decode_of_a_broken_response_is_exact_or_raises(q, data):
    # Only mutations that break the contract: a response that keeps it
    # but carries a wrong value is for a check of the decoded product.
    p, want, results = decodable(q)
    k = data.draw(st.integers(0, len(results) - 1), label="response")
    results = list(results)
    results[k] = broken_response(data, results[k], q, p.m)
    try:
        got = decode(p, results).assembled.tolist()
    except BipolyError:
        return
    assert got == want


@pytest.mark.parametrize("q", PRIMES)
@pytest.mark.parametrize("kind", ["shares", "results"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_load_of_a_broken_header_returns_a_set_or_raises(q, kind, data):
    p, shares, results = pipeline(q)
    if kind == "shares":
        blob, load, made = wire.dump_shares(p, DIMS, shares), wire.load_shares, wire.ShareSet
    else:
        blob, load, made = wire.dump_results(p, DIMS, results), wire.load_results, wire.ResultSet
    words = np.frombuffer(blob, dtype="<u8").copy()
    edges = st.sampled_from([0, 1, q, 2**62, 2**63, 2**64 - 1])
    for index, value in data.draw(st.dictionaries(st.integers(0, 10), edges, max_size=3)).items():
        words[index] = value
    i, j = data.draw(st.lists(st.integers(0, 10), min_size=2, max_size=2), label="swap")
    words[[i, j]] = words[[j, i]]
    length = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))), label="length")
    raw = words.tobytes()[:length]
    try:
        loaded = load(raw)[2]
    except WireFormatError:
        return
    assert isinstance(loaded, made)


PRIVACY_CHECKS = (
    sweep_collusion_subsets, mask_matrices, perfect_privacy_check, exhaustive_mi_check,
)


def mutated_coalition(data, q: int):
    """(args, canonical, valid): the privacy checks' arguments with at most one
    count or point mutated, the arguments before it, and whether it kept them valid."""
    K, T, m = (data.draw(st.integers(low, 2), label=name) for name, low in zip("KTm", (0, 1, 0)))
    # Small x coordinates make zero and repeated x, so failing coalitions, common.
    xs = st.one_of(st.integers(0, 2), st.integers(0, q - 1))
    pairs = data.draw(st.lists(st.tuples(xs, st.integers(0, q - 1)), min_size=T, max_size=T,
                               unique=True), label="points")
    canonical = {"points": [EvalPoint(x, y) for x, y in pairs], "K": K, "T": T, "m": m, "q": q}
    args = dict(canonical, points=list(canonical["points"]))
    kind = data.draw(st.sampled_from(["none", "count", "tuple", "float", "noncanonical"]))
    i = data.draw(st.integers(0, T - 1), label="point")
    x, y = args["points"][i]
    if kind == "count":
        name = data.draw(st.sampled_from("KTm"), label="count")
        args[name] = data.draw(st.sampled_from([-1, float(args[name]), str(args[name])]))
    elif kind == "tuple":
        args["points"][i] = (x, y)
    elif kind == "float":
        args["points"][i] = data.draw(st.sampled_from([EvalPoint(float(x), y), EvalPoint(x, 0.5)]))
    elif kind == "noncanonical":
        dx, dy = (data.draw(st.integers(-(2**70), 2**70), label="multiple") for _ in "xy")
        args["points"][i] = EvalPoint(x + dx * q, y + dy * q)
    return args, canonical, kind in ("none", "noncanonical")


def outcome(call):
    """call()'s result as plain values, or the class of the BipolyError it raised."""
    try:
        got = call()
    except BipolyError as err:
        return type(err)
    if dataclasses.is_dataclass(got):
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(got).items()}
    return got


# At q = 5 the mutual-information check enumerates every draw; at 101
# only those with T = 1 and m = 0, and it refuses the rest, and every
# draw at the two larger q, as too large to enumerate.
@pytest.mark.parametrize("q", [5] + PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_privacy_checks_match_the_oracle_or_raise(q, data):
    args, canonical, valid = mutated_coalition(data, q)
    got = {check: outcome(lambda: check(**args)) for check in PRIVACY_CHECKS}
    for check, value in got.items():
        if valid:
            assert value == outcome(lambda: check(**canonical)), check.__name__
        else:
            assert isinstance(value, type) and issubclass(value, BipolyError), check.__name__
    refused = {check: isinstance(value, type) for check, value in got.items()}
    assert refused[sweep_collusion_subsets] == refused[perfect_privacy_check]
