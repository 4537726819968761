import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bipoly import wire
from bipoly.bivariate import EvalPoint, SchemeParams
from bipoly.errors import BipolyError, WireFormatError
from bipoly.scheme import compute_all, decode, encode, random_prefix_subset, recovery_threshold

BIG_PRIME = 4611686018427387847


def pipeline(q, dims=(4, 6, 4)):
    p = SchemeParams(K=2, L=2, T=1, m=2, N=5, q=q)
    f = p.field
    rng = np.random.default_rng(21)
    r, s, c = dims
    a = f.random_matrix(rng, r, s)
    b = f.random_matrix(rng, s, c)
    enc = encode(p, a, b, rng)
    return p, dims, enc.shares, compute_all(enc.shares)


def shares_equal(s1, s2):
    return (
        s1.worker_id == s2.worker_id
        and s1.point == s2.point
        and s1.q == s2.q
        and np.array_equal(s1.share_a, s2.share_a)
        and all(np.array_equal(x, y) for x, y in zip(s1.shares_b, s2.shares_b))
    )


def test_share_and_result_records_live_in_wire():
    # wire sits below scheme: it defines the records, scheme and the
    # package re-export them, and wire imports nothing from scheme.
    # privacy imports neither of them.
    import ast
    import inspect

    import bipoly
    from bipoly import privacy, scheme

    assert bipoly.WorkerShare is scheme.WorkerShare is wire.WorkerShare
    assert bipoly.PartialResult is scheme.PartialResult is wire.PartialResult
    def imported(module):
        tree = ast.parse(inspect.getsource(module))
        return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}

    assert not imported(wire) & {"scheme", "bipoly.scheme"}
    # privacy is math over bivariate and fieldcore: it reads no records.
    assert not imported(privacy) & {"wire", "bipoly.wire", "scheme", "bipoly.scheme"}


@pytest.mark.parametrize("q", [101, 2**31 - 1, BIG_PRIME])
def test_share_round_trip(q):
    p, dims, shares, _ = pipeline(q)
    blob = wire.dump_shares(p, dims, shares)
    p2, dims2, loaded = wire.load_shares(blob)
    assert p2 == p and dims2 == dims
    assert all(shares_equal(a, b) for a, b in zip(shares, loaded))
    assert loaded[0].share_a.dtype == np.int64


@pytest.mark.parametrize("q", [101, BIG_PRIME])
def test_result_round_trip(q):
    p, dims, _, results = pipeline(q)
    blob = wire.dump_results(p, dims, results)
    p2, dims2, loaded = wire.load_results(blob)
    assert p2 == p and dims2 == dims
    for r1, r2 in zip(results, loaded):
        assert (r1.worker_id, r1.order, r1.point) == (r2.worker_id, r2.order, r2.point)
        assert np.array_equal(r1.product, r2.product)
        assert r2.product.dtype == np.int64


def test_header_words_little_endian():
    p, dims, shares, _ = pipeline(101)
    blob = wire.dump_shares(p, dims, shares)
    words = np.frombuffer(blob[: 11 * 8], dtype="<u8")
    assert int(words[0]) == wire.MAGIC
    assert int(words[1]) == wire.VERSION
    assert [int(w) for w in words[2:]] == [101, 2, 2, 1, 2, 5, 4, 6, 4]
    assert blob[:8] == b"FQPCODE1"


def test_dump_is_deterministic():
    p, dims, shares, results = pipeline(101)
    assert wire.dump_shares(p, dims, shares) == wire.dump_shares(p, dims, shares)
    assert wire.dump_results(p, dims, results) == wire.dump_results(p, dims, results)


def test_malformed_blobs_rejected():
    p, dims, shares, _ = pipeline(101)
    blob = wire.dump_shares(p, dims, shares)
    with pytest.raises(WireFormatError):
        wire.load_shares(blob[:40])  # truncated header
    with pytest.raises(WireFormatError):
        wire.load_shares(blob[:-8])  # short payload
    with pytest.raises(WireFormatError):
        wire.load_shares(blob[:-1])  # not word aligned
    bad_magic = bytearray(blob)
    bad_magic[0] ^= 0xFF
    with pytest.raises(WireFormatError):
        wire.load_shares(bytes(bad_magic))
    bad_version = bytearray(blob)
    bad_version[8] = 0xEE
    with pytest.raises(WireFormatError):
        wire.load_shares(bytes(bad_version))


def test_share_count_mismatch_rejected():
    p, dims, shares, _ = pipeline(101)
    with pytest.raises(WireFormatError):
        wire.dump_shares(p, dims, shares[:-1])


def test_dump_shares_checks_blocks_against_dims():
    p, dims, shares, _ = pipeline(101)
    # dims (4, 6, 4) give (2, 6) A-shares and (6, 2) B-shares.
    with pytest.raises(WireFormatError, match=r"A-share has block shape \(2, 6\), but dims give \(4, 6\)"):
        wire.dump_shares(p, (8, 6, 4), shares)
    with pytest.raises(WireFormatError, match=r"B-share has block shape \(6, 2\), but dims give \(6, 4\)"):
        wire.dump_shares(p, (4, 6, 8), shares)
    short = list(shares)
    short[2] = replace(short[2], shares_b=short[2].shares_b[:1])
    with pytest.raises(WireFormatError, match="holds 1 B-shares, expected m=2"):
        wire.dump_shares(p, dims, short)


def test_dump_results_checks_blocks_against_dims():
    p, dims, _, results = pipeline(101)
    # A blob written under the wrong dims would load as garbage records.
    with pytest.raises(WireFormatError, match=r"block shape \(2, 2\), but dims give \(4, 2\)"):
        wire.dump_results(p, (8, 6, 4), results)
    bad = list(results)
    bad[-1] = replace(bad[-1], product=bad[-1].product[:, :1])
    with pytest.raises(WireFormatError, match=r"block shape \(2, 1\)"):
        wire.dump_results(p, dims, bad)


NOT_U64 = r"holds object entries, not integers in \[0, 2\*\*64\)"


@pytest.mark.parametrize(
    "block, match",
    [
        ([[1.5, 2], [1, 1]], "holds float64 entries, not integers"),
        (np.array([[1.0, 2], [1, 1]]), "holds float64 entries, not integers"),
        ([["1", "2"], ["1", "1"]], "holds <U1 entries"),
        (np.array([[1 + 0j, 2], [1, 1]]), "holds complex128 entries"),
        ([[1, 2], [1]], "is a ragged nested sequence"),
        (np.array([[2**64, 1], [1, 1]], dtype=object), NOT_U64),
        (np.array([[-1, 1], [1, 1]], dtype=object), NOT_U64),
        (np.array([[0.5, 1], [1, 1]], dtype=object), "holds object entries, not integers$"),
    ],
    ids=["float-list", "integral-float", "str", "complex", "ragged", "object-2**64",
         "object-negative", "object-float"],
)
def test_dumps_name_every_block_that_is_not_integers(block, match):
    # Each was a silently wrong record or a bare numpy exception.
    p, dims, _, results = pipeline(101)
    bad = list(results)
    bad[3] = replace(bad[3], product=block)
    with pytest.raises(WireFormatError, match=f"^worker 2 order 1 product {match}"):
        wire.dump_results(p, dims, bad)


def test_dumps_write_bool_and_integer_blocks_bit_for_bit():
    p, dims, _, results = pipeline(101)
    for block in (np.array([[True, False], [False, True]]), np.array([[3, 4], [5, 6]], dtype=np.int8),
                  np.array([[3, 4], [5, 2**63 % 101]], dtype=object),
                  np.array([[3, 4], [5, 6]], dtype=np.uint16)):
        bad = list(results)
        bad[0] = replace(bad[0], product=block)
        loaded = wire.load_results(bytes(wire.dump_results(p, dims, bad)))[2]
        assert loaded[0].product.tolist() == np.array(block, dtype=np.int64).tolist()
    # Integer words >= q, negative ones included, are left to blob()'s check.
    for block in (np.array([[101, 0], [0, 0]]), np.array([[-1, 0], [0, 0]], dtype=np.int8),
                  np.array([[2**63, 0], [0, 0]], dtype=object)):
        bad = list(results)
        bad[0] = replace(bad[0], product=block)
        with pytest.raises(WireFormatError, match="holds a word >= q=101"):
            wire.dump_results(p, dims, bad)


def test_dumps_name_a_point_that_is_not_an_eval_point():
    p, dims, shares, results = pipeline(101)
    bad_shares = list(shares)
    bad_shares[2] = replace(bad_shares[2], point=(1, 2))
    with pytest.raises(WireFormatError, match=r"^worker 3 has point \(1, 2\); expected an EvalPoint"):
        wire.dump_shares(p, dims, bad_shares)
    bad_results = list(results)
    bad_results[3] = replace(bad_results[3], point=(1, 2))
    with pytest.raises(WireFormatError,
                       match=r"^worker 2 order 1 has point \(1, 2\); expected an EvalPoint"):
        wire.dump_results(p, dims, bad_results)


def _with_word(blob, index, value):
    words = np.frombuffer(blob, dtype="<u8").copy()
    words[index] = value
    return words.tobytes()


@pytest.mark.parametrize("q", [101, BIG_PRIME])
@pytest.mark.parametrize("bad", ["q", "max"])
def test_loaders_reject_non_canonical_words(q, bad):
    p, dims, shares, results = pipeline(q)
    value = q if bad == "q" else 2**64 - 1
    up = wire.dump_shares(p, dims, shares)
    down = wire.dump_results(p, dims, results)
    # Share record: worker_id, x, y, A-share, B-shares; result record:
    # worker_id, order, x, y, product.  Header is 11 words.
    # Indices: x, y, first A-share word, last B-share word.
    for index in (12, 13, 14, len(up) // 8 - 1):
        with pytest.raises(WireFormatError, match="field words must be < q"):
            wire.load_shares(_with_word(up, index, value))
    # Indices: x, y, first product word, last product word.
    for index in (13, 14, 15, len(down) // 8 - 1):
        with pytest.raises(WireFormatError, match="field words must be < q"):
            wire.load_results(_with_word(down, index, value))
    # q - 1 is canonical and loads unchanged.
    _, _, loaded = wire.load_shares(_with_word(up, 14, q - 1))
    assert int(loaded[0].share_a[0, 0]) == q - 1


def test_dims_must_divide_into_blocks_on_dump():
    p, _, shares, results = pipeline(101)
    # r = 5 still gives (2, 6) A-shares under r // K; the header would lie.
    with pytest.raises(WireFormatError, match=r"K \| r violated: K=2 does not divide r=5"):
        wire.dump_shares(p, (5, 6, 4), shares)
    with pytest.raises(WireFormatError, match=r"L \| c violated: L=2 does not divide c=5"):
        wire.dump_results(p, (4, 6, 5), results)


@pytest.mark.parametrize("index, value, match", [(8, 5, r"K \| r"), (10, 5, r"L \| c")])
def test_loaders_reject_dims_that_do_not_divide(index, value, match):
    p, dims, shares, results = pipeline(101)
    with pytest.raises(WireFormatError, match=match):
        wire.load_shares(_with_word(wire.dump_shares(p, dims, shares), index, value))
    with pytest.raises(WireFormatError, match=match):
        wire.load_results(_with_word(wire.dump_results(p, dims, results), index, value))


@pytest.mark.parametrize("index, name", [(8, "r"), (10, "c")])
def test_zero_row_or_column_dims_are_refused(index, name):
    # A zero r or c leaves result records without a product, so a load
    # would read the product words as extra empty records.
    p, dims, shares, results = pipeline(101)
    match = f"dims need {name} >= 1 for a product block, got {name}=0"
    with pytest.raises(WireFormatError, match=match):
        wire.load_results(_with_word(wire.dump_results(p, dims, results), index, 0))
    with pytest.raises(WireFormatError, match=match):
        wire.load_shares(_with_word(wire.dump_shares(p, dims, shares), index, 0))
    zeroed = (0, 6, 4) if name == "r" else (4, 6, 0)
    with pytest.raises(WireFormatError, match=match):
        wire.dump_results(p, zeroed, [])


def test_encode_refuses_an_operand_with_no_rows():
    p = SchemeParams(K=2, L=2, T=1, m=2, N=5, q=101)
    b = p.field.random_matrix(np.random.default_rng(0), 4, 4)
    with pytest.raises(BipolyError, match="dims need r >= 1"):
        encode(p, np.zeros((0, 4), dtype=np.int64), b, np.random.default_rng(1))


@pytest.mark.parametrize("index, value, match", [
    (2, 100, "field order 100 is not prime"), (3, 0, "K must be >= 1"), (6, 3, "m <= L violated"),
])
def test_loaders_name_header_parameters_that_break_an_invariant(index, value, match):
    # These escaped as a ParameterError or NonPrimeModulusError.
    p, dims, shares, results = pipeline(101)
    with pytest.raises(WireFormatError, match=f"header holds invalid parameters: {match}"):
        wire.load_shares(_with_word(wire.dump_shares(p, dims, shares), index, value))
    with pytest.raises(WireFormatError, match=f"header holds invalid parameters: {match}"):
        wire.load_results(_with_word(wire.dump_results(p, dims, results), index, value))


@pytest.mark.parametrize("writable", [False, True])
def test_loaded_blocks_are_read_only_views_of_the_blob(writable):
    p, dims, shares, results = pipeline(101)
    up = wire.dump_shares(p, dims, shares)
    down = wire.dump_results(p, dims, results)
    if writable:
        up, down = bytearray(up), bytearray(down)
    _, _, loaded_shares = wire.load_shares(up)
    _, _, loaded_results = wire.load_results(down)
    blocks = [(blk, up) for sh in loaded_shares for blk in (sh.share_a, *sh.shares_b)]
    blocks += [(res.product, down) for res in loaded_results]
    for blk, blob in blocks:
        assert blk.dtype == np.int64
        assert not blk.flags.writeable
        assert np.shares_memory(blk, np.frombuffer(blob, dtype=np.uint8))
    with pytest.raises(ValueError):
        loaded_shares[0].share_a[0, 0] = 1


def test_worker_id_and_order_keep_their_u64_range():
    p, dims, shares, results = pipeline(101)
    big = 2**64 - 1
    shares = [replace(shares[0], worker_id=big)] + list(shares[1:])
    results = [replace(results[0], worker_id=big, order=2**63)]
    up = wire.dump_shares(p, dims, shares)
    down = wire.dump_results(p, dims, results)
    assert wire.load_shares(up)[2][0].worker_id == big
    loaded = wire.load_results(down)[2][0]
    assert (loaded.worker_id, loaded.order) == (big, 2**63)
    assert wire.dump_shares(p, dims, wire.load_shares(up)[2]) == up
    assert wire.dump_results(p, dims, [loaded]) == down


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_allocates_one_payload_and_load_copies_none():
    p, dims, shares, results = pipeline(101, dims=(128, 128, 128))
    up = wire.dump_shares(p, dims, shares)
    down = wire.dump_results(p, dims, results)
    assert len(up) > 900_000 and len(down) > 300_000
    slack = 64 * 1024
    # One word array and the bytes returned from it, nothing else payload-sized.
    assert _peak_bytes(lambda: wire.dump_shares(p, dims, shares)) <= 2 * len(up) + slack
    assert _peak_bytes(lambda: wire.dump_results(p, dims, results)) <= 2 * len(down) + slack
    assert _peak_bytes(lambda: wire.load_shares(up)) <= slack
    assert _peak_bytes(lambda: wire.load_results(down)) <= slack


def _in_blob(blob, shares):
    """Whether every share block is memory of the dumped blob."""
    words = np.frombuffer(blob, dtype=np.uint8)
    return all(np.shares_memory(blk, words) for sh in shares for blk in (sh.share_a, *sh.shares_b))


def test_dump_of_encoded_shares_copies_no_payload():
    p, dims, shares, _ = pipeline(101, dims=(128, 128, 128))
    blob = wire.dump_shares(p, dims, shares)
    assert len(blob) > 900_000 and _in_blob(blob, shares)
    assert _peak_bytes(lambda: wire.dump_shares(p, dims, shares)) <= 64 * 1024


@pytest.mark.parametrize("q", [101, 2**31 - 1, BIG_PRIME])
def test_in_place_dump_equals_the_packed_bytes(q):
    p, dims, shares, _ = pipeline(q)
    blob = wire.dump_shares(p, dims, shares)
    # A copied block sends the list through the packer.
    copied = list(shares)
    copied[2] = replace(copied[2], shares_b=(copied[2].shares_b[0].copy(), copied[2].shares_b[1]))
    packed = wire.dump_shares(p, dims, copied)
    assert _in_blob(blob, shares) and not _in_blob(packed, shares)
    assert bytes(packed) == bytes(blob)


def test_replaced_head_words_are_packed_not_written_in_place():
    # A list of replaced shares is packed into a new blob; the set's blob,
    # and the view a dump of it returned, keep their bytes.
    p, dims, shares, _ = pipeline(101)
    first = wire.dump_shares(p, dims, shares)
    before = bytes(first)
    moved = list(shares)
    moved[1] = replace(moved[1], worker_id=99, point=EvalPoint(3, 4))
    moved[4] = replace(moved[4], worker_id=2**64 - 1)
    blob = wire.dump_shares(p, dims, moved)
    assert _in_blob(first, shares) and not _in_blob(blob, shares)
    assert bytes(first) == before
    assert bytes(wire.dump_shares(p, dims, shares)) == before
    loaded = wire.load_shares(blob)[2]
    assert (loaded[1].worker_id, loaded[1].point) == (99, (3, 4))
    assert loaded[4].worker_id == 2**64 - 1
    assert all(shares_equal(a, b) for a, b in zip(moved, loaded))


def test_reordered_shares_fall_back_to_the_packer():
    p, dims, shares, _ = pipeline(101)
    blob = wire.dump_shares(p, dims, shares[::-1])
    assert not _in_blob(blob, shares)
    loaded = wire.load_shares(blob)[2]
    assert all(shares_equal(a, b) for a, b in zip(shares[::-1], loaded))
    swapped = [replace(shares[0], share_a=shares[1].share_a)] + list(shares[1:])
    assert not _in_blob(wire.dump_shares(p, dims, swapped), shares)
    # A view at the right address but of another shape is not the block.
    cut = [replace(shares[0], share_a=shares[0].share_a[:1])] + list(shares[1:])
    with pytest.raises(WireFormatError, match=r"A-share has block shape \(1, 6\)"):
        wire.dump_shares(p, dims, cut)


def test_in_place_dump_refuses_a_negative_worker_id():
    p, dims, shares, _ = pipeline(101)
    first = bytes(wire.dump_shares(p, dims, shares))
    with pytest.raises(WireFormatError, match="worker_id=-1 does not fit a u64 word"):
        wire.dump_shares(p, dims, [replace(shares[0], worker_id=-1)] + list(shares[1:]))
    assert bytes(wire.dump_shares(p, dims, shares)) == first


def test_encoded_shares_are_read_only_views():
    _, _, shares, _ = pipeline(101)
    for sh in shares:
        for blk in (sh.share_a, *sh.shares_b):
            assert blk.dtype == np.int64 and not blk.flags.writeable
    with pytest.raises(ValueError):
        shares[0].shares_b[1][0, 0] = 1


def test_dumps_return_read_only_bytes_of_the_blob():
    p, dims, shares, results = pipeline(101)
    r, s, c = dims
    share_words = 11 + p.N * (3 + r // p.K * s + p.m * s * c // p.L)
    result_words = 11 + len(results) * (4 + r // p.K * c // p.L)
    for blob, words in [
        (wire.dump_shares(p, dims, shares), share_words),
        (wire.dump_shares(p, dims, shares[::-1]), share_words),
        (wire.dump_results(p, dims, results), result_words),
    ]:
        assert isinstance(blob, memoryview) and blob.readonly
        assert blob.format == "B" and len(blob) == blob.nbytes == 8 * words
        with pytest.raises(TypeError):
            blob[0] = 0


@pytest.mark.parametrize("value", [1.5, "3", 2.7])
def test_dumps_name_a_head_word_that_is_not_an_integer(value):
    # A result at x = 9.5 or worker_id = 2.5 was once written as 9 or 2.
    p, dims, shares, results = pipeline(101)
    sh, res = shares[0], results[0]
    cases = [
        (wire.dump_shares, "worker_id", replace(sh, worker_id=value)),
        (wire.dump_shares, "x", replace(sh, point=EvalPoint(value, sh.point.y))),
        (wire.dump_shares, "y", replace(sh, point=EvalPoint(sh.point.x, value))),
        (wire.dump_results, "worker_id", replace(res, worker_id=value)),
        (wire.dump_results, "order", replace(res, order=value)),
        (wire.dump_results, "x", replace(res, point=EvalPoint(value, res.point.y))),
        (wire.dump_results, "y", replace(res, point=EvalPoint(res.point.x, value))),
    ]
    for dump, name, bad in cases:
        records = list(shares if dump is wire.dump_shares else results)
        with pytest.raises(WireFormatError, match=rf"^worker .*: {name}={re.escape(repr(value))} "):
            dump(p, dims, [bad] + records[1:])


@pytest.mark.parametrize("dims, match", [
    ((4, -1, 4), "dims need s >= 0, got s=-1"), ((4.0, 6, 4), "^r=4.0 is not an integer"),
])
def test_dumps_refuse_dims_that_are_no_counts(dims, match):
    # These once raised a bare OverflowError and TypeError.
    p, _, shares, results = pipeline(101)
    with pytest.raises(WireFormatError, match=match):
        wire.dump_shares(p, dims, list(shares))
    with pytest.raises(WireFormatError, match=match):
        wire.dump_results(p, dims, list(results))


def _with_entry(block, value):
    out = np.array(block)
    out.flat[-1] = value
    return out


@pytest.mark.parametrize("q", [101, BIG_PRIME])
@pytest.mark.parametrize("bad", ["q", "-1"])
def test_dumps_refuse_non_canonical_field_words(q, bad):
    # -1 would wrap to 2**64 - 1 and q would be written as is; the dumps
    # refuse both, as the loaders do.  A coordinate is refused by the
    # point check decode applies, before any word is written.
    p, dims, shares, results = pipeline(q)
    value = q if bad == "q" else -1
    sh, res = shares[1], results[3]
    words, point = "field words must be < q", rf"={value} is not a field element in \[0, q={q}\)"
    bad_shares = [
        (replace(sh, share_a=_with_entry(sh.share_a, value)), words),
        (replace(sh, shares_b=(sh.shares_b[0], _with_entry(sh.shares_b[1], value))), words),
        (replace(sh, point=EvalPoint(sh.point.x, value)), "^worker 2: y" + point),
    ]
    bad_results = [
        (replace(res, product=_with_entry(res.product, value)), words),
        (replace(res, point=EvalPoint(value, res.point.y)), "^worker 2 order 1: x" + point),
    ]
    for bad_share, match in bad_shares:
        with pytest.raises(WireFormatError, match=match):
            wire.dump_shares(p, dims, [shares[0], bad_share] + list(shares[2:]))
    for bad_result, match in bad_results:
        with pytest.raises(WireFormatError, match=match):
            wire.dump_results(p, dims, results[:3] + [bad_result])


@pytest.mark.parametrize("value", [-1, 2**64])
def test_dumps_name_the_head_word_outside_the_u64_range(value):
    p, dims, shares, results = pipeline(101)
    sh, res = shares[0], results[0]
    # An id outside the range does not fit its word; a coordinate outside
    # [0, q) is refused by the point check decode applies.
    fits, point = "does not fit a u64 word", r"is not a field element in \[0, q=101\)"
    share_cases = {
        "worker_id": (replace(sh, worker_id=value), fits),
        "x": (replace(sh, point=EvalPoint(value, sh.point.y)), point),
        "y": (replace(sh, point=EvalPoint(sh.point.x, value)), point),
    }
    for name, (bad, match) in share_cases.items():
        with pytest.raises(WireFormatError, match=rf"worker .*: {name}={value} {match}"):
            wire.dump_shares(p, dims, [bad] + list(shares[1:]))
    result_cases = {
        "worker_id": (replace(res, worker_id=value), fits),
        "order": (replace(res, order=value), fits),
        "x": (replace(res, point=EvalPoint(value, res.point.y)), point),
    }
    for name, (bad, match) in result_cases.items():
        with pytest.raises(WireFormatError, match=rf"{name}={value} {match}"):
            wire.dump_results(p, dims, [bad])


def test_sets_carry_their_blob_and_slice_to_lists():
    p, dims, shares, results = pipeline(101)
    assert isinstance(shares, wire.ShareSet) and isinstance(results, wire.ResultSet)
    for obj in (shares, results):
        assert (obj.params, obj.dims) == (p, dims)
    assert len(shares) == p.N and len(results) == p.N * p.m
    assert [(r.worker_id, r.order) for r in results] == [
        (i, o) for i in range(1, p.N + 1) for o in range(p.m)
    ]
    assert [res.point for res in results[::p.m]] == [sh.point for sh in shares]
    assert isinstance(shares[1:], list) and isinstance(results[::-1], list)
    assert len(results[:3] + [results[0]]) == 4
    assert shares[-1].worker_id == p.N
    down = wire.dump_results(p, dims, results)
    words = np.frombuffer(down, dtype=np.uint8)
    for res in results:
        assert not res.product.flags.writeable and np.shares_memory(res.product, words)
    with pytest.raises(ValueError):
        results[0].product[0, 0] = 1


@pytest.mark.parametrize("q", [101, 2**31 - 1, BIG_PRIME])
def test_compute_all_of_a_set_equals_the_per_worker_products(q):
    p, dims, shares, results = pipeline(q)
    packed = compute_all(list(shares))
    assert isinstance(packed, list) and len(packed) == len(results)
    for r1, r2 in zip(results, packed):
        assert (r1.worker_id, r1.order, r1.point) == (r2.worker_id, r2.order, r2.point)
        assert np.array_equal(r1.product, r2.product)
    assert bytes(wire.dump_results(p, dims, packed)) == bytes(wire.dump_results(p, dims, results))


def test_dumping_a_loaded_set_hands_back_the_loaded_bytes():
    p, dims, shares, results = pipeline(101)
    for dump, load, objs in [
        (wire.dump_shares, wire.load_shares, shares),
        (wire.dump_results, wire.load_results, results),
    ]:
        data = bytes(dump(p, dims, objs))
        params, dims2, loaded = load(data)
        again = dump(params, dims2, loaded)
        assert again == data
        as_bytes = [np.frombuffer(blob, dtype=np.uint8) for blob in (again, data)]
        assert np.shares_memory(*as_bytes)


@pytest.mark.parametrize("count", [0, 1])
def test_zero_and_one_record_result_blobs_round_trip_through_sets(count):
    p, dims, _, results = pipeline(101)
    down = bytes(wire.dump_results(p, dims, results[:count]))
    params, dims2, loaded = wire.load_results(down)
    assert isinstance(loaded, wire.ResultSet) and len(loaded) == count
    assert [res.product.shape for res in loaded] == [(2, 2)] * count
    for r1, r2 in zip(results[:count], loaded):
        assert (r1.worker_id, r1.order, r1.point) == (r2.worker_id, r2.order, r2.point)
        assert np.array_equal(r1.product, r2.product)
    assert wire.dump_results(params, dims2, loaded) == down


def header(p, dims):
    return np.array(
        [wire.MAGIC, wire.VERSION, p.q, p.K, p.L, p.T, p.m, p.N, *dims], dtype="<u8"
    ).tobytes()


def test_record_size_limit_at_its_boundary():
    # numpy wraps a record dtype of 2**31 bytes to a negative itemsize.
    p = SchemeParams(K=1, L=1, T=0, m=1, N=1, q=101)
    at = (1, 5, 2**28 - 4)  # a result record of 4 + 2**28 - 4 words
    with pytest.raises(WireFormatError, match=re.escape(f"dims {at} give a result record")):
        wire.load_results(header(p, at))
    with pytest.raises(WireFormatError, match=re.escape(f"dims {at} give a result record")):
        wire.dump_results(p, at, [])
    below = (1, 5, 2**28 - 5)
    params, dims, loaded = wire.load_results(header(p, below))
    assert isinstance(loaded, wire.ResultSet) and len(loaded) == 0 and dims == below
    assert bytes(wire.dump_results(params, dims, loaded)) == header(p, below)
    assert bytes(wire.dump_results(p, below, [])) == header(p, below)


def test_record_size_limit_counts_an_empty_dimension_as_one():
    # numpy sizes a (1, r/K, 0) block as if it were (1, r/K, 1).
    p = SchemeParams(K=1, L=1, T=0, m=1, N=1, q=101)
    dims = (2**62, 0, 1)
    with pytest.raises(WireFormatError, match=re.escape(f"dims {dims} give a share record")):
        wire.load_shares(header(p, dims) + bytes(24))


def test_results_are_born_in_their_blob():
    # Many small records: the per-worker scratch of compute_all stays
    # below the slack, while a second copy of the products would not.
    p = SchemeParams(K=2, L=2, T=1, m=2, N=40, q=101)
    rng = np.random.default_rng(3)
    dims = (32, 8, 32)
    a = p.field.random_matrix(rng, 32, 8)
    b = p.field.random_matrix(rng, 8, 32)
    shares = encode(p, a, b, rng).shares
    payload = len(wire.dump_results(p, dims, compute_all(shares)))
    slack = 64 * 1024
    assert payload > 2 * slack
    held = []  # keeps the dumped bytes alive through the measurement
    fresh = _peak_bytes(lambda: held.append(wire.dump_results(p, dims, compute_all(shares))))
    assert fresh <= payload + slack
    results = compute_all(shares)
    assert _peak_bytes(lambda: wire.dump_results(p, dims, results)) <= slack

# sha256 of the share blob, the result blob and the little-endian decoded
# product of one fixed-seed pipeline, recorded before the kernel's limb
# layout last changed: a kernel change must not move a single byte.
GOLDEN = {
    101: (
        "79d33b0e5313abcb2e9a33ecd94b170048bfdbcd990d68ed93f033187189cb57",
        "8c1feae21b7de9f6b78398c0c7d52a6401afa67d54381615f1a5e39d88c7b04c",
        "b7b6ab65a538cb9fa007478497bd632273febfe202eaab5f56c1c461541d0198",
    ),
    2**31 - 1: (
        "0e7b4e5fb0df22ce9d4d84cbc90f7f410f93ca42b34641f373b63eb0dfe4efcd",
        "19e8931981104d8d08b03a88b05496729402ee60c3a29535497d575945331765",
        "4438e49b80ea25a990cca8567c42335d2080e6befa598ed36381e17c4b4902de",
    ),
    BIG_PRIME: (
        "1cbc9447536d3027ce2461dc3ba865adc53b2eacfbbe3234355a1d4d7d9dcf29",
        "89c125a9e47a6f889223a6cc69deb11840fa410948878f3e47e798dab7cebf8e",
        "254da2af8bc37db8f9049b7d2d77add4d5d66fbc4ad44738cb689df792dbd76f",
    ),
}


@pytest.mark.parametrize("q", sorted(GOLDEN))
def test_pipeline_bytes_match_golden_hashes(q):
    # Inner dimension 70 takes three limbs per worker product at 2**31 - 1,
    # and encode's generator products take the folded form.
    p = SchemeParams(K=2, L=2, T=1, m=2, N=7, q=q)
    rng = np.random.default_rng(2026)
    dims = (8, 70, 6)
    a = p.field.random_matrix(rng, 8, 70)
    b = p.field.random_matrix(rng, 70, 6)
    enc = encode(p, a, b, rng)
    results = compute_all(enc.shares)
    subset = random_prefix_subset(results, recovery_threshold(p), rng)
    decoded = decode(p, subset).assembled
    assert np.array_equal(decoded, a.astype(object).dot(b.astype(object)) % q)
    blobs = (
        wire.dump_shares(p, dims, enc.shares),
        wire.dump_results(p, dims, results),
        np.ascontiguousarray(decoded, dtype="<i8").tobytes(),
    )
    assert tuple(hashlib.sha256(blob).hexdigest() for blob in blobs) == GOLDEN[q]
