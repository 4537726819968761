"""Flat binary layout for shares and partial results.

Every file is a sequence of little-endian unsigned 64-bit words:

    header (11 words): magic, version, q, K, L, T, m, N, r, s, c

followed by fixed-size records of field elements and small integers.
K must divide r and L must divide c, so that the blocks below have
whole shapes; both dumps and loads reject dims that do not divide.

Share files hold N records of
    worker_id, x, y, A-share (r/K * s words, row-major),
    m B-shares (s * c/L words each, row-major).

Result files hold records of
    worker_id, order, x, y, product (r/K * c/L words, row-major);
the record count is implied by the file length.

Field words (x, y and every matrix entry) are canonical residues below
q; the dumps refuse to write, and the loaders refuse to read, any other
field word instead of reducing it.  worker_id and order keep their full
u64 range, and a dump refuses an id or coordinate outside it.  Masks
are deliberately absent: serialized bytes model exactly what the
workers and master exchange.  The layout is bit-exact across platforms.

No payload word is copied more often than it must be.  `scheme.encode`
writes its generator products straight into the records of one share
blob (`share_blob`), and its shares are read-only int64 views of those
records; `dump_shares` of such shares writes the header and head words
and hands out that blob without a copy.  Any other share list, and
every result list, is packed into a new blob, each word written once.
Both dumps return a read-only byte `memoryview` of the blob, holding
the same bytes as ever.  Loaded blocks are read-only int64 views of the
blob, not copies.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .bivariate import EvalPoint, SchemeParams
from .errors import WireFormatError
from .scheme import PartialResult, WorkerShare

MAGIC = int.from_bytes(b"FQPCODE1", "little")
VERSION = 1

_HEADER_WORDS = 11


class _Record(NamedTuple):
    """One record: the named u64 id words, then x and y, then the named blocks."""

    ids: tuple[str, ...]
    names: tuple[str, ...]
    shapes: tuple[tuple[int, int], ...]

    @property
    def heads(self) -> tuple[str, ...]:
        """Names of the words before the blocks."""
        return self.ids + ("x", "y")

    @property
    def width(self) -> int:
        return len(self.heads) + sum(h * w for h, w in self.shapes)

    def blocks(self, row: np.ndarray) -> list[np.ndarray]:
        """Views of the blocks held in one record's words."""
        out, at = [], len(self.heads)
        for h, w in self.shapes:
            out.append(row[at : at + h * w].reshape(h, w))
            at += h * w
        return out


def _layout(params: SchemeParams, dims: tuple[int, int, int]) -> dict[str, _Record]:
    """The share and result record layouts that a header describes."""
    r, s, c = dims
    if r % params.K:
        raise WireFormatError(f"K | r violated: K={params.K} does not divide r={r}")
    if c % params.L:
        raise WireFormatError(f"L | c violated: L={params.L} does not divide c={c}")
    br, bc = r // params.K, c // params.L
    m = params.m
    return {
        "share": _Record(
            ("worker_id",), ("A-share",) + ("B-share",) * m, ((br, s),) + ((s, bc),) * m
        ),
        "result": _Record(("worker_id", "order"), ("product",), ((br, bc),)),
    }


def _allocate(
    params: SchemeParams, dims: tuple[int, int, int], kind: str, count: int
) -> tuple[_Record, np.ndarray, np.ndarray]:
    """Layout, u64 words and (count, width) record view of an unfilled blob."""
    rec = _layout(params, dims)[kind]
    words = np.empty(_HEADER_WORDS + count * rec.width, dtype="<u8")
    return rec, words, words[_HEADER_WORDS:].reshape(count, rec.width)


def _seal(
    params: SchemeParams, dims: tuple[int, int, int], kind: str, words: np.ndarray,
    records: list,
) -> memoryview:
    """Write the header and head words, check the field words; the blob's bytes.

    Each id, x and y must fit a u64 word, and every word after the ids
    must be below q.  Returns a read-only byte view of `words`.
    """
    rec = _layout(params, dims)[kind]
    heads = []
    for ids, point, _, what in records:
        head = (*ids, point.x, point.y)
        for name, value in zip(rec.heads, head):
            if not 0 <= int(value) < 1 << 64:
                raise WireFormatError(f"{what}: {name}={value} does not fit a u64 word")
        heads.append([int(value) for value in head])
    words[:_HEADER_WORDS] = (
        MAGIC, VERSION, params.q, params.K, params.L, params.T, params.m, params.N, *dims
    )
    body = words[_HEADER_WORDS:].reshape(len(records), rec.width)
    body[:, : len(rec.heads)] = np.array(heads, dtype=np.uint64).reshape(len(records), -1)
    # A negative entry wraps above 2**63, so this one test also refuses it.
    _check_field_words(body, rec, kind, params.q)
    return memoryview(words).toreadonly().cast("B")


def _pack(
    params: SchemeParams, dims: tuple[int, int, int], kind: str, records: list
) -> memoryview:
    """Header plus one record per (ids, point, blocks, label), each word written once."""
    rec, words, body = _allocate(params, dims, kind, len(records))
    for _, _, blocks, what in records:
        for blk, name, shape in zip(blocks, rec.names, rec.shapes):
            if np.shape(blk) != shape:
                raise WireFormatError(
                    f"{what} {name} has block shape {np.shape(blk)}, but dims give {shape}"
                )
    for row, (_, _, blocks, _) in zip(body, records):
        for view, blk in zip(rec.blocks(row), blocks):
            view[...] = blk
    return _seal(params, dims, kind, words, records)


def share_blob(
    params: SchemeParams, dims: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray, list[list[np.ndarray]]]:
    """An unfilled blob of N share records for encode to write into.

    Returns the writable int64 A and B regions of the records, shapes
    (N, r/K * s) and (N, m, s * c/L), and each record's blocks as
    read-only views.  dump_shares writes the header and head words and
    hands the blob out without a copy while the shares it is given hold
    exactly these views, in record order.
    """
    rec, _, body = _allocate(params, dims, "share", params.N)
    signed = body.view(np.int64)
    start = len(rec.heads)
    split = start + rec.shapes[0][0] * rec.shapes[0][1]
    side_a = signed[:, start:split]
    side_b = signed[:, split:].reshape(params.N, params.m, -1)
    frozen = signed.view()
    frozen.flags.writeable = False
    return side_a, side_b, [rec.blocks(row) for row in frozen]


def _where(arr) -> tuple:
    """Address, shape, strides and dtype: what makes two views the same view."""
    if not isinstance(arr, np.ndarray):
        return ()
    return arr.__array_interface__["data"][0], arr.shape, arr.strides, arr.dtype


def _share_blob_of(
    params: SchemeParams, dims: tuple[int, int, int], shares: Sequence[WorkerShare]
) -> np.ndarray | None:
    """The share_blob words that hold every share's blocks in place, if any.

    The words must own their memory, be writable and have the length
    the layout gives, and share i's blocks must be the views at record
    i's block positions; otherwise None.
    """
    words = shares[0].share_a
    while isinstance(words, np.ndarray) and isinstance(words.base, np.ndarray):
        words = words.base
    rec = _layout(params, dims)["share"]
    if not (
        isinstance(words, np.ndarray)
        and words.base is None
        and words.flags.writeable
        and words.dtype == np.dtype("<u8")
        and words.shape == (_HEADER_WORDS + len(shares) * rec.width,)
    ):
        return None
    body = words[_HEADER_WORDS:].reshape(len(shares), rec.width).view(np.int64)
    for sh, row in zip(shares, body):
        for blk, view in zip((sh.share_a, *sh.shares_b), rec.blocks(row)):
            if _where(blk) != _where(view):
                return None
    return words


def _check_field_words(body: np.ndarray, rec: _Record, kind: str, q: int) -> None:
    """x, y and every block word of every record are field elements below q."""
    if body.size and int(body[:, len(rec.ids) :].max()) >= q:
        raise WireFormatError(
            f"{kind} payload holds a word >= q={q}; field words must be < q"
        )


def _unpack(data: bytes, kind: str) -> tuple:
    """Parse and check a blob: params, dims, layout, its records as u64 and as int64."""
    if len(data) % 8:
        raise WireFormatError(f"byte length {len(data)} is not a multiple of 8")
    words = np.frombuffer(data, dtype="<u8")
    if words.size < _HEADER_WORDS:
        raise WireFormatError("truncated header")
    if int(words[0]) != MAGIC:
        raise WireFormatError(f"bad magic word {int(words[0]):#x}")
    if int(words[1]) != VERSION:
        raise WireFormatError(f"unsupported version {int(words[1])}")
    q, k, l, t, m, n, r, s, c = (int(w) for w in words[2:_HEADER_WORDS])
    params, dims = SchemeParams(K=k, L=l, T=t, m=m, N=n, q=q), (r, s, c)
    rec = _layout(params, dims)[kind]
    body = words[_HEADER_WORDS:]
    count = params.N if kind == "share" else body.size // rec.width
    if body.size != count * rec.width:
        raise WireFormatError(
            f"{kind} payload holds {body.size} words, "
            f"not {count} whole records of {rec.width} words"
        )
    records = body.reshape(count, rec.width)
    _check_field_words(records, rec, kind, params.q)
    # Ids are read from the u64 words; x, y and blocks from int64 views.
    signed = records.view(np.int64)
    signed.flags.writeable = False
    return params, dims, rec, records, signed


def dump_shares(
    params: SchemeParams,
    dims: tuple[int, int, int],
    shares: Sequence[WorkerShare],
) -> memoryview:
    """Serialize all worker shares (header + N fixed-size records).

    Shares straight from encode already sit in their records: the blob
    they view gets its header and head words (re)written from `params`,
    `dims` and the share objects, is checked like a packed one, and is
    returned without a copy.  Such a blob is one buffer per encoding, so
    a later dump of the same shares rewrites its head words.  Any other
    share list is packed into a new blob.
    """
    if len(shares) != params.N:
        raise WireFormatError(f"expected {params.N} shares, got {len(shares)}")
    for sh in shares:
        if len(sh.shares_b) != params.m:
            raise WireFormatError(
                f"worker {sh.worker_id} holds {len(sh.shares_b)} B-shares, "
                f"expected m={params.m}"
            )
    records = [
        ((sh.worker_id,), sh.point, (sh.share_a, *sh.shares_b), f"worker {sh.worker_id}")
        for sh in shares
    ]
    words = _share_blob_of(params, dims, shares)
    if words is None:
        return _pack(params, dims, "share", records)
    return _seal(params, dims, "share", words, records)


def load_shares(data: bytes) -> tuple[SchemeParams, tuple[int, int, int], list[WorkerShare]]:
    params, dims, rec, records, signed = _unpack(data, "share")
    shares = []
    for ids, row in zip(records, signed):
        share_a, *shares_b = rec.blocks(row)
        point = EvalPoint(int(row[1]), int(row[2]))
        shares.append(WorkerShare(int(ids[0]), point, params.q, share_a, tuple(shares_b)))
    return params, dims, shares


def dump_results(
    params: SchemeParams,
    dims: tuple[int, int, int],
    results: Sequence[PartialResult],
) -> memoryview:
    """Serialize partial results; the record count is implicit."""
    return _pack(params, dims, "result", [
        ((res.worker_id, res.order), res.point, (res.product,),
         f"worker {res.worker_id} order {res.order}")
        for res in results
    ])


def load_results(
    data: bytes,
) -> tuple[SchemeParams, tuple[int, int, int], list[PartialResult]]:
    params, dims, rec, records, signed = _unpack(data, "result")
    results = [
        PartialResult(
            worker_id=int(ids[0]),
            order=int(ids[1]),
            point=EvalPoint(int(row[2]), int(row[3])),
            product=rec.blocks(row)[0],
        )
        for ids, row in zip(records, signed)
    ]
    return params, dims, results
