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

Every blob is built one way, by one constructor that writes its
header and head words once and hands back its set together with the
writable words of its records; the code that made the set fills those
words once, and no blob is written again once a set holds it.  A set
(`ShareSet`, `ResultSet`) is a read-only sequence of `WorkerShare` or
`PartialResult` over one blob: it carries the blob, its params and its
dims, and its blocks are read-only int64 views of the records.
`scheme.encode` writes its generator products straight into a share
blob, `scheme.compute_all` of a `ShareSet` its worker products into a
result blob, and the packer copies the blocks of any other list into a
new blob; the loaders return sets over the bytes they are given.  A
dump takes a set under its own params and dims as it is and packs any
other list, then ends in the set's `blob()`, which checks every field
word and hands out the blob without a copy, as a read-only byte
`memoryview`.  Slicing a set gives a plain list.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bivariate import EvalPoint, SchemeParams
from .errors import WireFormatError

MAGIC = int.from_bytes(b"FQPCODE1", "little")
VERSION = 1

_HEADER_WORDS = 11


@dataclass(frozen=True)
class WorkerShare:
    """Everything one worker receives: A(x_i) plus m derivative shares of B."""

    worker_id: int
    point: EvalPoint
    q: int
    share_a: np.ndarray
    shares_b: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PartialResult:
    """One completed sub-task: the product for a (worker, derivative order)."""

    worker_id: int
    order: int
    point: EvalPoint
    product: np.ndarray


class _Record(NamedTuple):
    """One record: the named u64 id words, then x and y, then groups of equal blocks."""

    ids: tuple[str, ...]
    # Each group: name, number of blocks, block shape.
    groups: tuple[tuple[str, int, tuple[int, int]], ...]

    @property
    def heads(self) -> tuple[str, ...]:
        """Names of the words before the blocks."""
        return self.ids + ("x", "y")

    @property
    def blocks(self) -> list[tuple[str, tuple[int, int]]]:
        """Name and shape of each block, in record order."""
        return [(name, shape) for name, count, shape in self.groups for _ in range(count)]

    @property
    def width(self) -> int:
        return len(self.heads) + sum(h * w for _, (h, w) in self.blocks)

    def regions(self, body: np.ndarray) -> list[np.ndarray]:
        """Views of each group's words in every record, shape (records, blocks, h * w)."""
        out, at = [], len(self.heads)
        for _, count, (h, w) in self.groups:
            out.append(body[:, at : at + count * h * w].reshape(len(body), count, h * w))
            at += count * h * w
        return out


def _layout(params: SchemeParams, dims: tuple[int, int, int]) -> dict[str, _Record]:
    """The share and result record layouts that a header describes."""
    r, s, c = dims
    if r % params.K:
        raise WireFormatError(f"K | r violated: K={params.K} does not divide r={r}")
    if c % params.L:
        raise WireFormatError(f"L | c violated: L={params.L} does not divide c={c}")
    br, bc = r // params.K, c // params.L
    return {
        "share": _Record(("worker_id",), (("A-share", 1, (br, s)), ("B-share", params.m, (s, bc)))),
        "result": _Record(("worker_id", "order"), (("product", 1, (br, bc)),)),
    }


def _check_field_words(body: np.ndarray, rec: _Record, kind: str, q: int) -> None:
    """x, y and every block word of every record are field elements below q."""
    # A negative entry wraps above 2**63, so this one test also refuses it.
    # Row by row, the strided records need no 64 KiB reduction buffer.
    if body.size and int(body[:, len(rec.ids) :].max(axis=1).max()) >= q:
        raise WireFormatError(
            f"{kind} payload holds a word >= q={q}; field words must be < q"
        )


class _BlobSet(Sequence):
    """The records of one blob as a read-only sequence; slices are plain lists.

    Carries the blob's params and dims.  The items are built once, from
    one read of the head words, over read-only int64 views of the blocks.
    """

    kind = ""

    def __init__(self, params: SchemeParams, dims: tuple[int, int, int], words: np.ndarray):
        rec = _layout(params, dims)[self.kind]
        body = words[_HEADER_WORDS:].reshape(
            (words.size - _HEADER_WORDS) // rec.width, rec.width
        )
        signed = body.view(np.int64)
        signed.flags.writeable = False
        blocks = [
            region.reshape(len(body), count, h, w)
            for region, (_, count, (h, w)) in zip(rec.regions(signed), rec.groups)
        ]
        self.params, self.dims = params, tuple(dims)
        self._rec, self._words, self._body = rec, words, body
        heads = body[:, : len(rec.heads)].tolist()
        self._items = tuple(self._make(params.q, heads, *blocks))

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._items[index])
        return self._items[index]

    def __iter__(self):
        return iter(self._items)

    def blob(self) -> memoryview:
        """The blob's read-only bytes, once every field word is checked below q."""
        _check_field_words(self._body, self._rec, self.kind, self.params.q)
        return memoryview(self._words).toreadonly().cast("B")


class ShareSet(_BlobSet):
    """The N worker shares of one share blob, in record order."""

    kind = "share"

    @staticmethod
    def _make(q, heads, side_a, side_b):
        for (worker_id, x, y), (share_a,), shares_b in zip(heads, side_a, side_b):
            yield WorkerShare(worker_id, EvalPoint(x, y), q, share_a, tuple(shares_b))


class ResultSet(_BlobSet):
    """The partial results of one result blob, in record order."""

    kind = "result"

    @staticmethod
    def _make(q, heads, products):
        for (worker_id, order, x, y), (product,) in zip(heads, products):
            yield PartialResult(worker_id, order, EvalPoint(x, y), product)


def _new_set(
    params: SchemeParams, dims: tuple[int, int, int], kind: str, heads
) -> tuple[_BlobSet, list[np.ndarray]]:
    """A new blob's set, its header and head words written once, and its writable regions.

    `heads` holds one row of u64 head words per record, in the layout's
    head order (ids, x, y); their count is the record count.  Returns
    the blob's set and the writable int64 words of each record group,
    shape (records, blocks, h * w), for the caller to fill once.
    """
    rec = _layout(params, dims)[kind]
    # Explicit shapes: -1 cannot be inferred from zero records.
    heads = np.asarray(heads, dtype=np.uint64).reshape(len(heads), len(rec.heads))
    words = np.empty(_HEADER_WORDS + len(heads) * rec.width, dtype="<u8")
    words[:_HEADER_WORDS] = (
        MAGIC, VERSION, params.q, params.K, params.L, params.T, params.m, params.N, *dims
    )
    body = words[_HEADER_WORDS:].reshape(len(heads), rec.width)
    body[:, : len(rec.heads)] = heads
    made = (ShareSet if kind == "share" else ResultSet)(params, dims, words)
    return made, rec.regions(body.view(np.int64))


def share_set(
    params: SchemeParams, dims: tuple[int, int, int], points: Sequence[EvalPoint]
) -> tuple[ShareSet, np.ndarray, np.ndarray]:
    """A share blob for encode, its header and head words written once.

    Worker i + 1 gets points[i], whose coordinates must be canonical.
    Returns the blob's set and the writable int64 A and B regions of its
    records, shapes (N, 1, r/K * s) and (N, m, s * c/L), for encode's
    generator products.
    """
    heads = [(i, x, y) for i, (x, y) in enumerate(points, 1)]
    shares, (side_a, side_b) = _new_set(params, dims, "share", heads)
    return shares, side_a, side_b


def result_set(shares: ShareSet) -> tuple[ResultSet, np.ndarray]:
    """A result blob for compute_all: m records per share, worker by worker.

    Record (i, order) holds worker i's id, order and point.  Returns the
    blob's set and the writable products, shape (N, r/K, m, c/L): entry
    i takes worker i's m products side by side, as mat_mul_mod's (rows,
    blocks, width) destination.
    """
    n, m = len(shares), shares.params.m
    # Share heads (worker_id, x, y) into result heads (worker_id, order, x, y).
    heads = np.empty((n, m, 4), dtype=np.uint64)
    heads[:, :, [0, 2, 3]] = shares._body[:, None, :3]
    heads[:, :, 1] = np.arange(m)
    heads = heads.reshape(n * m, 4)
    results, (products,) = _new_set(shares.params, shares.dims, "result", heads)
    br, bc = results._rec.groups[0][2]
    return results, products.reshape(n, m, br, bc).transpose(0, 2, 1, 3)


def _block(blk, shape: tuple[int, int], what: str) -> np.ndarray:
    """blk as a bool or integer array of `shape` whose words fit u64; any other is named."""
    try:
        arr = np.asarray(blk)
    except ValueError:
        raise WireFormatError(f"{what} is a ragged nested sequence") from None
    if arr.shape != shape:
        raise WireFormatError(f"{what} has block shape {arr.shape}, but dims give {shape}")
    if arr.dtype == object and all(
        isinstance(v, (int, np.integer)) and 0 <= v < 1 << 64 for v in arr.flat
    ):
        arr = np.array(arr.tolist(), dtype=np.uint64).reshape(shape)
    if arr.dtype.kind not in "biu":
        raise WireFormatError(f"{what} holds {arr.dtype} entries, not integers in [0, 2**64)")
    return arr


def _pack(
    params: SchemeParams, dims: tuple[int, int, int], kind: str, records: list
) -> _BlobSet:
    """A new blob's set of one record per (ids, point, blocks, label), each word written once.

    Each point must be an EvalPoint, each id, x and y must fit a u64
    word, and each block must be integers of the shape that dims give it.
    """
    rec = _layout(params, dims)[kind]
    heads, checked = [], []
    for ids, point, blocks, what in records:
        checked.append([
            _block(blk, shape, f"{what} {name}") for blk, (name, shape) in zip(blocks, rec.blocks)
        ])
        if not isinstance(point, EvalPoint):
            raise WireFormatError(f"{what} has point {point!r}; expected an EvalPoint")
        head = (*ids, *point)
        for name, value in zip(rec.heads, head):
            if not 0 <= int(value) < 1 << 64:
                raise WireFormatError(f"{what}: {name}={value} does not fit a u64 word")
        heads.append([int(value) for value in head])
    packed, regions = _new_set(params, dims, kind, heads)
    # u64 views, so a block of any integer dtype is written bit for bit.
    views = [
        region[:, j].view(np.uint64).reshape(len(records), h, w)
        for region, (_, count, (h, w)) in zip(regions, rec.groups)
        for j in range(count)
    ]
    for i, blocks in enumerate(checked):
        for view, blk in zip(views, blocks):
            view[i] = blk
    return packed


def _unpack(data: bytes, kind: str) -> tuple[SchemeParams, tuple[int, int, int], np.ndarray]:
    """Parse and check a blob: its params, dims and u64 words."""
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
    _check_field_words(body.reshape(count, rec.width), rec, kind, params.q)
    return params, dims, words


def dump_shares(
    params: SchemeParams,
    dims: tuple[int, int, int],
    shares: Sequence[WorkerShare],
) -> memoryview:
    """Serialize all worker shares (header + N fixed-size records).

    A ShareSet under its own params and dims hands out its blob, once
    its field words are checked.  Any other share list is packed into a
    new blob.
    """
    if isinstance(shares, ShareSet) and (shares.params, shares.dims) == (params, tuple(dims)):
        return shares.blob()
    if len(shares) != params.N:
        raise WireFormatError(f"expected {params.N} shares, got {len(shares)}")
    for sh in shares:
        if len(sh.shares_b) != params.m:
            raise WireFormatError(
                f"worker {sh.worker_id} holds {len(sh.shares_b)} B-shares, "
                f"expected m={params.m}"
            )
    return _pack(params, dims, "share", [
        ((sh.worker_id,), sh.point, (sh.share_a, *sh.shares_b), f"worker {sh.worker_id}")
        for sh in shares
    ]).blob()


def load_shares(data: bytes) -> tuple[SchemeParams, tuple[int, int, int], ShareSet]:
    """The params, dims and shares of a share blob; the shares view `data`."""
    params, dims, words = _unpack(data, "share")
    return params, dims, ShareSet(params, dims, words)


def dump_results(
    params: SchemeParams,
    dims: tuple[int, int, int],
    results: Sequence[PartialResult],
) -> memoryview:
    """Serialize partial results; the record count is implicit.

    A ResultSet under its own params and dims hands out its blob, once
    its field words are checked.  Any other result list is packed into
    a new blob.
    """
    if isinstance(results, ResultSet) and (results.params, results.dims) == (params, tuple(dims)):
        return results.blob()
    return _pack(params, dims, "result", [
        ((res.worker_id, res.order), res.point, (res.product,),
         f"worker {res.worker_id} order {res.order}")
        for res in results
    ]).blob()


def load_results(data: bytes) -> tuple[SchemeParams, tuple[int, int, int], ResultSet]:
    """The params, dims and results of a result blob; the results view `data`."""
    params, dims, words = _unpack(data, "result")
    return params, dims, ResultSet(params, dims, words)
