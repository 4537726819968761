"""Flat binary layout for shares and partial results.

Every file is a sequence of little-endian unsigned 64-bit words:

    header (11 words): magic, version, q, K, L, T, m, N, r, s, c

followed by fixed-size records of field elements and small integers.
Dims are integers with r, c >= 1, s >= 0, K | r and L | c
(bivariate.block_dims), so every product block below has a whole,
nonempty shape; dumps, loads and encode reject any other dims.

Each record kind is one numpy record dtype: u64 head fields, then
'<i8' blocks, row-major.  Share files hold N records of
    worker_id, x, y, A-share (1, r/K, s), B-share (m, s, c/L);
result files hold records of
    worker_id, order, x, y, product (1, r/K, c/L),
as many as the file length implies.  numpy keeps a record dtype's
itemsize in a C int and wraps 2**31 bytes with no error, so every dump,
load and encode refuses a record of 2**28 words or more (counting an
empty dimension as 1, as numpy does) by a WireFormatError naming dims.

Field words (x, y and every matrix entry) are canonical residues below
q; the dumps refuse to write, and the loaders refuse to read, any other
field word instead of reducing it.  worker_id and order keep their full
u64 range; a dump refuses an id that is not an integer in it, and a
point that decode would refuse (bivariate.check_field_point).  Masks
are deliberately absent: serialized bytes model exactly what the
workers and master exchange.  The layout is bit-exact across platforms.

Every blob is built one way, by one constructor that writes its
header and head fields once and hands back its set together with its
writable records; the code that made the set fills their blocks once,
and no blob is written again once a set holds it.  A set
(`ShareSet`, `ResultSet`) is a read-only sequence of `WorkerShare` or
`PartialResult` over one blob: it carries the blob, its params and its
dims, and its blocks are read-only views of the records' block fields.
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

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bivariate import EvalPoint, SchemeParams, block_dims, check_field_point
from .errors import BipolyError, WireFormatError
from .fieldcore import as_int, as_int_array

MAGIC = int.from_bytes(b"FQPCODE1", "little")
VERSION = 1

_HEADER_WORDS = 11

# Each record kind's u64 head fields, in record order: ids, then x and y.
_HEADS = {"share": ("worker_id", "x", "y"), "result": ("worker_id", "order", "x", "y")}


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


def _record(params: SchemeParams, dims: tuple[int, int, int], kind: str) -> np.dtype:
    """The numpy record dtype of one share or result record under a header.

    Its u64 head fields come first, then its '<i8' block fields, each a
    (blocks, h, w) subarray; a record too large for numpy is refused.
    """
    br, bc = block_dims(params.K, params.L, dims, WireFormatError)
    dims = tuple(int(d) for d in dims)
    blocks = {
        "share": (("A-share", (1, br, dims[1])), ("B-share", (params.m, dims[1], bc))),
        "result": (("product", (1, br, bc)),),
    }[kind]
    width = len(_HEADS[kind]) + sum(math.prod(max(d, 1) for d in shape) for _, shape in blocks)
    if width >= 1 << 28:
        raise WireFormatError(
            f"dims {dims} give a {kind} record of {width} words, counting an empty "
            "dimension as 1; a record dtype holds fewer than 2**28"
        )
    return np.dtype(
        [(name, "<u8") for name in _HEADS[kind]] + [(name, "<i8", shape) for name, shape in blocks]
    )


def _check_field_words(words: np.ndarray, rec: np.dtype, kind: str, q: int) -> None:
    """x, y and every block word of every record are field elements below q."""
    # A negative entry wraps above 2**63, so this one test also refuses it.
    # Row by row, the strided records need no 64 KiB reduction buffer.
    body = words[_HEADER_WORDS:].reshape(-1, rec.itemsize // 8)[:, rec.fields["x"][1] // 8 :]
    if body.size and int(body.max(axis=1).max()) >= q:
        raise WireFormatError(f"{kind} payload holds a word >= q={q}; field words must be < q")


class _BlobSet(Sequence):
    """The records of one blob as a read-only sequence; slices are plain lists.

    Carries the blob's params and dims.  The items are built once, from
    one read of the head fields, over read-only views of the block fields.
    """

    kind = ""

    def __init__(self, params: SchemeParams, dims: tuple[int, int, int], words: np.ndarray):
        rec = _record(params, dims, self.kind)
        records = words[_HEADER_WORDS:].view(rec)
        records.flags.writeable = False
        self.params, self.dims = params, tuple(dims)
        self._words, self._records = words, records
        heads = records[list(_HEADS[self.kind])].tolist()
        blocks = [records[name] for name in rec.names[len(_HEADS[self.kind]) :]]
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
        _check_field_words(self._words, self._records.dtype, self.kind, self.params.q)
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
    params: SchemeParams, dims: tuple[int, int, int], kind: str, heads: dict
) -> tuple[_BlobSet, np.ndarray]:
    """A new blob's set, its header and head fields written once, and its writable records.

    `heads` maps each head field to its u64 values, one per record.
    """
    rec = _record(params, dims, kind)
    words = np.empty(_HEADER_WORDS + len(heads["x"]) * rec.itemsize // 8, dtype="<u8")
    words[:_HEADER_WORDS] = (
        MAGIC, VERSION, params.q, params.K, params.L, params.T, params.m, params.N, *dims
    )
    records = words[_HEADER_WORDS:].view(rec)
    for name, values in heads.items():
        records[name] = np.asarray(values, dtype=np.uint64)
    made = (ShareSet if kind == "share" else ResultSet)(params, dims, words)
    return made, records


def share_set(
    params: SchemeParams, dims: tuple[int, int, int], points: Sequence[EvalPoint]
) -> tuple[ShareSet, np.ndarray, np.ndarray]:
    """A share blob for encode, its header and head fields written once.

    Worker i + 1 gets points[i], whose coordinates must be canonical.
    Returns the blob's set and the writable A and B shares of its
    records, shapes (N, r/K * s) and (N, m, s * c/L), for encode's
    generator products.
    """
    n = len(points)
    xs, ys = zip(*points)
    shares, records = _new_set(
        params, dims, "share", {"worker_id": range(1, n + 1), "x": xs, "y": ys}
    )
    return shares, records["A-share"].reshape(n, -1), records["B-share"].reshape(n, params.m, -1)


def result_set(shares: ShareSet) -> tuple[ResultSet, np.ndarray]:
    """A result blob for compute_all: m records per share, worker by worker.

    Record (i, order) holds worker i's id, order and point.  Returns the
    blob's set and the writable products, shape (N, r/K, m, c/L): entry
    i takes worker i's m products side by side, as mat_mul_mod's (rows,
    blocks, width) destination.
    """
    n, m = len(shares), shares.params.m
    heads = {name: np.repeat(shares._records[name], m) for name in ("worker_id", "x", "y")}
    heads["order"] = np.tile(np.arange(m), n)
    results, records = _new_set(shares.params, shares.dims, "result", heads)
    _, br, bc = records.dtype["product"].shape
    return results, records["product"].reshape(n, m, br, bc).transpose(0, 2, 1, 3)


def _block(blk, shape: tuple[int, int], what: str) -> np.ndarray:
    """blk as an integer array of `shape` whose words fit u64; any other is named."""
    arr = as_int_array(blk, what, WireFormatError)
    if arr.shape != shape:
        raise WireFormatError(f"{what} has block shape {arr.shape}, but dims give {shape}")
    if arr.dtype == object:
        if not all(0 <= v < 1 << 64 for v in arr.flat):
            raise WireFormatError(f"{what} holds object entries, not integers in [0, 2**64)")
        arr = np.array(arr.tolist(), dtype=np.uint64).reshape(shape)
    return arr


def _pack(
    params: SchemeParams, dims: tuple[int, int, int], kind: str, records: list
) -> _BlobSet:
    """A new blob's set of one record per (ids, point, blocks, label), each word written once.

    Each id must be an integer that fits a u64 word, each point an
    EvalPoint of field elements, as decode requires, and each block
    integers of the shape that dims give it.
    """
    rec = _record(params, dims, kind)
    names = _HEADS[kind]
    # One slot per block in record order: field, index in the field, shape.
    slots = [(name, j, rec[name].shape[1:])
             for name in rec.names[len(names) :] for j in range(rec[name].shape[0])]
    heads, checked = {name: [] for name in names}, []
    for ids, point, blocks, what in records:
        checked.append([
            _block(blk, shape, f"{what} {name}") for blk, (name, _, shape) in zip(blocks, slots)
        ])
        ids = [as_int(value, name, WireFormatError, what) for name, value in zip(names, ids)]
        for name, value in zip(names, ids):
            if not 0 <= value < 1 << 64:
                raise WireFormatError(f"{what}: {name}={value} does not fit a u64 word")
        check_field_point(point, params.q, what, WireFormatError)
        for name, value in zip(names, (*ids, *point)):
            heads[name].append(value)
    packed, out = _new_set(params, dims, kind, heads)
    # Assignment casts unsafely, so a block of any integer dtype is written bit for bit.
    for i, blocks in enumerate(checked):
        for blk, (name, j, _) in zip(blocks, slots):
            out[name][i, j] = blk
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
    try:
        params, dims = SchemeParams(K=k, L=l, T=t, m=m, N=n, q=q), (r, s, c)
    except BipolyError as err:
        raise WireFormatError(f"header holds invalid parameters: {err}") from None
    rec = _record(params, dims, kind)
    width, size = rec.itemsize // 8, words.size - _HEADER_WORDS
    count = params.N if kind == "share" else size // width
    if size != count * width:
        raise WireFormatError(
            f"{kind} payload holds {size} words, not {count} whole records of {width} words"
        )
    _check_field_words(words, rec, kind, params.q)
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
