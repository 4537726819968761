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
u64 range, and a dump refuses an id or coordinate outside it.  Loaded
blocks are read-only int64 views of the blob, not copies.  Masks are
deliberately absent: serialized bytes model exactly what the workers
and master exchange.  The layout is bit-exact across platforms.
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


def _pack(params: SchemeParams, dims: tuple[int, int, int], kind: str, records: list) -> bytes:
    """Header plus one record per (ids, point, blocks, label), each word written once."""
    rec = _layout(params, dims)[kind]
    for _, _, blocks, what in records:
        for blk, name, shape in zip(blocks, rec.names, rec.shapes):
            if np.shape(blk) != shape:
                raise WireFormatError(
                    f"{what} {name} has block shape {np.shape(blk)}, but dims give {shape}"
                )
    words = np.empty(_HEADER_WORDS + len(records) * rec.width, dtype="<u8")
    words[:_HEADER_WORDS] = (
        MAGIC, VERSION, params.q, params.K, params.L, params.T, params.m, params.N, *dims
    )
    body = words[_HEADER_WORDS:].reshape(len(records), rec.width)
    for row, (ids, point, blocks, what) in zip(body, records):
        head = (*ids, point.x, point.y)
        for name, value in zip(rec.heads, head):
            if not 0 <= int(value) < 1 << 64:
                raise WireFormatError(f"{what}: {name}={value} does not fit a u64 word")
        row[: len(head)] = head
        for view, blk in zip(rec.blocks(row), blocks):
            view[...] = blk
    # A negative entry wraps above 2**63, so this one test also refuses it.
    _check_field_words(body, rec, kind, params.q)
    return words.tobytes()


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
) -> bytes:
    """Serialize all worker shares (header + N fixed-size records)."""
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
    ])


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
) -> bytes:
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
