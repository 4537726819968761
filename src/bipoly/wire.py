"""Flat binary layout for shares and partial results.

Every file is a sequence of little-endian unsigned 64-bit words:

    header (11 words): magic, version, q, K, L, T, m, N, r, s, c

followed by fixed-size records of field elements and small integers.

Share files hold N records of
    worker_id, x, y, A-share (r/K * s words, row-major),
    m B-shares (s * c/L words each, row-major).

Result files hold records of
    worker_id, order, x, y, product (r/K * c/L words, row-major);
the record count is implied by the file length.

Field words (x, y and every matrix entry) are canonical residues below
q; the loaders reject a blob holding any other field word instead of
reducing it.  Masks are deliberately absent: serialized bytes model
exactly what the workers and master exchange.  The layout is bit-exact
across platforms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bivariate import EvalPoint, SchemeParams
from .errors import WireFormatError
from .scheme import PartialResult, WorkerShare

MAGIC = int.from_bytes(b"FQPCODE1", "little")
VERSION = 1

_HEADER_WORDS = 11


def _header(params: SchemeParams, dims: tuple[int, int, int]) -> np.ndarray:
    r, s, c = dims
    return np.array(
        [MAGIC, VERSION, params.q, params.K, params.L, params.T, params.m,
         params.N, r, s, c],
        dtype=np.uint64,
    )


def _words_to_bytes(chunks: list[np.ndarray]) -> bytes:
    return np.concatenate([np.asarray(ch, dtype=np.uint64) for ch in chunks]).astype(
        "<u8"
    ).tobytes()


def _read_words(data: bytes) -> np.ndarray:
    if len(data) % 8:
        raise WireFormatError(f"byte length {len(data)} is not a multiple of 8")
    return np.frombuffer(data, dtype="<u8")


def _parse_header(words: np.ndarray) -> tuple[SchemeParams, tuple[int, int, int]]:
    if words.size < _HEADER_WORDS:
        raise WireFormatError("truncated header")
    if int(words[0]) != MAGIC:
        raise WireFormatError(f"bad magic word {int(words[0]):#x}")
    if int(words[1]) != VERSION:
        raise WireFormatError(f"unsupported version {int(words[1])}")
    q, k, l, t, m, n, r, s, c = (int(w) for w in words[2:_HEADER_WORDS])
    params = SchemeParams(K=k, L=l, T=t, m=m, N=n, q=q)
    return params, (r, s, c)


def _flat(arr: np.ndarray, shape: tuple[int, int], what: str) -> np.ndarray:
    """arr as row-major words, after checking it has the block shape of dims."""
    if np.shape(arr) != shape:
        raise WireFormatError(
            f"{what} has block shape {np.shape(arr)}, but dims give {shape}"
        )
    return np.ravel(arr)


def dump_shares(
    params: SchemeParams,
    dims: tuple[int, int, int],
    shares: Sequence[WorkerShare],
) -> bytes:
    """Serialize all worker shares (header + N fixed-size records)."""
    if len(shares) != params.N:
        raise WireFormatError(f"expected {params.N} shares, got {len(shares)}")
    r, s, c = dims
    shape_a, shape_b = (r // params.K, s), (s, c // params.L)
    chunks = [_header(params, dims)]
    for sh in shares:
        if len(sh.shares_b) != params.m:
            raise WireFormatError(
                f"worker {sh.worker_id} holds {len(sh.shares_b)} B-shares, "
                f"expected m={params.m}"
            )
        chunks.append(
            np.array([sh.worker_id, sh.point.x, sh.point.y], dtype=np.uint64)
        )
        chunks.append(_flat(sh.share_a, shape_a, f"worker {sh.worker_id} A-share"))
        for blk in sh.shares_b:
            chunks.append(_flat(blk, shape_b, f"worker {sh.worker_id} B-share"))
    return _words_to_bytes(chunks)


def _field_words(words: np.ndarray, params: SchemeParams, what: str) -> np.ndarray:
    """Field words as int64; every word must be canonical."""
    if words.size and int(words.max()) >= params.q:
        raise WireFormatError(
            f"{what} holds a word >= q={params.q}; field words must be < q"
        )
    return words.astype(np.int64)


def load_shares(data: bytes) -> tuple[SchemeParams, tuple[int, int, int], list[WorkerShare]]:
    words = _read_words(data)
    params, dims = _parse_header(words)
    r, s, c = dims
    br, bc = r // params.K, c // params.L
    rec = 3 + br * s + params.m * s * bc
    body = words[_HEADER_WORDS:]
    if body.size != rec * params.N:
        raise WireFormatError(
            f"share payload holds {body.size} words, expected {rec * params.N}"
        )
    records = body.reshape(params.N, rec)
    # x, y and every matrix word of every record are field elements.
    fields = _field_words(records[:, 1:], params, "share payload")
    shares = []
    for wid, rec_fields in zip(records[:, 0], fields):
        share_a = rec_fields[2 : 2 + br * s].reshape(br, s)
        blocks = rec_fields[2 + br * s :].reshape(params.m, s, bc)
        shares.append(
            WorkerShare(
                worker_id=int(wid),
                point=EvalPoint(int(rec_fields[0]), int(rec_fields[1])),
                q=params.q,
                share_a=share_a,
                shares_b=tuple(blocks),
            )
        )
    return params, dims, shares


def dump_results(
    params: SchemeParams,
    dims: tuple[int, int, int],
    results: Sequence[PartialResult],
) -> bytes:
    """Serialize partial results; the record count is implicit."""
    r, _, c = dims
    shape = (r // params.K, c // params.L)
    chunks = [_header(params, dims)]
    for res in results:
        chunks.append(
            np.array(
                [res.worker_id, res.order, res.point.x, res.point.y], dtype=np.uint64
            )
        )
        chunks.append(
            _flat(res.product, shape, f"worker {res.worker_id} order {res.order} product")
        )
    return _words_to_bytes(chunks)


def load_results(
    data: bytes,
) -> tuple[SchemeParams, tuple[int, int, int], list[PartialResult]]:
    words = _read_words(data)
    params, dims = _parse_header(words)
    r, s, c = dims
    br, bc = r // params.K, c // params.L
    rec = 4 + br * bc
    body = words[_HEADER_WORDS:]
    if body.size % rec:
        raise WireFormatError(
            f"result payload of {body.size} words is not a multiple of record size {rec}"
        )
    records = body.reshape(-1, rec)
    # x, y and every product word of every record are field elements.
    fields = _field_words(records[:, 2:], params, "result payload")
    results = [
        PartialResult(
            worker_id=int(head[0]),
            order=int(head[1]),
            point=EvalPoint(int(rec_fields[0]), int(rec_fields[1])),
            product=rec_fields[2:].reshape(br, bc),
        )
        for head, rec_fields in zip(records[:, :2], fields)
    ]
    return params, dims, results
