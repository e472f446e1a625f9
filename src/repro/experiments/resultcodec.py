"""Compact binary value codec and the CRC-framed record built on it.

The codec flattens the result shapes the campaign drivers return —
tuples/lists/dicts of primitives plus NumPy arrays — into a tagged,
length-prefixed byte stream decoded with ``struct`` and
``np.frombuffer`` (arrays come back zero-copy from the received buffer).

The contract is *type-exact* round-tripping: ``decode(encode(x))`` equals
``x`` including container types, ``bool`` vs ``int``, and float bit
patterns.  Values the fast tags cannot represent exactly (arbitrary
objects, huge ints, type subclasses) fall back to an embedded pickle
frame, so the codec never rejects a value, it only stops being fast.

On top of the value codec sits the **framed record** the result-cache
checkpoint log stores (:class:`repro.util.cachefile.Checkpoint`): a
``<II>`` header (CRC32 of the payload, then its length) followed by one
codec-encoded tuple.  :func:`frame` builds it; each frame is written
with a single ``os.write`` on an O_APPEND descriptor, so a reader never
sees an interleaved frame, only a torn tail.  :func:`read_frames` is the
one reader: offset-resumable, and a record is trusted only after its
CRC checks, so a flipped bit ends the readable prefix instead of
becoming a result.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import numpy as np

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Tag bytes (one per encodable shape).  ``PKL`` is the exact-but-slow
#: escape hatch for anything the fast tags cannot represent.
_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_INT = b"i"
_FLOAT = b"f"
_STR = b"s"
_BYTES = b"b"
_TUPLE = b"t"
_LIST = b"l"
_DICT = b"d"
_ARRAY = b"a"
_PKL = b"p"


def _encode_into(obj, out: "list[bytes]") -> None:
    kind = type(obj)
    if obj is None:
        out.append(_NONE)
    elif kind is bool:
        out.append(_TRUE if obj else _FALSE)
    elif kind is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            out.append(_INT)
            out.append(_I64.pack(obj))
        else:
            _encode_pickle(obj, out)
    elif kind is float:
        out.append(_FLOAT)
        out.append(_F64.pack(obj))
    elif kind is str:
        raw = obj.encode("utf-8")
        out.append(_STR)
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif kind is bytes:
        out.append(_BYTES)
        out.append(_U32.pack(len(obj)))
        out.append(obj)
    elif kind is tuple or kind is list:
        out.append(_TUPLE if kind is tuple else _LIST)
        out.append(_U32.pack(len(obj)))
        for item in obj:
            _encode_into(item, out)
    elif kind is dict:
        out.append(_DICT)
        out.append(_U32.pack(len(obj)))
        for key, value in obj.items():
            _encode_into(key, out)
            _encode_into(value, out)
    elif kind is np.ndarray:
        if obj.dtype.hasobject:
            _encode_pickle(obj, out)
            return
        arr = np.ascontiguousarray(obj)
        dt = arr.dtype.str.encode("ascii")
        out.append(_ARRAY)
        out.append(_U32.pack(len(dt)))
        out.append(dt)
        out.append(_U32.pack(arr.ndim))
        for dim in arr.shape:
            out.append(_I64.pack(dim))
        raw = arr.tobytes()
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    else:
        _encode_pickle(obj, out)


def _encode_pickle(obj, out: "list[bytes]") -> None:
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    out.append(_PKL)
    out.append(_U32.pack(len(raw)))
    out.append(raw)


def encode(obj) -> bytes:
    """Serialize *obj* into one compact, self-delimiting byte string."""
    out: "list[bytes]" = []
    _encode_into(obj, out)
    return b"".join(out)


def _decode_at(buf: "memoryview", pos: int) -> "tuple[object, int]":
    tag = bytes(buf[pos : pos + 1])
    pos += 1
    if tag == _NONE:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _INT:
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _STR:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return bytes(buf[pos : pos + n]).decode("utf-8"), pos + n
    if tag == _BYTES:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return bytes(buf[pos : pos + n]), pos + n
    if tag in (_TUPLE, _LIST):
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _decode_at(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _TUPLE else items), pos
    if tag == _DICT:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        d = {}
        for _ in range(n):
            key, pos = _decode_at(buf, pos)
            value, pos = _decode_at(buf, pos)
            d[key] = value
        return d, pos
    if tag == _ARRAY:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        dt = np.dtype(bytes(buf[pos : pos + n]).decode("ascii"))
        pos += n
        (ndim,) = _U32.unpack_from(buf, pos)
        pos += 4
        shape = []
        for _ in range(ndim):
            shape.append(_I64.unpack_from(buf, pos)[0])
            pos += 8
        (nbytes,) = _U32.unpack_from(buf, pos)
        pos += 4
        # A zero-size array must not touch the buffer at all (frombuffer
        # rejects empty counts on some dtypes); build it directly.
        if nbytes == 0:
            return np.zeros(shape, dtype=dt), pos
        arr = np.frombuffer(buf[pos : pos + nbytes], dtype=dt).reshape(shape)
        return arr.copy(), pos + nbytes
    if tag == _PKL:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return pickle.loads(bytes(buf[pos : pos + n])), pos + n
    raise ValueError(f"resultcodec: unknown tag {tag!r} at offset {pos - 1}")


def decode(data: "bytes | memoryview") -> object:
    """Inverse of :func:`encode`; rejects empty and trailing-garbage input."""
    if len(data) == 0:
        raise ValueError("resultcodec: cannot decode an empty buffer")
    obj, pos = _decode_at(memoryview(data), 0)
    if pos != len(data):
        raise ValueError(f"resultcodec: {len(data) - pos} trailing byte(s) after value")
    return obj


# --------------------------------------------------------------------------
# Framed records: the on-disk format of the checkpoint log

#: Frame header: CRC32 of the payload, then its byte length.
_FRAME = struct.Struct("<II")


def frame(record: tuple) -> bytes:
    """*record* as one CRC-framed blob, ready for a single append write."""
    blob = encode(record)
    return _FRAME.pack(zlib.crc32(blob), len(blob)) + blob


def read_frames(path, offset: int = 0) -> "tuple[list[tuple], int, bool]":
    """Decode the framed records of *path* from byte *offset* on.

    Returns ``(records, clean_end, torn)``: *clean_end* is the byte after
    the last good record — where the next read resumes, or where a writer
    truncates before appending — and *torn* says bytes follow it.  Reading
    stops at the first short, CRC-mismatched or undecodable frame: each
    frame is one append write, so damage is a write still in flight or
    the last write of a killed writer, and nothing after it is trusted.
    A missing or unreadable file reads as empty.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except OSError:
        return [], offset, False
    records: "list[tuple]" = []
    pos, end = 0, len(data)
    while pos + _FRAME.size <= end:
        crc, size = _FRAME.unpack_from(data, pos)
        start = pos + _FRAME.size
        blob = data[start : start + size]
        if len(blob) < size or zlib.crc32(blob) != crc:
            break
        try:
            records.append(decode(blob))
        except Exception:
            break
        pos = start + size
    return records, offset + pos, pos < end
