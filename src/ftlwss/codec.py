"""Low-level binary encoding shared by checkpoints, federation messages and
datasets.

Tensor sections are self-describing: a u32 rank, the u32 dimensions, then the
row-major float32 payload. All integers and floats are little-endian. Decoding
failures raise :class:`DecodeError` carrying the byte offset of the problem,
and never leave partially constructed state behind.

Encoders size their output first and write every section in place, so
``encode_*`` returns a ``bytearray`` built in one pass. Decoded arrays are
views of the message buffer (read-only when it is ``bytes``), copied only
when their payload does not sit on a 4-byte boundary; a file read by
:func:`read_file` is one writable buffer.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np


# the magic and the u32 version that open a checkpoint or a dataset file
FILE_HEADER = struct.Struct("<4sI")


class DecodeError(ValueError):
    """Malformed or truncated binary payload."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def tensor_nbytes(array: np.ndarray) -> int:
    """Encoded size of ``array``: rank, dimensions and float32 payload."""
    return 4 * (1 + array.ndim + array.size)


def write_tensor(buf, offset: int, array: np.ndarray) -> int:
    """Write ``array`` as a tensor section at ``offset`` of the writable
    buffer ``buf``, casting to float32 on the way; returns the end offset.
    """
    struct.pack_into(f"<{1 + array.ndim}I", buf, offset, array.ndim, *array.shape)
    offset += 4 * (1 + array.ndim)
    payload = np.frombuffer(buf, dtype="<f4", count=array.size, offset=offset)
    payload.reshape(array.shape)[...] = array
    return offset + 4 * array.size


def encode_tensor(array: np.ndarray) -> bytearray:
    array = np.ascontiguousarray(array)  # a 0-d array encodes as shape (1,)
    buf = bytearray(tensor_nbytes(array))
    write_tensor(buf, 0, array)
    return buf


def read_file(path) -> bytearray:
    """The contents of the file at ``path``, read into one bytearray."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
    return data


class ByteReader:
    """Sequential reader tracking its offset for error reporting."""

    def __init__(self, data):
        self._data = memoryview(data)
        self.offset = 0

    def take(self, count: int) -> memoryview:
        if count > self.remaining:
            raise DecodeError(
                f"truncated payload: wanted {count} bytes, {self.remaining} left", self.offset
            )
        chunk = self._data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def expect_header(self, kind: str, magic: bytes, version: int) -> None:
        """Read the 4-byte magic and the u32 version that open a ``kind``
        payload; another magic raises ``DecodeError`` at byte 0, another
        version at byte 4."""
        found = bytes(self.take(4))
        if found != magic:
            raise DecodeError(f"bad {kind} magic {found!r}", 0)
        found = self.u32()
        if found != version:
            raise DecodeError(f"unsupported {kind} version {found}", 4)

    def tensor(self) -> np.ndarray:
        rank = self.u32()
        if rank > 8:
            raise DecodeError(f"implausible tensor rank {rank}", self.offset - 4)
        shape = tuple(self.u32() for _ in range(rank))
        count = math.prod(shape)
        if 4 * count > self.remaining:
            raise DecodeError(
                f"tensor of shape {shape} needs {4 * count} bytes, {self.remaining} left",
                self.offset,
            )
        array = np.frombuffer(self._data, dtype="<f4", count=count, offset=self.offset)
        self.offset += 4 * count
        # BLAS takes only aligned operands; numpy's fallback rounds differently
        if not array.flags.aligned:
            array = array.copy()
        try:
            return array.reshape(shape)
        except ValueError as exc:  # no elements, but dimensions too large to address
            raise DecodeError(f"tensor of shape {shape} is too large to address", self.offset) from exc

    def expect_end(self) -> None:
        if self.offset != len(self._data):
            raise DecodeError(
                f"{len(self._data) - self.offset} trailing bytes after message", self.offset
            )

    @property
    def remaining(self) -> int:
        return len(self._data) - self.offset
