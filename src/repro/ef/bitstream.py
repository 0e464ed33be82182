"""LSB-first bitstream reader/writer over uint8 buffers.

All Elias-Fano sections use the same convention (paper Fig. 3 footnote):
within a byte, bit 0 is the least significant bit, so a ``select`` that
walks the stream left-to-right logically walks each byte from LSB to MSB.

Two layers are provided:

* :class:`BitWriter` / :class:`BitReader` — incremental scalar access,
  used by encoders (compression is an offline step, Sec. VIII-F).
* :func:`pack_bits` / :func:`unpack_bits` — fully vectorized fixed-width
  field packing, used on the hot decode paths.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader", "pack_bits", "unpack_bits", "extract_fields"]


class BitWriter:
    """Append-only LSB-first bit buffer.

    Grows geometrically; call :meth:`getvalue` to obtain the packed
    ``uint8`` array (zero-padded to a whole byte).
    """

    def __init__(self, capacity_bits: int = 64) -> None:
        self._buf = np.zeros(max(1, (capacity_bits + 7) >> 3), dtype=np.uint8)
        self._nbits = 0

    def __len__(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def _ensure(self, extra_bits: int) -> None:
        need = (self._nbits + extra_bits + 7) >> 3
        if need > self._buf.shape[0]:
            new = np.zeros(max(need, 2 * self._buf.shape[0]), dtype=np.uint8)
            new[: self._buf.shape[0]] = self._buf
            self._buf = new

    def write_bit(self, bit: int) -> None:
        """Append a single bit."""
        self._ensure(1)
        if bit:
            self._buf[self._nbits >> 3] |= np.uint8(1 << (self._nbits & 7))
        self._nbits += 1

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, LSB first."""
        if width < 0:
            raise ValueError(f"negative width: {width}")
        if value < 0:
            raise ValueError(f"negative value: {value}")
        if width and value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._ensure(width)
        nbits = self._nbits
        buf = self._buf
        for k in range(width):
            if (value >> k) & 1:
                buf[(nbits + k) >> 3] |= np.uint8(1 << ((nbits + k) & 7))
        self._nbits += width

    def write_unary(self, gap: int) -> None:
        """Append ``gap`` zero bits followed by a single one (stop) bit.

        This is the unary gap code of the EF upper-bits array.
        """
        if gap < 0:
            raise ValueError(f"negative unary gap: {gap}")
        self._ensure(gap + 1)
        self._nbits += gap  # zeros are already present in the buffer
        self.write_bit(1)

    def align_to_byte(self) -> None:
        """Zero-pad to the next byte boundary (sections are byte aligned)."""
        self._nbits = (self._nbits + 7) & ~7
        self._ensure(0)

    def getvalue(self) -> np.ndarray:
        """Packed uint8 array holding all written bits."""
        return self._buf[: (self._nbits + 7) >> 3].copy()


class BitReader:
    """Sequential LSB-first reader over a uint8 buffer."""

    def __init__(self, data: np.ndarray, start_bit: int = 0) -> None:
        self._data = np.asarray(data, dtype=np.uint8)
        if start_bit < 0:
            raise ValueError(f"negative start bit: {start_bit}")
        self._pos = start_bit

    @property
    def position(self) -> int:
        """Current bit offset."""
        return self._pos

    def seek(self, bit: int) -> None:
        """Jump to an absolute bit offset."""
        if bit < 0:
            raise ValueError(f"negative seek: {bit}")
        self._pos = bit

    def read_bit(self) -> int:
        """Read one bit and advance."""
        byte = self._data[self._pos >> 3]
        bit = (int(byte) >> (self._pos & 7)) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read a ``width``-bit little-endian field and advance."""
        value = 0
        for k in range(width):
            value |= self.read_bit() << k
        return value

    def read_unary(self) -> int:
        """Read zeros until a stop bit; return the zero count (the gap)."""
        gap = 0
        while self.read_bit() == 0:
            gap += 1
        return gap


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorized LSB-first packing of fixed-width fields into bytes.

    ``values[i]`` occupies bits ``[i*width, (i+1)*width)`` of the output.
    This builds the EF lower-bits section in one shot.
    """
    values = np.asarray(values, dtype=np.uint64)
    if width < 0:
        raise ValueError(f"negative width: {width}")
    n = values.shape[0]
    if width == 0 or n == 0:
        return np.zeros(0, dtype=np.uint8)
    if width < 64 and values.size and int(values.max()) >> width:
        raise ValueError(f"a value does not fit in {width} bits")
    total_bits = n * width
    # Expand every field into individual bits, then repack 8 at a time.
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    flat = bits.reshape(-1)
    nbytes = (total_bits + 7) >> 3
    padded = np.zeros(nbytes * 8, dtype=np.uint8)
    padded[:total_bits] = flat
    byte_matrix = padded.reshape(nbytes, 8)
    weights = (1 << np.arange(8)).astype(np.uint16)
    return (byte_matrix * weights).sum(axis=1).astype(np.uint8)


def unpack_bits(data: np.ndarray, width: int, count: int, start_bit: int = 0) -> np.ndarray:
    """Vectorized inverse of :func:`pack_bits`.

    Reads ``count`` fields of ``width`` bits starting at bit offset
    ``start_bit``.  Used by the decode kernels to fetch lower bits for a
    whole warp of values at once.
    """
    data = np.asarray(data, dtype=np.uint8)
    if width < 0 or count < 0 or start_bit < 0:
        raise ValueError("width, count and start_bit must be non-negative")
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    positions = start_bit + np.arange(count, dtype=np.int64) * width
    return extract_fields(data, positions, width)


#: ``_FIELD_MASKS[w]`` keeps the low ``w`` bits of a word, for the widths
#: one unaligned 64-bit load can serve after a shift of up to 7 bits.
_FIELD_MASKS: np.ndarray = (
    np.uint64(1) << np.arange(57, dtype=np.uint64)
) - np.uint64(1)
_FIELD_MASKS.setflags(write=False)


def extract_fields(
    data: np.ndarray, bit_positions: np.ndarray, width: int | np.ndarray
) -> np.ndarray:
    """Read a ``width``-bit field at each (arbitrary) bit position.

    This is the random-access primitive behind ``get_lower_half`` in
    Alg. 2: each thread fetches its own value's lower bits.  ``width``
    is one width for every field or one width per position.

    A field of width <= 56 starting at bit ``p`` lies inside the 8
    bytes from byte ``p >> 3``, so it is one gather from an unaligned
    little-endian ``uint64`` view of ``data``, a shift by ``p & 7`` and
    a mask.  Words that would run past the end of ``data`` are read
    from a zero-padded copy of its last 8 bytes.  Wider fields (EF
    allows up to 64 bits) take a per-field scalar read.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    widths = np.asarray(width, dtype=np.int64)
    if widths.ndim == 0:
        w = int(widths)
        if w < 0:
            raise ValueError(f"negative width: {w}")
        if w == 0 or bit_positions.shape[0] == 0:
            return np.zeros(bit_positions.shape[0], dtype=np.uint64)
        if w > 56:
            return _read_fields_scalar(data, bit_positions, widths)
        mask = _FIELD_MASKS[w]
    else:
        if widths.size and int(widths.min()) < 0:
            raise ValueError(f"negative width: {int(widths.min())}")
        wide = widths > 56
        if wide.any():
            out = np.zeros(bit_positions.shape[0], dtype=np.uint64)
            out[wide] = _read_fields_scalar(
                data, bit_positions[wide], widths[wide]
            )
            narrow = ~wide
            out[narrow] = extract_fields(
                data, bit_positions[narrow], widths[narrow]
            )
            return out
        mask = _FIELD_MASKS[widths]
    word = _gather_words(data, bit_positions >> 3)
    word >>= (bit_positions & 7).astype(np.uint64)
    word &= mask
    return word


def _gather_words(data: np.ndarray, byte_idx: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word at each byte offset of ``data``;
    bytes past the end read as zero."""
    n = data.shape[0]
    head = max(n - 8, 0)
    if n >= 8:
        words = np.ndarray((n - 7,), "<u8", buffer=data, strides=(1,))
        tail = byte_idx > head
        if not tail.any():
            return words[byte_idx].astype(np.uint64, copy=False)
        out = words[np.minimum(byte_idx, head)].astype(np.uint64, copy=False)
    else:
        tail = np.ones(byte_idx.shape[0], dtype=bool)
        out = np.empty(byte_idx.shape[0], dtype=np.uint64)
    padded = np.zeros(16, dtype=np.uint8)
    padded[: n - head] = data[head:]
    padded_words = np.ndarray((9,), "<u8", buffer=padded, strides=(1,))
    out[tail] = padded_words[np.minimum(byte_idx[tail] - head, 8)]
    return out


def _read_fields_scalar(
    data: np.ndarray, bit_positions: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Per-field scalar reads: the rare path for fields over 56 bits."""
    widths = np.broadcast_to(widths, bit_positions.shape)
    out = np.empty(bit_positions.shape[0], dtype=np.uint64)
    for i, (pos, w) in enumerate(zip(bit_positions, widths)):
        out[i] = BitReader(data, int(pos)).read_bits(int(w))
    return out
