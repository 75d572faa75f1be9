"""Binary codecs for keys and generalized-tuple records.

The paper stores 4-byte values in 1024-byte pages. :class:`KeyCodec`
supports both the paper's 4-byte (float32) key layout and an 8-byte
(float64) layout for exactness-sensitive tests; node capacities are
derived from the codec, so fan-out follows the chosen layout.

Float32 keys quantise: ``encode(decode(x)) == decode(x)`` but
``decode(encode(x)) != x`` in general. Query code compensates by widening
sweep boundaries with :func:`KeyCodec.down`/:func:`KeyCodec.up`, relying
on the refinement step to discard the handful of extra candidates —
no result can be lost to quantisation.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple, Sequence

import numpy as np

from repro.constraints.linear import LinearConstraint
from repro.constraints.theta import Theta
from repro.constraints.tuples import GeneralizedTuple
from repro.errors import StorageError, TruncatedRecordError

#: Encodings of Theta in tuple records.
_THETA_CODES = {Theta.LE: 0, Theta.GE: 1, Theta.EQ: 2, Theta.LT: 3, Theta.GT: 4}
_THETA_FROM_CODE = {v: k for k, v in _THETA_CODES.items()}

#: One stored 2-D atom as :func:`encode_tuple` packs it: coefficients,
#: constant and theta code (``<f8 f8 f8 u1``, 25 bytes).
ATOM_2D = np.dtype(
    [("a", "<f8"), ("b", "<f8"), ("const", "<f8"), ("theta", "u1")]
)

#: 4-byte record id / page pointer.
RID_BYTES = 4

#: Pre-parsed key structs, shared by every codec instance (parsing the
#: format string once per key was a measurable build-path cost).
_KEY_STRUCTS = {4: struct.Struct("<f"), 8: struct.Struct("<d")}
_KEY_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}

#: Float32 saturation threshold of :meth:`KeyCodec.encode`.
_F32_SATURATE = 3.4e38


class KeyCodec:
    """Fixed-width float key codec (4 or 8 bytes)."""

    def __init__(self, key_bytes: int = 4) -> None:
        if key_bytes not in (4, 8):
            raise StorageError("key_bytes must be 4 or 8")
        self.key_bytes = key_bytes
        self._struct = _KEY_STRUCTS[key_bytes]
        self._dtype = _KEY_DTYPES[key_bytes]
        self._fmt = self._struct.format

    def encode(self, value: float) -> bytes:
        """Pack a key (float32 saturates very large magnitudes to ±inf)."""
        if self.key_bytes == 4 and math.isfinite(value):
            if value > _F32_SATURATE:
                value = math.inf
            elif value < -_F32_SATURATE:
                value = -math.inf
        return self._struct.pack(value)

    def decode(self, data: bytes) -> float:
        """Unpack a key.

        Raises :class:`~repro.errors.TruncatedRecordError` if ``data``
        is not exactly one key wide (the torn read after a crash).
        """
        if len(data) != self.key_bytes:
            raise TruncatedRecordError(
                f"key buffer of {len(data)} bytes, expected {self.key_bytes}"
            )
        return self._struct.unpack(data)[0]

    # ------------------------------------------------------------------
    # batch paths (B+-tree node (de)serialization)
    # ------------------------------------------------------------------
    def saturate_array(self, values: Sequence[float] | np.ndarray) -> np.ndarray:
        """``values`` as float64 with :meth:`encode`'s saturation applied.

        Finite magnitudes beyond the float32 threshold become ±inf for
        4-byte keys (bit-identical to the scalar path); 8-byte keys pass
        through untouched.
        """
        arr = np.asarray(values, dtype=np.float64)
        if self.key_bytes == 8 or arr.size == 0:
            return arr
        out = arr.copy()
        finite = np.isfinite(out)
        out[finite & (out > _F32_SATURATE)] = math.inf
        out[finite & (out < -_F32_SATURATE)] = -math.inf
        return out

    def encode_keys(self, values: Sequence[float] | np.ndarray) -> bytes:
        """Pack many keys contiguously.

        Byte-identical to concatenating :meth:`encode` over ``values``
        (same rounding, same saturation) but one vectorized cast instead
        of one ``struct.pack`` per key.
        """
        out = self.saturate_array(values)
        with np.errstate(over="ignore"):
            return out.astype(self._dtype).tobytes()

    def decode_keys(
        self, data: bytes, count: int, offset: int = 0
    ) -> list[float]:
        """Unpack ``count`` contiguous keys starting at ``offset``.

        The inverse of :meth:`encode_keys`; values equal per-key
        :meth:`decode` results exactly (float32 widens losslessly).
        Raises :class:`~repro.errors.TruncatedRecordError` when the
        buffer is too short for the promised count.
        """
        if count < 0 or offset < 0:
            raise TruncatedRecordError(
                f"invalid key range count={count} offset={offset}"
            )
        if offset + count * self.key_bytes > len(data):
            raise TruncatedRecordError(
                f"key buffer of {len(data)} bytes cannot hold {count} "
                f"keys of {self.key_bytes} bytes at offset {offset}"
            )
        arr = np.frombuffer(data, dtype=self._dtype, count=count,
                            offset=offset)
        return arr.astype(np.float64).tolist()

    def quantize_many(self, values: Sequence[float] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`quantize`: the stored representation of each
        value, as a float64 array (bit-identical to the scalar path)."""
        out = self.saturate_array(values)
        if self.key_bytes == 8:
            return out
        with np.errstate(over="ignore"):
            return out.astype(self._dtype).astype(np.float64)

    def quantize(self, value: float) -> float:
        """The stored representation of ``value`` (round-trip)."""
        return self.decode(self.encode(value))

    def down(self, value: float) -> float:
        """A stored-precision value guaranteed ``<= value``.

        When the nearest representable value rounds *up*, step down by a
        full unit-in-the-last-place of the storage format (a float64
        ``nextafter`` would re-quantise to the same float32).
        """
        if not math.isfinite(value):
            return value
        q = self.quantize(value)
        if q <= value:
            return q
        return self.quantize(q - 1.5 * self._ulp(q))

    def up(self, value: float) -> float:
        """Mirror of :meth:`down` for descending boundaries."""
        if not math.isfinite(value):
            return value
        q = self.quantize(value)
        if q >= value:
            return q
        return self.quantize(q + 1.5 * self._ulp(q))

    def _ulp(self, value: float) -> float:
        if self.key_bytes == 8:
            return math.ulp(value)
        return max(2.0 ** -149, abs(value) * 2.0 ** -23)


# ----------------------------------------------------------------------
# generalized tuple records
# ----------------------------------------------------------------------
def encode_tuple(tuple_id: int, t: GeneralizedTuple) -> bytes:
    """Serialise a generalized tuple for the heap file.

    Layout: ``u32 tuple_id | u8 dim | u8 m | m × (dim × f64 coeffs,
    f64 const, u8 theta)``. Coefficients are stored at full float64
    precision: the refinement step and dynamic key re-derivation both
    work from fetched records, so record decoding must be lossless.
    (The 4-byte value size of the paper governs *index* keys/pointers,
    which dominate the structures Figure 10 compares.) A syntactically
    false tuple also stores one canonical false atom ``0 + 1 <= 0``:
    normalisation drops contradictory atoms, so without it the record
    would decode as satisfiable (or, with no atom left, not at all).
    """
    dim = t.dimension
    atoms = [(atom.coeffs, atom.const, atom.theta) for atom in t.constraints]
    if t.syntactically_false:
        atoms.append(((0.0,) * dim, 1.0, Theta.LE))
    if dim > 255 or len(atoms) > 255:
        raise StorageError("tuple too wide for the record layout")
    parts = [struct.pack("<IBB", tuple_id, dim, len(atoms))]
    for coeffs, const, theta in atoms:
        parts.append(struct.pack(f"<{dim}d", *coeffs))
        parts.append(struct.pack("<dB", const, _THETA_CODES[theta]))
    return b"".join(parts)


def decode_tuple(data: bytes) -> tuple[int, GeneralizedTuple]:
    """Inverse of :func:`encode_tuple`.

    A buffer shorter than its own header promises raises
    :class:`~repro.errors.TruncatedRecordError`; an unknown theta code
    (bit rot rather than tearing) raises :class:`StorageError`.
    """
    if len(data) < 6:
        raise TruncatedRecordError(
            f"tuple record of {len(data)} bytes is shorter than its header"
        )
    tuple_id, dim, m = struct.unpack_from("<IBB", data, 0)
    needed = tuple_record_size(dim, m)
    if len(data) < needed:
        raise TruncatedRecordError(
            f"tuple record of {len(data)} bytes, header promises {needed}"
        )
    offset = 6
    atoms = []
    for _ in range(m):
        coeffs = struct.unpack_from(f"<{dim}d", data, offset)
        offset += 8 * dim
        const, code = struct.unpack_from("<dB", data, offset)
        offset += 9
        if code not in _THETA_FROM_CODE:
            raise StorageError(f"unknown theta code {code} in tuple record")
        atoms.append(LinearConstraint(coeffs, const, _THETA_FROM_CODE[code]))
    return tuple_id, GeneralizedTuple(atoms)


def tuple_record_size(dim: int, num_atoms: int) -> int:
    """Byte size of an encoded tuple record."""
    return 6 + num_atoms * (8 * dim + 9)


class HalfPlaneRows(NamedTuple):
    """Tuple records decoded column-wise: ``nx·x + ny·y <= beta`` rows.

    ``nx``/``ny``/``beta`` are ``records × width`` arrays padded with
    ``(0, 0, 0)``; row ``r`` holds record ``r``'s atoms in the ``<=``
    form the scalar engine derives from the normalised tuple
    (``support2d.ineqs_from_atoms``). A record these arrays cannot stand
    for (not 2-D, holding a non-finite value or a contradictory atom)
    gets an all-padding row, which has no vertex, so
    :func:`~repro.geometry.predicates.halfplane_rows` leaves it to
    :func:`decode_tuple` and the scalar predicates.
    """

    tids: np.ndarray
    nx: np.ndarray
    ny: np.ndarray
    beta: np.ndarray


def decode_halfplanes_2d(payloads: Sequence[bytes]) -> HalfPlaneRows:
    """Batch-decode tuple records into padded half-plane arrays.

    One ``np.frombuffer`` over the joined atom bytes replaces one
    :func:`decode_tuple` per record. The rows follow
    :func:`~repro.constraints.normalize.normalize`: an ``=`` atom becomes
    its ``>=`` and ``<=`` rows, strict atoms are closed, and a trivial
    atom (zero coefficients) becomes padding when it is a tautology and
    empties the record's row when it is a contradiction. Exact
    duplicate atoms, which ``normalize`` drops, stay; they add no
    vertex and reject no point. Raises what :func:`decode_tuple` on
    each record in turn would raise first:
    :class:`~repro.errors.TruncatedRecordError` for a record shorter
    than its header promises, :class:`StorageError` for an unknown
    theta code.
    """
    count = len(payloads)
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=count)
    # Trailing zeros keep a short record's header read inside the buffer.
    blob = np.frombuffer(b"".join([*payloads, bytes(6)]), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    header = blob[starts[:, None] + np.arange(6)]
    dims = header[:, 4].astype(np.int64)
    atoms_per = header[:, 5].astype(np.int64)
    stride = 8 * dims + 9
    needed = np.where(lengths < 6, 6, 6 + atoms_per * stride)
    torn = lengths < needed
    whole = int(np.argmax(torn)) if torn.any() else count
    # Theta codes of the records ahead of the first torn one, in order.
    per = atoms_per[:whole]
    owner = np.repeat(np.arange(whole), per)
    k = np.arange(owner.size) - np.repeat(np.cumsum(per) - per, per)
    codes = blob[starts[owner] + 6 + (k + 1) * stride[owner] - 1]
    for code in codes[codes > max(_THETA_FROM_CODE)][:1].tolist():
        raise StorageError(f"unknown theta code {code} in tuple record")
    if whole < count:
        length = int(lengths[whole])
        if length < 6:
            raise TruncatedRecordError(
                f"tuple record of {length} bytes is shorter than its header"
            )
        raise TruncatedRecordError(
            f"tuple record of {length} bytes, header promises {needed[whole]}"
        )
    tids = header[:, :4].copy().view("<u4").ravel()
    skip = dims != 2
    counts = np.where(skip, 0, atoms_per)
    atoms = np.frombuffer(
        b"".join([
            data[6 : 6 + 25 * m]
            for data, m in zip(payloads, counts.tolist())
            if m
        ]),
        dtype=ATOM_2D,
    )
    codes = atoms["theta"]
    # Expand: one row per weak atom, the >= row of an = atom first.
    eq = codes == _THETA_CODES[Theta.EQ]
    source = np.repeat(np.arange(codes.size), np.where(eq, 2, 1))
    first = np.ones(source.size, dtype=bool)
    first[1:] = source[1:] != source[:-1]
    ge = (codes == _THETA_CODES[Theta.GE]) | (codes == _THETA_CODES[Theta.GT])
    ge = ge[source] | (eq[source] & first)
    a, b, c = (atoms[f][source] for f in ("a", "b", "const"))
    nx = np.where(ge, -a, a)
    ny = np.where(ge, -b, b)
    beta = np.where(ge, c, -c)
    # Place the rows: record, then column within the record.
    row = np.repeat(np.arange(count), counts)[source]
    widths = np.bincount(row, minlength=count)
    col = np.arange(row.size) - (np.cumsum(widths) - widths)[row]
    trivial = (nx == 0.0) & (ny == 0.0)
    finite = np.isfinite(nx) & np.isfinite(ny) & np.isfinite(beta)
    bad = ~finite | (trivial & (beta < 0.0))
    skip |= np.bincount(row, weights=bad, minlength=count) > 0
    keep = ~skip[row] & ~trivial
    width = max(2, int(widths.max(initial=0)))
    out = [np.zeros((count, width)) for _ in range(3)]
    for dest, values in zip(out, (nx, ny, beta)):
        dest[row[keep], col[keep]] = values[keep]
    return HalfPlaneRows(tids.astype(np.int64), *out)
