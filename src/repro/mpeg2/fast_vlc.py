"""Table-driven fast VLC decode (multi-bit lookup, inline escape handling).

The reference codecs in :mod:`repro.mpeg2.vlc` decode one code at a time
through per-table flat LUTs but pay a Python call + ``bytes`` slice per
symbol.  This module precomputes *combined* lookup tables at import time —
sign bit folded into the DCT coefficient entries, end-of-block and escape
codes stored as sentinel entries, the address-increment escape folded into
its table — and decodes against a wide cached bit window, so a symbol
costs a shift, a mask, and one list index.

Three consumers decode against these tables.  The full-picture parse is
:func:`parse_slice_columns` below: one function per slice with the whole
macroblock layer inline, writing rows of ints (``parser.PictureColumns``
once frozen) instead of objects.  It is the *specification* of the slice
walk: where a C compiler is, ``repro.mpeg2.native_walk`` runs the same walk
as ``_walk.c`` -- a port of this function, check for check and record for
record, against this module's single-symbol and stride tables (flattened
below by :func:`_flat_lut`; nothing is restated in C) -- and this function
stays byte for byte what it was: the reference the kernel is differentially
tested against and the engine where there is no compiler.  Neither consults
a switch.  It walks the
syntax and computes nothing a later pass over the whole picture can: it
does not decode run/level codes -- a second set of tables, the *stride*
tables, tells it how many bits the whole symbols of a 16-bit window take,
it records the window and moves on, and :func:`expand_entries` decodes a
picture's windows with numpy gathers afterwards -- and it keeps no
predictor: DC differentials and motion deltas are recorded as coded, a run
of skipped macroblocks as one record, and ``parser._columns`` rebuilds DC
levels, vectors and skipped rows as segmented prefix sums.  (Those two numpy
passes are specifications in their turn: where the walk is native,
``_columns.c`` runs both behind it inside the same foreign call, against
``_NSYM`` / ``_SYM`` / ``_EOB`` below as they are, and
``tests/test_native_columns.py`` holds it to them array for array.)  A third set of
tables, the *fused* ones, answers its common cases in one lookup each: an
address increment of one with the macroblock type and quantiser, a DC size
with its differential, a motion code with its residual (the kernel does
without them).  Either engine's records reach the parser as a
:class:`ColumnArrays`.  The per-symbol
decoders (``decode_address_increment`` ... ``decode_ac_into``) serve the
object parser in :mod:`repro.mpeg2.macroblock`, which the tile decoders run
on sub-picture payloads and the tests keep as the columnar parser's oracle.

``repro.mpeg2.vlc`` stays untouched as the bit-exact reference oracle:
every decoder here is differentially fuzzed against it
(``tests/test_fast_vlc.py``), and ``tests/oracles.py`` can put its
bit-at-a-time decoders under the object parser for a whole-picture
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2 import tables as T
from repro.mpeg2.constants import PictureType
from repro.mpeg2.structures import PictureHeader
from repro.mpeg2.vlc import VLCError

# ---------------------------------------------------------------------- #
# LUT construction
# ---------------------------------------------------------------------- #


def _fill(lut: List[Optional[tuple]], bits: int, length: int, width: int, entry: tuple) -> None:
    """Write ``entry`` into every LUT slot whose top ``length`` bits match."""
    shift = width - length
    base = bits << shift
    for i in range(1 << shift):
        if lut[base + i] is not None:
            raise ValueError(
                f"VLC LUT conflict at {bits:0{length}b} (width {width})"
            )
        lut[base + i] = entry


def _build_sym_lut(
    mapping: Dict, extra: Iterable[Tuple[object, Tuple[int, int]]] = ()
) -> Tuple[List[Optional[tuple]], int]:
    """(symbol, length) LUT over the table's maximum code width."""
    items = list(mapping.items()) + list(extra)
    width = max(length for _, (_, length) in items)
    lut: List[Optional[tuple]] = [None] * (1 << width)
    for sym, (bits, length) in items:
        _fill(lut, bits, length, width, (sym, length))
    return lut, width


# DCT coefficient LUTs: 16 bits cover the longest run/level code (13 bits)
# plus its sign bit.  Entries are ``(advance, level, length)`` with
# ``advance = run + 1``, the step in scan position; EOB, the escape prefix
# and the slots no code reaches are entries with ``advance <= 0``, so one
# lookup classifies every symbol and the hot loops unpack it untested.  No
# Annex B code is all zeros, so the zero-padding past end-of-buffer can
# never decode as a symbol.
COEFF_BITS = 16
_EOB_ADV = 0
_ESC_ADV = -1
_MISS = (-2, 0, 0)
_N_WINDOWS = 1 << COEFF_BITS


def _span(bits: int, length: int) -> slice:
    """The 16-bit windows that start with the ``length``-bit code ``bits``."""
    shift = COEFF_BITS - length
    return slice(bits << shift, (bits + 1) << shift)


def _coeff_codes(
    mapping: Dict[Tuple[int, int], Tuple[int, int]], eob_code: Tuple[int, int]
) -> Iterator[Tuple[int, int, int, int]]:
    """``(bits, length, advance, level)`` of every code of one coefficient
    table: each run/level code twice (its sign bit appended), then EOB and
    the escape prefix under their sentinel advances."""
    for (run, a), (bits, length) in mapping.items():
        if length + 1 > COEFF_BITS:
            raise ValueError(f"code for (run={run}, level={a}) exceeds {COEFF_BITS} bits")
        yield bits << 1, length + 1, run + 1, a
        yield (bits << 1) | 1, length + 1, run + 1, -a
    yield (*eob_code, _EOB_ADV, 0)
    yield (*T.DCT_ESCAPE_CODE, _ESC_ADV, 0)


def _build_coeff_lut(
    mapping: Dict[Tuple[int, int], Tuple[int, int]], eob_code: Tuple[int, int]
) -> List[tuple]:
    lut = [_MISS] * _N_WINDOWS
    for bits, length, adv, level in _coeff_codes(mapping, eob_code):
        span = _span(bits, length)
        if lut[span].count(_MISS) != span.stop - span.start:
            raise ValueError(f"VLC LUT conflict at {bits:0{length}b}")
        lut[span] = [(adv, level, length)] * (span.stop - span.start)
    return lut


_COEFF_LUT_T0 = _build_coeff_lut(T.DCT_COEFF, T.EOB_CODE)
_COEFF_LUT_T1 = _build_coeff_lut(T.DCT_COEFF_T1, T.EOB_CODE_T1)

# Stride tables: what a 16-bit window holds, for the columnar parser.  Its
# run/level loop only moves the bit cursor; the symbols are read out of the
# window values afterwards, by numpy (:func:`expand_entries`).  Per
# coefficient table and window ``w``:
#
# - ``stride[w]`` (one byte of a ``bytes``, so 64 KB a table and no int
#   objects): the bits of all the *complete* run/level symbols ``w`` starts
#   with -- every bit of each inside the window; when the block's EOB
#   follows them inside the window too, the bits through the EOB code plus
#   ``_STRIDE_EOB``; 0 when ``w`` starts with the escape prefix or with no
#   code at all;
# - ``_NSYM[w]``: how many symbols that is (0-5; the shortest code is 3 bits);
# - ``_SYM[w, k]``: symbol ``k`` as the bytes ``(level, advance)`` read as
#   one int16, 0 past ``_NSYM[w]`` (a symbol's advance is at least 1);
# - ``_EOB[w]``: whether the window closes the block.
#
# The numpy tables stack table zero and table one, ``_TABLE_ROWS`` apart.
# Each ends with the rows the direct entries index (see ``_DIRECT`` below)
# by their low 17 bits: one symbol of the entry's advance and level 0 (the
# level is in the entry), no EOB.
_MAX_SYMS = 5
_STRIDE_EOB = 32
_DIRECT = _N_WINDOWS
_DC = 1 << 7
_TABLE_ROWS = _N_WINDOWS + 2 * _DC


_NSYM = np.zeros(2 * _TABLE_ROWS, dtype=np.uint8)
_SYM = np.zeros((2 * _TABLE_ROWS, _MAX_SYMS), dtype=np.int16)
_EOB = np.zeros(2 * _TABLE_ROWS, dtype=bool)


def _build_stride_tables(
    table: int, mapping: Dict[Tuple[int, int], Tuple[int, int]], eob_code: Tuple[int, int]
) -> bytes:
    """Fill coefficient table ``table``'s half of ``_NSYM`` / ``_SYM`` /
    ``_EOB`` and return its ``stride``, vectorised over the windows:
    ``_MAX_SYMS + 1`` rounds of single-symbol lookups."""
    adv1 = np.full(_N_WINDOWS, _MISS[0], dtype=np.int8)
    level1 = np.zeros(_N_WINDOWS, dtype=np.int8)
    len1 = np.zeros(_N_WINDOWS, dtype=np.int8)
    for bits, length, adv, level in _coeff_codes(mapping, eob_code):
        span = _span(bits, length)
        adv1[span], level1[span], len1[span] = adv, level, length

    half = slice(table * _TABLE_ROWS, (table + 1) * _TABLE_ROWS)
    nsym, eob = _NSYM[half], _EOB[half]
    sym = _SYM.view(np.int8).reshape(-1, _MAX_SYMS, 2)[half]  # (level, advance)
    used = np.zeros(_N_WINDOWS, dtype=np.int8)  # bits of the symbols so far
    live = np.arange(_N_WINDOWS, dtype=np.int32)  # windows still being read
    for k in range(_MAX_SYMS + 1):
        # The rest of the window, zero-padded: a code found there with all of
        # its bits inside the window is the code the stream holds (the table
        # is prefix-free); anything else waits for the next window.
        rest = (live << used[live]) & (_N_WINDOWS - 1)
        length, adv = len1[rest], adv1[rest]
        whole = (length > 0) & (used[live] + length <= COEFF_BITS)
        closes = whole & (adv == _EOB_ADV)
        eob[live[closes]] = True
        used[live[closes]] += length[closes]
        more = whole & (adv > 0)
        live, rest = live[more], rest[more]
        if k == _MAX_SYMS:
            if len(live):
                raise ValueError(f"a window holds more than {_MAX_SYMS} symbols")
            break
        used[live] += length[more]
        nsym[live] = k + 1
        sym[live, k, 0] = level1[rest]
        sym[live, k, 1] = adv[more]
    advance = np.arange(1, 65)
    for rows in (_DIRECT | advance, _DIRECT | _DC | advance):
        nsym[rows] = 1
        sym[rows, 0, 1] = advance
    return np.where(eob[:_N_WINDOWS], used + _STRIDE_EOB, used).astype(np.uint8).tobytes()


_STRIDE_T0 = _build_stride_tables(0, T.DCT_COEFF, T.EOB_CODE)
_STRIDE_T1 = _build_stride_tables(1, T.DCT_COEFF_T1, T.EOB_CODE_T1)

_ADDR_ESCAPE = -1
_ADDR_LUT, _ADDR_BITS = _build_sym_lut(
    T.MB_ADDRESS_INCREMENT, [(_ADDR_ESCAPE, T.MB_ESCAPE_CODE)]
)
_MOTION_LUT, _MOTION_BITS = _build_sym_lut(T.MOTION_CODE)
_DC_LUMA_LUT, _DC_LUMA_BITS = _build_sym_lut(T.DCT_DC_SIZE_LUMA)
_DC_CHROMA_LUT, _DC_CHROMA_BITS = _build_sym_lut(T.DCT_DC_SIZE_CHROMA)
_CBP_LUT, _CBP_BITS = _build_sym_lut(T.CODED_BLOCK_PATTERN)
_MB_TYPE_LUTS = {
    1: _build_sym_lut(T.MB_TYPE_I),  # PictureType.I
    2: _build_sym_lut(T.MB_TYPE_P),  # PictureType.P
    3: _build_sym_lut(T.MB_TYPE_B),  # PictureType.B
}

# ---------------------------------------------------------------------- #
# decoders
# ---------------------------------------------------------------------- #


def decode_address_increment(br: BitReader) -> int:
    """Table-driven §6.3.16 address increment (escape folded into the LUT)."""
    total = 0
    while True:
        hit = _ADDR_LUT[br.peek_bits(_ADDR_BITS)]
        if hit is None:
            raise VLCError(f"no address-increment code matches at bit {br.pos}")
        sym, length = hit
        br.skip_bits(length)
        if sym != _ADDR_ESCAPE:
            return total + sym
        total += 33


def decode_motion_delta(br: BitReader, r_size: int) -> int:
    """Table-driven §7.6.3.1 motion delta (sign carried by the code).

    One 24-bit peek covers the longest motion code (11 bits) plus the
    largest residual (``r_size`` <= 8), so code and residual are extracted
    from the same window read.
    """
    v = br.peek_bits(24)
    hit = _MOTION_LUT[v >> (24 - _MOTION_BITS)]
    if hit is None:
        raise VLCError(f"no motion code matches at bit {br.pos}")
    code, length = hit
    if code == 0:
        br.skip_bits(length)
        return 0
    if r_size:
        residual = (v >> (24 - length - r_size)) & ((1 << r_size) - 1)
        br.skip_bits(length + r_size)
    else:
        residual = 0
        br.skip_bits(length)
    a = ((abs(code) - 1) << r_size) + residual + 1
    return a if code > 0 else -a


def decode_dc_delta(br: BitReader, component: int) -> int:
    """Table-driven §7.2.1 DC differential (size VLC + size-bit residual).

    A single 24-bit peek covers the longest size code (10 bits) plus the
    largest differential (11 bits).
    """
    v = br.peek_bits(24)
    if component == 0:
        hit = _DC_LUMA_LUT[v >> (24 - _DC_LUMA_BITS)]
    else:
        hit = _DC_CHROMA_LUT[v >> (24 - _DC_CHROMA_BITS)]
    if hit is None:
        raise VLCError(f"no dct_dc_size code matches at bit {br.pos}")
    size, length = hit
    if size == 0:
        br.skip_bits(length)
        return 0
    br.skip_bits(length + size)
    d = (v >> (24 - length - size)) & ((1 << size) - 1)
    return d if d >= (1 << (size - 1)) else d - (1 << size) + 1


def decode_cbp(br: BitReader) -> int:
    """Table-driven coded_block_pattern (table B.9)."""
    hit = _CBP_LUT[br.peek_bits(_CBP_BITS)]
    if hit is None:
        raise VLCError(f"no coded_block_pattern code matches at bit {br.pos}")
    sym, length = hit
    br.skip_bits(length)
    return sym


def decode_mb_type(br: BitReader, picture_type: int):
    """Table-driven macroblock_type (tables B.2-B.4) for the picture type."""
    lut, width = _MB_TYPE_LUTS[int(picture_type)]
    hit = lut[br.peek_bits(width)]
    if hit is None:
        raise VLCError(f"no macroblock_type code matches at bit {br.pos}")
    sym, length = hit
    br.skip_bits(length)
    return sym


def decode_ac_into(br: BitReader, scan, intra: bool, table_one: bool = False) -> None:
    """Decode a block's AC (run, level) symbols plus EOB straight into ``scan``.

    Equivalent to ``vlc.decode_coefficients`` followed by a run/position
    accumulation — including the non-intra
    first-coefficient short form, the MPEG-2 escape (24 bits, handled
    inline), and the run-overrun :class:`BitstreamError` messages — but
    decodes against a local 256-bit window refilled once per ~29 bytes, so
    the per-symbol cost is a shift, a mask, and one list index.
    """
    lut = _COEFF_LUT_T1 if table_one else _COEFF_LUT_T0
    data = br.data
    pos = br.pos
    win = 0
    wend = -1  # bit index one past the window; forces the first refill
    p = 0 if intra else -1
    first = not intra
    while True:
        if wend - pos < 24:
            base = pos >> 3
            chunk = data[base : base + 32]
            if len(chunk) < 32:
                chunk = chunk + b"\x00" * (32 - len(chunk))
            win = int.from_bytes(chunk, "big")
            wend = (base << 3) + 256
        v = (win >> (wend - pos - COEFF_BITS)) & 0xFFFF
        if first:
            first = False
            if v & 0x8000:
                # Leading '1' at the first coefficient of a non-intra block
                # is always (0, +/-1) with the next bit as sign (§7.2.2).
                p += 1
                scan[p] = -1 if v & 0x4000 else 1
                pos += 2
                continue
        adv, level, length = lut[v]
        if adv > 0:
            pos += length
        elif adv == _EOB_ADV:
            br.pos = pos + length
            return
        elif adv != _ESC_ADV:
            br.pos = pos
            raise VLCError(
                f"no DCT coefficient code matches bits {v:016b} at bit {pos}"
            )
        else:
            # Escape: 6-bit prefix + 6-bit run + 12-bit two's-complement level.
            v = (win >> (wend - pos - 24)) & 0xFFFFFF
            adv = ((v >> 12) & 0x3F) + 1
            level = v & 0xFFF
            if level >= 2048:
                level -= 4096
            if level == 0:
                br.pos = pos
                raise VLCError("escape-coded level of zero")
            pos += 24
        p += adv
        if p > 63:
            br.pos = pos
            raise BitstreamError(
                "AC run overruns block" if intra else "run overruns block"
            )
        scan[p] = level


# ---------------------------------------------------------------------- #
# fused columnar slice parser
# ---------------------------------------------------------------------- #

# macroblock flag bits of the ``flags`` column
MB_INTRA, MB_PATTERN, MB_BACKWARD, MB_FORWARD, MB_QUANT, MB_SKIPPED = 1, 2, 4, 8, 16, 32

#: One coded macroblock's ints in ``ColumnLists.rows``: address, flags,
#: quantiser_scale_code, cbp (one bit per coded block, 63 for intra),
#: bit_start, body_start, bit_end.  No predictors: the parser rebuilds them.
ROW_WIDTH = 7
#: One run of skipped macroblocks in ``ColumnLists.skips``: the coded rows
#: recorded before it (the row index of the macroblock that follows), its
#: first address, its length, the flags its macroblocks reconstruct with
#: (``MB_SKIPPED``, forward in a P-picture, the previous macroblock's
#: directions in a B-picture) and the quantiser_scale_code in force.
SKIP_WIDTH = 5
#: One finished slice in ``ColumnLists.slices``: macroblock row,
#: quantiser_scale_code, coded macroblocks recorded so far.
SLICE_WIDTH = 3

_WIN_BYTES = 40
_WIN_BITS = 8 * _WIN_BYTES
# A macroblock's header (increment after escapes, type, quantiser, four
# motion components of at most 24 bits, cbp) plus one 24-bit peek fits.
_MB_HEADROOM = 160


def _packed_flags(mapping: Dict) -> Dict[int, Tuple[int, int]]:
    """A macroblock_type table keyed by the ``flags`` column's bits."""
    return {
        (q * MB_QUANT + mf * MB_FORWARD + mb * MB_BACKWARD + p * MB_PATTERN + i): code
        for (q, mf, mb, p, i), code in mapping.items()
    }


_MB_FLAG_LUTS = {
    1: _build_sym_lut(_packed_flags(T.MB_TYPE_I)),
    2: _build_sym_lut(_packed_flags(T.MB_TYPE_P)),
    3: _build_sym_lut(_packed_flags(T.MB_TYPE_B)),
}


def _flat_lut(mapping: Dict[int, Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray, int]:
    """:func:`_build_sym_lut` as arrays, for the native walk: over every
    window of the table's width, the symbol it starts with (int16) and the
    length of that symbol's code (uint8, 0 where no code matches); then the
    width."""
    sym = np.fromiter(mapping, dtype=np.int16, count=len(mapping))
    bits, length = np.array(list(mapping.values())).T
    width = int(length.max())
    span = 1 << (width - length)  # the windows each code begins
    within = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
    window = np.repeat(bits * span, span) + within
    symbols = np.zeros(1 << width, dtype=np.int16)
    lengths = np.zeros(1 << width, dtype=np.uint8)
    symbols[window], lengths[window] = np.repeat(sym, span), np.repeat(length, span)
    return symbols, lengths, width


#: The single-symbol tables the slice walk reads, flattened once: address
#: increment (escape included), motion code, coded block pattern, the two
#: DC sizes, and per picture type the macroblock_type as ``flags`` bits.
#: ``repro.mpeg2.native_walk`` hands them to ``_walk.c`` with the stride
#: tables; no table is written out a second time there.
_FLAT_ADDR = _flat_lut({**T.MB_ADDRESS_INCREMENT, _ADDR_ESCAPE: T.MB_ESCAPE_CODE})
_FLAT_MOTION = _flat_lut(T.MOTION_CODE)
_FLAT_CBP = _flat_lut(T.CODED_BLOCK_PATTERN)
_FLAT_DC_LUMA = _flat_lut(T.DCT_DC_SIZE_LUMA)
_FLAT_DC_CHROMA = _flat_lut(T.DCT_DC_SIZE_CHROMA)
_FLAT_MB_FLAGS = {
    1: _flat_lut(_packed_flags(T.MB_TYPE_I)),
    2: _flat_lut(_packed_flags(T.MB_TYPE_P)),
    3: _flat_lut(_packed_flags(T.MB_TYPE_B)),
}
# coded block indices (Y0..Y3, Cb, Cr) for each coded_block_pattern value
_CBP_BLOCKS = tuple(
    tuple(b for b in range(6) if cbp & (1 << (5 - b))) for cbp in range(64)
)
_PAST_END = "skip past end of bitstream"

# An entry of ``ColumnLists.entries`` is a 16-bit window value, or a *direct*
# entry, one symbol spelled out: ``level << 17 | _DIRECT | advance``, with
# ``_DC`` set too on an intra block's DC (advance 1, like the non-intra
# ``1s`` short form: a block's scan position starts at -1).  A DC entry's
# level is the *differential* the stream codes; the parser sums them.  The
# level of an escape or a differential keeps the entry under 2**30, one
# CPython digit, which numpy converts faster.
_LEVEL_SHIFT = 17
_DIRECT_DC = _DIRECT | _DC | 1
_FIRST_PLUS = 1 << _LEVEL_SHIFT | _DIRECT | 1
_FIRST_MINUS = -1 << _LEVEL_SHIFT | _DIRECT | 1
_ESC_PREFIX, _ESC_LEN = T.DCT_ESCAPE_CODE

# Fused tables: the slice loop's common cases as one lookup each.  A table
# is a tuple over every window of its width; an element is ``None`` (the
# window is left to the single-symbol LUTs above, which also own every error
# message) or the tuple the loop unpacks, bits consumed first:
#
# - ``_HEADER[picture_type]``, 12 bits: ``(bits, flags, qcode)`` of a
#   macroblock_address_increment of one, the macroblock_type and, when the
#   type says so, a quantiser_scale_code that is not zero (``qcode`` 0: the
#   type carries none);
# - ``_DC_FUSED_LUMA`` / ``_DC_FUSED_CHROMA``, 14 bits: ``(bits, entry)`` of
#   a dct_dc_size code and its differential, ``entry`` the direct entry
#   itself -- sizes up to 7, the longer ones do not fit the window;
# - ``_motion_table(r_size)``, 12 bits: ``(bits, delta)`` of a motion code
#   and its ``r_size``-bit residual, where both fit.
#
# Each is filled a symbol at a time, like ``_build_coeff_lut``: the windows
# that begin with one symbol are one slice and share one tuple.
_HEADER_BITS = 12
_DC_FUSED_BITS = 14
_MOTION_FUSED_BITS = 12


def _build_header_table(mapping: Dict) -> tuple:
    table: List[Optional[tuple]] = [None] * (1 << _HEADER_BITS)
    for flags, (code, length) in _packed_flags(mapping).items():
        head = 1 << length | code  # the increment's ``1``, then the type
        if not flags & MB_QUANT:
            span = 1 << (_HEADER_BITS - 1 - length)
            table[head * span : (head + 1) * span] = [(1 + length, flags, 0)] * span
            continue
        span = 1 << (_HEADER_BITS - 6 - length)  # behind a five-bit quantiser
        for qcode in range(1, 32):
            first = (head << 5 | qcode) * span
            table[first : first + span] = [(6 + length, flags, qcode)] * span
    return tuple(table)


_HEADER = {
    1: _build_header_table(T.MB_TYPE_I),
    2: _build_header_table(T.MB_TYPE_P),
    3: _build_header_table(T.MB_TYPE_B),
}


def _build_dc_table(mapping: Dict[int, Tuple[int, int]]) -> tuple:
    table: List[Optional[tuple]] = [None] * (1 << _DC_FUSED_BITS)
    for size, (code, length) in mapping.items():
        total = length + size
        if total > _DC_FUSED_BITS:
            continue
        span = 1 << (_DC_FUSED_BITS - total)
        for raw in range(1 << size):
            d = raw if raw >= (1 << size >> 1) else raw - (1 << size) + 1
            first = (code << size | raw) * span
            table[first : first + span] = [(total, d << _LEVEL_SHIFT | _DIRECT_DC)] * span
    return tuple(table)


_DC_FUSED_LUMA = _build_dc_table(T.DCT_DC_SIZE_LUMA)
_DC_FUSED_CHROMA = _build_dc_table(T.DCT_DC_SIZE_CHROMA)
_DC_FUSED = (_DC_FUSED_LUMA,) * 4 + (_DC_FUSED_CHROMA,) * 2  # by block index


@lru_cache(maxsize=None)  # r_size = f_code - 1 and f_code has four bits
def _motion_table(r_size: int) -> tuple:
    """The fused motion table of one ``r_size``; empty for the ``r_size``
    of the forbidden ``f_code`` 0, whose ``ValueError`` the two-step path
    raises."""
    table: List[Optional[tuple]] = [None] * (1 << _MOTION_FUSED_BITS)
    for code, (pattern, length) in T.MOTION_CODE.items() if r_size >= 0 else ():
        bits = r_size if code else 0  # of residual
        total = length + bits
        if total > _MOTION_FUSED_BITS:
            continue
        span = 1 << (_MOTION_FUSED_BITS - total)
        for residual in range(1 << bits):
            a = ((abs(code) - 1) << bits) + residual + 1 if code else 0
            first = (pattern << bits | residual) * span
            table[first : first + span] = [(total, a if code > 0 else -a)] * span
    return tuple(table)


@lru_cache(maxsize=16)
def _motion_slots(f_code: tuple) -> Dict[int, tuple]:
    """For each pair of motion flags, the ``(fused table, r_size)`` of the
    components its vectors code, in stream order (forward x, y, backward
    x, y), under a picture's ``f_code``."""
    slots = tuple((_motion_table(f - 1), f - 1) for direction in f_code for f in direction)
    return {MB_FORWARD: slots[:2], MB_BACKWARD: slots[2:], MB_FORWARD | MB_BACKWARD: slots}


def _window(data: bytes, pos: int, nbits: int) -> Tuple[int, int, int, int]:
    """Load ``_WIN_BYTES`` from the byte holding bit ``pos``.

    Returns ``(win, wend, rem, lim)``: the window as an int (zero-padded
    past the buffer), the bit index one past it, the bits of it still
    unread, and the value ``rem`` must not fall below (``wend - nbits``)
    for a consume to stay inside the buffer.
    """
    base = pos >> 3
    chunk = data[base : base + _WIN_BYTES]
    win = int.from_bytes(chunk, "big") << (8 * (_WIN_BYTES - len(chunk)))
    wend = (base << 3) + _WIN_BITS
    return win, wend, wend - pos, wend - nbits


@dataclass
class ColumnLists:
    """What :func:`parse_slice_columns` appends to: one picture's flat lists.

    The lists hold what the stream *codes*, not what it means: nothing in
    them depends on a predictor.  Every coded macroblock adds ``ROW_WIDTH``
    ints to ``rows`` and every run of skipped macroblocks ``SKIP_WIDTH``
    ints to ``skips``.  ``mvd`` holds the motion vector deltas in stream
    order, two for each direction a macroblock's flags name.  The coded
    blocks' levels go to ``entries``, in stream order and not yet decoded:
    every 16-bit window the run/level loop stopped at, and a direct entry
    for each symbol that is not a table code (an intra DC's differential,
    the non-intra ``1s`` short form, escapes); :func:`expand_entries` turns
    them into columns.  In a picture coded with ``intra_vlc_format`` 1,
    ``t1_spans`` holds ``len(entries)`` at the start and at the end of
    every intra macroblock: the entries read against table one.  The loop
    over the slices adds ``SLICE_WIDTH`` ints to ``slices`` for each one it
    finishes: its macroblock row, its quantiser_scale_code and the coded
    macroblocks recorded once it ended.
    """

    rows: List[int] = field(default_factory=list)
    skips: List[int] = field(default_factory=list)
    mvd: List[int] = field(default_factory=list)
    entries: List[int] = field(default_factory=list)
    t1_spans: List[int] = field(default_factory=list)
    slices: List[int] = field(default_factory=list)

    def freeze(self) -> "ColumnArrays":
        """The lists as arrays: one ``np.fromiter`` each."""

        def frozen(values: List[int], width: int = 1) -> np.ndarray:
            flat = np.fromiter(values, dtype=np.int64, count=len(values))
            return flat.reshape(-1, width) if width > 1 else flat

        return ColumnArrays(
            rows=frozen(self.rows, ROW_WIDTH),
            skips=frozen(self.skips, SKIP_WIDTH),
            mvd=frozen(self.mvd),
            entries=frozen(self.entries),
            t1_spans=frozen(self.t1_spans),
            slices=frozen(self.slices, SLICE_WIDTH),
        )


@dataclass
class ColumnArrays:
    """One picture's slice walk, frozen: :class:`ColumnLists` as int64
    arrays, a record a row.  What the native walk fills directly and the
    only form :func:`expand_entries` and ``parser._columns`` read."""

    rows: np.ndarray  # (coded macroblocks, ROW_WIDTH)
    skips: np.ndarray  # (skipped runs, SKIP_WIDTH)
    mvd: np.ndarray
    entries: np.ndarray
    t1_spans: np.ndarray
    slices: np.ndarray  # (slices, SLICE_WIDTH)


def parse_slice_columns(
    data: bytes,
    pos: int,
    row: int,
    mb_width: int,
    qcode: int,
    picture: PictureHeader,
    out: ColumnLists,
) -> int:
    """Parse one slice's macroblocks from bit ``pos`` straight into ``out``.

    ``pos`` is the first bit after the slice header, ``qcode`` the slice's
    quantiser_scale_code.  The whole macroblock layer is walked inline
    against the tables above — bit cursor, window and quantiser in locals,
    no :class:`BitReader` and no per-macroblock objects — and recorded raw:
    DC differentials, motion deltas and skipped runs as the stream codes
    them, no predictor kept (``parser._columns`` rebuilds those, a picture
    at a time).  ``out`` is the picture's, so slices concatenate.  Returns
    the bit position after the last macroblock.

    Checks, their order and their exceptions are those of the object
    parser (the slice loop over
    :func:`repro.mpeg2.macroblock.parse_macroblock_body` in
    ``tests/oracles.py``), the differential oracle -- but for one: a run
    that overruns its block is found by :func:`expand_entries`, which the
    caller therefore also runs before it lets an error raised here out.
    """
    nbits = 8 * len(data)
    picture_type = picture.picture_type
    rows, entries = out.rows, out.entries
    header = _HEADER[picture_type]
    addr_lut, motion_lut, cbp_lut = _ADDR_LUT, _MOTION_LUT, _CBP_LUT
    addr_mask, cbp_mask = (1 << _ADDR_BITS) - 1, (1 << _CBP_BITS) - 1
    motion_shift = 24 - _MOTION_BITS
    dc_fused = _DC_FUSED
    type_lut, type_bits = _MB_FLAG_LUTS[picture_type]
    type_mask = (1 << type_bits) - 1
    table_one = picture.intra_vlc_format == 1
    stride_intra = _STRIDE_T1 if table_one else _STRIDE_T0
    eob_mark, eob_rem = _STRIDE_EOB, 16 + _STRIDE_EOB
    cbp_blocks, mv_slots = _CBP_BLOCKS, _motion_slots(picture.f_code)
    rows_extend, entries_append, mvd_append = rows.extend, entries.append, out.mvd.append
    skip_flags = MB_SKIPPED | (MB_FORWARD if picture_type == PictureType.P else 0)

    address = row * mb_width - 1  # of the macroblock before
    row_start, row_end = address + 1, (row + 1) * mb_width
    dirs = 0  # until a macroblock sets it, the directions of the one before
    win, wend, rem, lim = _window(data, pos, nbits)

    while True:
        if rem < _MB_HEADROOM:
            win, wend, rem, lim = _window(data, wend - rem, nbits)
        bit_start = wend - rem
        shift = rem - _HEADER_BITS
        hit = header[(win >> shift) & 0xFFF]
        if hit and shift >= lim:
            # -- increment of one, type [, quantiser]: one lookup ------- #
            # (the window lies inside the data, so does what it consumes)
            address += 1
            if address >= row_end:
                raise BitstreamError("macroblock address beyond slice row")
            body_start = bit_start + 1
            length, flags, q = hit
            rem -= length
            if q:
                qcode = q
        else:
            # A macroblock never starts with 23 zero bits; the padding and
            # start-code prefix that end a slice always provide them.
            # (Past the buffer the window reads zero, so running out of data
            # ends the slice the same way.)
            if not (win >> (rem - 23)) & 0x7FFFFF:
                return bit_start

            # -- macroblock_address_increment (section 6.3.16) ---------- #
            increment = 0
            while True:
                hit = addr_lut[(win >> (rem - _ADDR_BITS)) & addr_mask]
                if hit is None:
                    raise VLCError(
                        f"no address-increment code matches at bit {wend - rem}"
                    )
                sym, length = hit
                rem -= length
                if rem < lim:
                    raise BitstreamError(_PAST_END)
                if sym != _ADDR_ESCAPE:
                    increment += sym
                    break
                increment += 33
                if rem < _MB_HEADROOM:
                    win, wend, rem, lim = _window(data, wend - rem, nbits)
            if address + increment >= row_end:
                raise BitstreamError("macroblock address beyond slice row")
            # The macroblocks the increment passes over are skipped (section
            # 7.6.6): one record.  The first increment of a slice only
            # positions it in the row.
            if increment > 1 and address >= row_start:
                out.skips.extend(
                    (len(rows) // ROW_WIDTH, address + 1, increment - 1,
                     skip_flags | dirs, qcode)
                )
            address += increment

            # -- macroblock_type, quantiser_scale_code ------------------ #
            body_start = wend - rem
            hit = type_lut[(win >> (rem - type_bits)) & type_mask]
            if hit is None:
                raise VLCError(f"no macroblock_type code matches at bit {wend - rem}")
            flags, length = hit
            rem -= length
            if rem < lim:
                raise BitstreamError(_PAST_END)
            if flags & MB_QUANT:
                qcode = (win >> (rem - 5)) & 31
                rem -= 5
                if qcode == 0:
                    raise BitstreamError("quantiser_scale_code of zero")

        # -- motion vector deltas (section 7.6.3) ----------------------- #
        dirs = flags & (MB_FORWARD | MB_BACKWARD)
        if dirs:
            for fused, r_size in mv_slots[dirs]:
                hit = fused[(win >> (rem - _MOTION_FUSED_BITS)) & 0xFFF]
                if hit:
                    length, delta = hit
                    rem -= length
                else:
                    v = (win >> (rem - 24)) & 0xFFFFFF
                    hit = motion_lut[v >> motion_shift]
                    if hit is None:
                        raise VLCError(f"no motion code matches at bit {wend - rem}")
                    code, length = hit
                    if code == 0:
                        rem -= length
                        delta = 0
                        if r_size < 0 and rem >= lim:
                            # f_code 0: what the object parser's ``1 << r_size``
                            # says, once it has read the code
                            raise ValueError("negative shift count")
                    else:
                        if r_size:
                            residual = (v >> (24 - length - r_size)) & ((1 << r_size) - 1)
                            rem -= length + r_size
                        else:
                            residual = 0
                            rem -= length
                        delta = ((abs(code) - 1) << r_size) + residual + 1
                        if code < 0:
                            delta = -delta
                if rem < lim:
                    raise BitstreamError(_PAST_END)
                mvd_append(delta)

        # -- blocks: DC differential, then run/level windows to EOB ----- #
        cbp = 0
        if flags & (MB_INTRA | MB_PATTERN):
            intra = flags & MB_INTRA
            if intra:
                cbp = 63
                stride = stride_intra
                if table_one:
                    out.t1_spans.append(len(entries))
            else:
                hit = cbp_lut[(win >> (rem - _CBP_BITS)) & cbp_mask]
                if hit is None:
                    raise VLCError(
                        f"no coded_block_pattern code matches at bit {wend - rem}"
                    )
                cbp, length = hit
                rem -= length
                if rem < lim:
                    raise BitstreamError(_PAST_END)
                stride = _STRIDE_T0
            for b in cbp_blocks[cbp]:
                if rem < 24:
                    win, wend, rem, lim = _window(data, wend - rem, nbits)
                if intra:
                    hit = dc_fused[b][(win >> (rem - _DC_FUSED_BITS)) & 0x3FFF]
                    if hit:
                        length, entry = hit
                    else:
                        # a size the fused window cannot hold, or no code
                        v = (win >> (rem - 24)) & 0xFFFFFF
                        if b < 4:
                            hit = _DC_LUMA_LUT[v >> (24 - _DC_LUMA_BITS)]
                        else:
                            hit = _DC_CHROMA_LUT[v >> (24 - _DC_CHROMA_BITS)]
                        if hit is None:
                            raise VLCError(
                                f"no dct_dc_size code matches at bit {wend - rem}"
                            )
                        size, length = hit
                        length += size
                        d = (v >> (24 - length)) & ((1 << size) - 1)
                        if d < (1 << size >> 1):
                            d -= (1 << size) - 1
                        entry = d << _LEVEL_SHIFT | _DIRECT_DC
                    rem -= length
                    if rem < lim:
                        raise BitstreamError(_PAST_END)
                    entries_append(entry)
                elif (win >> (rem - 1)) & 1:
                    # A leading '1' at the first coefficient of a non-intra
                    # block is (0, +/-1), next bit the sign (section 7.2.2).
                    entries_append(_FIRST_MINUS if (win >> (rem - 2)) & 1 else _FIRST_PLUS)
                    rem -= 2
                # The run/level loop tracks ``shift = rem - 16``, the shift
                # that brings the next 16 bits to the bottom of the window,
                # and moves it by a window's whole symbols at a time.
                shift = rem - 16
                while True:
                    if shift < 8:
                        win, wend, rem, lim = _window(data, wend - shift - 16, nbits)
                        shift = rem - 16
                    w = (win >> shift) & 0xFFFF
                    entries_append(w)
                    bits = stride[w]
                    if bits > eob_mark:
                        rem = shift + eob_rem - bits  # through the EOB code
                        break
                    elif bits:
                        shift -= bits
                    elif w >> (COEFF_BITS - _ESC_LEN) == _ESC_PREFIX:
                        # 6-bit prefix, 6-bit run, 12-bit two's-complement
                        # level; ``w`` itself expands to nothing
                        v = (win >> (shift - 8)) & 0xFFFFFF
                        level = v & 0xFFF
                        if level >= 2048:
                            level -= 4096
                        if level == 0:
                            raise VLCError("escape-coded level of zero")
                        entries_append(
                            level << _LEVEL_SHIFT | _DIRECT | ((v >> 12) & 0x3F) + 1
                        )
                        shift -= 24
                    else:
                        raise VLCError(
                            f"no DCT coefficient code matches bits {w:016b} "
                            f"at bit {wend - shift - 16}"
                        )
            if intra and table_one:
                out.t1_spans.append(len(entries))

        rows_extend((address, flags, qcode, cbp, bit_start, body_start, wend - rem))


def _starts(ends: np.ndarray) -> np.ndarray:
    """Running totals through each item -> the totals before each item."""
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    return starts


def expand_entries(lists: ColumnArrays) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode ``lists.entries``: ``(coef_pos, coef_level, block_ncoef)``.

    ``coef_pos`` is int64 ``block * 64 + scan position`` and ``coef_level``
    int32, one per nonzero level (and per intra DC) in stream order, blocks
    numbered as coded; ``block_ncoef`` is int64, the levels of each block.
    Table gathers give each entry's symbols, a block ends at the entry whose
    window held its EOB, and one running sum of the advances, rebased per
    block, gives the positions.

    Raises the :class:`BitstreamError` of the first block whose run/level
    pairs pass scan position 63 -- the check the slice loop leaves to this
    function.  Entries after the last EOB (the slice loop raised inside a
    block) are checked as one more block.
    """
    e, spans = lists.entries, lists.t1_spans
    row = e & (2 * _DIRECT - 1)  # the window, or a direct entry's table row
    if len(spans):
        edge = np.zeros(len(e) + 1, dtype=np.int8)
        edge[spans[0::2]] += 1
        edge[spans[1::2]] -= 1  # absent for a macroblock the loop raised in
        row += np.cumsum(edge[:-1], dtype=np.int64) * _TABLE_ROWS
    sym_end = np.cumsum(_NSYM[row], dtype=np.int64)  # symbols through each entry
    cells = _SYM.take(row, axis=0).reshape(-1)  # take, compress: the fast spellings
    level_adv = cells.compress(cells != 0).view(np.int8).reshape(-1, 2)
    level = level_adv[:, 0].astype(np.int32)
    direct = np.flatnonzero(e & _DIRECT)
    level[sym_end[direct] - 1] = e[direct] >> _LEVEL_SHIFT
    adv_end = np.cumsum(level_adv[:, 1], dtype=np.int64)  # advances through each symbol

    closing = np.flatnonzero(_EOB[row])  # the last entry of each block
    block_end = sym_end[closing]  # symbols through each block (every block has one)
    if len(level) > (block_end[-1] if len(block_end) else 0):
        block_end = np.append(block_end, len(level))
    block_adv_end = adv_end[block_end - 1]
    block_adv_start = _starts(block_adv_end)
    over = np.flatnonzero(block_adv_end - block_adv_start > 64)
    if len(over):
        first_entry = closing[over[0] - 1] + 1 if over[0] else 0
        intra = e[first_entry] & _DIRECT_DC == _DIRECT_DC  # begins with a DC
        raise BitstreamError("AC run overruns block" if intra else "run overruns block")
    ncoef = block_end - _starts(block_end)
    base = np.arange(-1, 64 * len(ncoef) - 1, 64) - block_adv_start
    return adv_end + np.repeat(base, ncoef), level, ncoef
