"""Differential fuzz: table-driven fast VLC vs. the bit-at-a-time reference.

Every fast decoder in :mod:`repro.mpeg2.fast_vlc` is checked symbol-for-
symbol (and cursor-position-for-cursor-position) against the reference
codecs in :mod:`repro.mpeg2.vlc` over randomized valid bitstreams produced
by the reference *encoders* — including every escape-code shape: address-
increment escapes (single and stacked), the non-intra first-coefficient
short form, both DCT tables' end-of-block codes, and MPEG-2 24-bit escape
coefficients across the level range.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream import BitReader, BitWriter
from repro.mpeg2 import fast_vlc, tables as T, vlc
from repro.mpeg2.decoder import decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.parallel.pipeline import ParallelDecoder
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import moving_pattern_frames
from tests.oracles import object_parse_picture, use_reference_vlc

# Levels that exercise every coding shape: short-form +/-1, in-table codes,
# and escapes at both ends of the 12-bit two's-complement range.
_LEVELS = [1, -1, 2, -3, 5, -8, 31, 40, -40, 127, -127, 255, -255, 2047, -2047]


@st.composite
def coded_blocks(draw):
    """A valid (run, level) list: positions stay inside the 8x8 block."""
    intra = draw(st.booleans())
    table_one = draw(st.booleans()) if intra else False
    pairs = []
    # Intra blocks start at scan position 0 (DC is separate); non-intra
    # coefficients may fill all 64 positions.
    p = 0 if intra else -1
    while True:
        if len(pairs) >= 8 or draw(st.booleans()) and pairs:
            break
        run = draw(st.integers(0, 63))
        if p + run + 1 > 63:
            break
        p += run + 1
        pairs.append((run, draw(st.sampled_from(_LEVELS))))
    return intra, table_one, pairs


def _encode_block(pairs, intra, table_one, lead_bits=0):
    w = BitWriter()
    if lead_bits:
        w.write((1 << lead_bits) - 1, lead_bits)  # unaligned start offset
    vlc.encode_coefficients(w, pairs, intra, table_one)
    w.write(0xAB, 8)  # trailing bytes: the decoder must stop exactly at EOB
    w.write(0xCD, 8)
    return w.getvalue()


def _ref_scan(br, intra, table_one):
    scan = np.zeros(64, dtype=np.int32)
    p = 0 if intra else -1
    for run, level in vlc.decode_coefficients(br, intra, table_one):
        p += run + 1
        scan[p] = level
    return scan


class TestCoefficients:
    @given(coded_blocks(), st.integers(0, 7))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_symbol_for_symbol(self, block, lead_bits):
        intra, table_one, pairs = block
        data = _encode_block(pairs, intra, table_one, lead_bits)

        ref_br = BitReader(data)
        ref_br.skip(lead_bits)
        ref = _ref_scan(ref_br, intra, table_one)

        fast_br = BitReader(data)
        fast_br.skip(lead_bits)
        fast = np.zeros(64, dtype=np.int32)
        fast_vlc.decode_ac_into(fast_br, fast, intra, table_one)

        assert np.array_equal(ref, fast)
        assert ref_br.pos == fast_br.pos  # stopped on the same bit

    @pytest.mark.parametrize("level", [2047, -2047, 256, -256, 41, -41])
    @pytest.mark.parametrize("run", [0, 5, 31, 63])
    def test_escape_shapes(self, run, level):
        """Every escape-coded coefficient decodes identically."""
        if run > 62:
            run = 62  # keep position 63 reachable after run zeros
        data = _encode_block([(run, level)], True, False)
        ref = _ref_scan(BitReader(data), True, False)
        fast = np.zeros(64, dtype=np.int32)
        fast_vlc.decode_ac_into(BitReader(data), fast, True, False)
        assert np.array_equal(ref, fast)

    def test_escape_level_zero_raises(self):
        w = BitWriter()
        bits, length = T.DCT_ESCAPE_CODE
        w.write(bits, length)
        w.write(3, T.ESCAPE_RUN_BITS)
        w.write(0, T.ESCAPE_LEVEL_BITS)  # forbidden
        w.align()
        with pytest.raises(vlc.VLCError):
            fast_vlc.decode_ac_into(
                BitReader(w.getvalue()), np.zeros(64, np.int32), True
            )

    def test_run_overrun_raises(self):
        w = BitWriter()
        bits, length = T.DCT_ESCAPE_CODE
        for _ in range(3):  # 3 x (run 40 + coefficient) overruns 64
            w.write(bits, length)
            w.write(40, T.ESCAPE_RUN_BITS)
            w.write(7, T.ESCAPE_LEVEL_BITS)
        w.align()
        with pytest.raises(Exception):
            fast_vlc.decode_ac_into(
                BitReader(w.getvalue()), np.zeros(64, np.int32), True
            )


class TestScalarCodes:
    @given(st.lists(st.integers(1, 150), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_address_increment(self, increments):
        """Increments beyond 33 use stacked escape codes."""
        w = BitWriter()
        for inc in increments:
            vlc.encode_address_increment(w, inc)
        w.align(fill=1)
        data = w.getvalue()
        ref_br, fast_br = BitReader(data), BitReader(data)
        for inc in increments:
            assert vlc.decode_address_increment(ref_br) == inc
            assert fast_vlc.decode_address_increment(fast_br) == inc
            assert ref_br.pos == fast_br.pos

    @given(
        st.integers(0, 8),
        st.lists(st.integers(-100, 100), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_motion_delta(self, r_size, deltas):
        f = 1 << r_size
        deltas = [max(-16 * f, min(16 * f - 1, d * f // 4)) for d in deltas]
        w = BitWriter()
        for d in deltas:
            vlc.encode_motion_delta(w, d, r_size)
        w.align(fill=1)
        data = w.getvalue()
        ref_br, fast_br = BitReader(data), BitReader(data)
        for d in deltas:
            assert vlc.decode_motion_delta(ref_br, r_size) == d
            assert fast_vlc.decode_motion_delta(fast_br, r_size) == d
            assert ref_br.pos == fast_br.pos

    @given(st.integers(0, 1), st.lists(st.integers(-2047, 2047), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_dc_delta(self, component, diffs):
        table = vlc.DC_SIZE_LUMA if component == 0 else vlc.DC_SIZE_CHROMA
        w = BitWriter()
        for d in diffs:
            size = 0 if d == 0 else abs(d).bit_length()
            table.encode(w, size)
            if size:
                w.write(d if d > 0 else d + (1 << size) - 1, size)
        w.align(fill=1)
        data = w.getvalue()
        ref_br, fast_br = BitReader(data), BitReader(data)
        for d in diffs:
            # reference path: size VLC then the folded differential
            size = table.decode(ref_br)
            if size == 0:
                ref = 0
            else:
                raw = ref_br.read(size)
                ref = raw if raw >= (1 << (size - 1)) else raw - (1 << size) + 1
            assert ref == d
            assert fast_vlc.decode_dc_delta(fast_br, component) == d
            assert ref_br.pos == fast_br.pos

    def test_cbp_and_mb_type_match_reference(self):
        w = BitWriter()
        cbps = sorted(T.CODED_BLOCK_PATTERN)
        for cbp in cbps:
            vlc.CBP.encode(w, cbp)
        w.align(fill=1)
        data = w.getvalue()
        ref_br, fast_br = BitReader(data), BitReader(data)
        for cbp in cbps:
            assert vlc.CBP.decode(ref_br) == cbp
            assert fast_vlc.decode_cbp(fast_br) == cbp
            assert ref_br.pos == fast_br.pos

        for ptype, table in ((1, vlc.MB_TYPE_I), (2, vlc.MB_TYPE_P), (3, vlc.MB_TYPE_B)):
            w = BitWriter()
            syms = list(table.mapping)
            for sym in syms:
                table.encode(w, sym)
            w.align(fill=1)
            data = w.getvalue()
            ref_br, fast_br = BitReader(data), BitReader(data)
            for sym in syms:
                assert table.decode(ref_br) == sym
                assert fast_vlc.decode_mb_type(fast_br, ptype) == sym
                assert ref_br.pos == fast_br.pos


class TestWholeStream:
    """The integrated check: full pictures parse identically both ways."""

    def test_full_stream_parse_matches_reference(self, monkeypatch):
        clip = moving_pattern_frames(128, 96, 8, seed=7)
        stream = Encoder(EncoderConfig(gop_size=4, b_frames=2)).encode(clip)
        sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        use_reference_vlc(monkeypatch)  # reaches the object parser only
        for unit in pictures:
            fast = parser.parse_picture(unit.data)
            ref = object_parse_picture(parser, unit.data)
            assert len(fast.items) == len(ref.items)
            for a, b in zip(fast.items, ref.items):
                assert a.mb.address == b.mb.address
                assert a.mb.bit_end == b.mb.bit_end
                assert a.mb.skipped == b.mb.skipped

    def test_full_stream_decode_bit_identical(self, monkeypatch):
        clip = moving_pattern_frames(128, 96, 6, seed=3)
        stream = Encoder(EncoderConfig(gop_size=3, b_frames=1)).encode(clip)
        fast = decode_stream(stream)
        # The reference decoders reach the object parser only, which the
        # tile decoders run on sub-picture payloads.
        use_reference_vlc(monkeypatch)
        ref = ParallelDecoder(TileLayout(128, 96, 2, 1), k=1).decode(stream)
        assert len(ref) == len(fast)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, fast))


class TestStrideTables:
    """The columnar parser's multi-symbol tables against the single-symbol
    LUTs they were built beside, over every 16-bit window."""

    TABLES = [
        (0, fast_vlc._STRIDE_T0, fast_vlc._COEFF_LUT_T0),
        (1, fast_vlc._STRIDE_T1, fast_vlc._COEFF_LUT_T1),
    ]

    @staticmethod
    def _walk(lut, bits, nbits):
        """Single-symbol lookups over the top ``nbits`` of ``bits`` (zeros
        after them): ``(symbols, bits used, eob)`` of the symbols, and the
        EOB if it follows, whose every bit is among the ``nbits``."""
        symbols, used = [], 0
        while True:
            adv, level, length = lut[(bits << used >> (nbits - 16)) & 0xFFFF]
            if adv < 0 or used + length > nbits:
                return symbols, used, False
            used += length
            if adv == 0:
                return symbols, used, True
            symbols.append((level, adv))

    @pytest.mark.parametrize("table, stride, lut", TABLES)
    def test_every_window_matches_repeated_single_lookups(self, table, stride, lut):
        first = table * fast_vlc._TABLE_ROWS
        pairs = fast_vlc._SYM[first : first + 65536].view(np.int8).reshape(65536, -1, 2)
        assert pairs.shape[1] <= 5 and fast_vlc._SYM.dtype == np.int16
        rows = pairs.tolist()
        nsym = fast_vlc._NSYM[first : first + 65536].tolist()
        eob = fast_vlc._EOB[first : first + 65536].tolist()
        multi = 0
        for w in range(65536):
            symbols, used, closes = self._walk(lut, w, 16)
            assert stride[w] == used + (fast_vlc._STRIDE_EOB if closes else 0), w
            assert used <= 16 < fast_vlc._STRIDE_EOB  # no bit outside the window
            assert (nsym[w], eob[w]) == (len(symbols), closes), w
            assert rows[w][: nsym[w]] == [list(s) for s in symbols], w
            assert all(cell == [0, 0] for cell in rows[w][nsym[w] :]), w
            # zero: the escape prefix or no code, and nothing else
            assert (stride[w] == 0) == (lut[w][0] < 0), w
            multi += len(symbols) > 1
        assert multi > 10000  # the point of the tables

    @pytest.mark.parametrize("table, stride, lut", TABLES)
    def test_a_window_decodes_the_same_whatever_follows_it(self, table, stride, lut):
        """What a window's entry says is what the stream holds: the same
        symbols come out of a 32-bit read that starts with the window."""
        rng = np.random.default_rng(table)
        for w in rng.integers(0, 65536, 4000).tolist():
            for tail in (0, 0xFFFF, int(rng.integers(0, 65536))):
                symbols, _, _ = self._walk(lut, w << 16 | tail, 32)
                own, used, closes = self._walk(lut, w, 16)
                assert symbols[: len(own)] == own
                if not closes and stride[w]:
                    # the next lookup starts exactly where the stride ends
                    rest = (w << 16 | tail) & ((1 << (32 - used)) - 1)
                    more, _, _ = self._walk(lut, rest, 32 - used)
                    assert own + more == symbols

    def test_direct_rows(self):
        """The rows past the windows: one symbol of the row's advance."""
        for first in (0, fast_vlc._TABLE_ROWS):
            for dc in (0, fast_vlc._DC):
                for advance in range(1, 65):
                    row = first + (fast_vlc._DIRECT | dc | advance)
                    assert fast_vlc._NSYM[row] == 1 and not fast_vlc._EOB[row]
                    cell = fast_vlc._SYM[row].view(np.int8).reshape(-1, 2).tolist()
                    assert cell == [[0, advance]] + [[0, 0]] * 4


class TestFusedTables:
    """The slice loop's one-lookup tables against the single-symbol LUTs
    its two-step paths read: over every window, the same symbols and the
    same bit count, or no entry -- exactly where the fused read would leave
    the window, or the quantiser code is zero."""

    @staticmethod
    def _symbol(lut, lut_bits, window, width, used):
        """``(symbol, bits used after it)`` of the code at bit ``used`` of a
        ``width``-bit ``window``, or ``None``: no code, or not all inside."""
        rest = (window << used) & ((1 << width) - 1)
        hit = lut[rest << lut_bits >> width]  # zeros past the window
        if hit is None or used + hit[1] > width:
            return None
        return hit[0], used + hit[1]

    @pytest.mark.parametrize("picture_type", [1, 2, 3])
    def test_every_header_window(self, picture_type):
        table = fast_vlc._HEADER[picture_type]
        type_lut, type_bits = fast_vlc._MB_FLAG_LUTS[picture_type]
        width = fast_vlc._HEADER_BITS
        assert len(table) == 1 << width <= 16384
        seen = set()
        for w in range(1 << width):
            expected = None
            increment = self._symbol(fast_vlc._ADDR_LUT, fast_vlc._ADDR_BITS, w, width, 0)
            if increment is not None and increment[0] == 1:
                mb_type = self._symbol(type_lut, type_bits, w, width, increment[1])
                if mb_type is not None:
                    flags, used = mb_type
                    qcode = 0
                    if flags & fast_vlc.MB_QUANT:
                        used += 5
                        qcode = (w >> (width - used)) & 31 if used <= width else 0
                    if used <= width and (qcode or not flags & fast_vlc.MB_QUANT):
                        expected = (used, flags, qcode)
            assert table[w] == expected, w
            if expected:
                seen.add(expected[1:])
        # every type of the picture, and every quantiser code but zero
        assert {f for f, _ in seen} == {h[0] for h in type_lut if h is not None}
        assert {q for _, q in seen} == set(range(32))

    @pytest.mark.parametrize(
        "table, lut, lut_bits",
        [
            (fast_vlc._DC_FUSED_LUMA, fast_vlc._DC_LUMA_LUT, fast_vlc._DC_LUMA_BITS),
            (fast_vlc._DC_FUSED_CHROMA, fast_vlc._DC_CHROMA_LUT, fast_vlc._DC_CHROMA_BITS),
        ],
    )
    def test_every_dc_window(self, table, lut, lut_bits):
        width = fast_vlc._DC_FUSED_BITS
        assert len(table) == 1 << width <= 16384
        sizes = set()
        for w in range(1 << width):
            expected = None
            code = self._symbol(lut, lut_bits, w, width, 0)
            if code is not None and code[0] + code[1] <= width:
                size, used = code[0], code[0] + code[1]
                d = (w >> (width - used)) & ((1 << size) - 1)
                if size and d < 1 << (size - 1):
                    d -= (1 << size) - 1
                expected = (used, d << 17 | 1 << 16 | 1 << 7 | 1)
                sizes.add(size)
            assert table[w] == expected, w
        assert sizes == set(range(8))  # the longer ones take two steps
        assert fast_vlc._DC_FUSED == (fast_vlc._DC_FUSED_LUMA,) * 4 + (fast_vlc._DC_FUSED_CHROMA,) * 2

    @pytest.mark.parametrize("r_size", range(9))
    def test_every_motion_window(self, r_size):
        table = fast_vlc._motion_table(r_size)
        width = fast_vlc._MOTION_FUSED_BITS
        assert len(table) == 1 << width <= 16384
        deltas = set()
        for w in range(1 << width):
            expected = None
            code = self._symbol(fast_vlc._MOTION_LUT, fast_vlc._MOTION_BITS, w, width, 0)
            if code is not None and code[0] == 0:
                expected = (code[1], 0)
            elif code is not None and code[1] + r_size <= width:
                used = code[1] + r_size
                residual = (w >> (width - used)) & ((1 << r_size) - 1)
                a = ((abs(code[0]) - 1) << r_size) + residual + 1
                expected = (used, a if code[0] > 0 else -a)
            assert table[w] == expected, w
            if expected:
                deltas.add(expected[1])
                # and the two-step decoder reads the same from the same bits
                br = BitReader((w << 20).to_bytes(4, "big"))
                assert fast_vlc.decode_motion_delta(br, r_size) == expected[1]
                assert br.pos == expected[0]
        f = 1 << r_size
        assert deltas >= set(range(-f, f + 1))
        if r_size <= 1:
            assert deltas == set(range(-16 * f, 16 * f + 1))

    def test_f_code_zero_has_no_fused_motion(self):
        """Its ``ValueError`` is the two-step path's to raise."""
        assert set(fast_vlc._motion_table(-1)) == {None}
