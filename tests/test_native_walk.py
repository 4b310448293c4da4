"""The native slice walk (``_walk.c`` through ``native_walk``): memory
safety, parity with the Python loop at the level of the records, and the
loader's three outcomes.

The parser suites hold both engines to the object parser
(``tests/test_columnar_parse.py`` on the kernel, ``tests/
test_python_engine.py`` on the loop).  Here the kernel is called directly,
with every output buffer followed by guard words and the picture unit
inside a larger buffer that is poisoned after its last byte, and compared
with ``parser._walk_python`` record for record: the same arrays and the same
exception (class and text), on an error too, up to where it struck.
"""

import os
import random
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2 import fast_vlc, native_walk, parser as parser_module, tables as T, vlc
from repro.mpeg2.constants import PICTURE_START_CODE, PictureType
from repro.mpeg2.parser import PictureScanner
from repro.mpeg2.structures import PictureHeader
from tests.test_columnar_parse import _FLAT, _GOLDEN_STREAM, HandPicture

needs_kernel = pytest.mark.skipif(
    native_walk.LIBRARY is None, reason=f"no native walk: {native_walk.STATUS}"
)

_GUARD = 0x5AA5_5AA5_5AA5_5AA5
_GUARD_WORDS = 8
# what a read past the end would find: a slice start code, then ones
_POISON = (b"\x00\x00\x01\x01" + b"\xff" * 4) * 8
_FIELDS = ("rows", "skips", "mvd", "entries", "t1_spans", "slices")


def guarded_walk(data, pos, header, mb_width, mb_height):
    """``native_walk.walk_picture`` with guard words past every output
    buffer and poison past the input; returns its result and the share of
    each buffer it used."""
    real_buffers = native_walk._buffers
    whole = []

    def buffers(nbits):
        views = []
        for real in real_buffers(nbits):
            padded = np.full(len(real) + _GUARD_WORDS, _GUARD, dtype=np.int64)
            whole.append(padded)
            views.append(padded[: len(real)])
        return views

    housing = bytearray(data + _POISON)
    native_walk._buffers = buffers
    try:
        lists, error = native_walk.walk_picture(
            memoryview(housing)[: len(data)], pos, header, mb_width, mb_height
        )
    finally:
        native_walk._buffers = real_buffers
    assert bytes(housing) == data + _POISON
    used = {}
    for name, padded in zip(_FIELDS, whole):
        assert (padded[-_GUARD_WORDS:] == _GUARD).all(), f"{name}: wrote past its capacity"
        capacity = len(padded) - _GUARD_WORDS
        assert getattr(lists, name).size <= capacity
        used[name] = getattr(lists, name).size / capacity
    return lists, error, used


def assert_same_walk(data, mb_width, mb_height):
    """Both walks on one picture unit, from where its headers end (a unit
    whose headers do not parse reaches neither).  Returns the exception's
    class, or ``None``, and the kernel's buffer use."""
    br = BitReader(data)
    try:
        if br.next_start_code() != PICTURE_START_CODE:
            return None, None
        header = PictureHeader.parse(br)
    except (BitstreamError, ValueError):
        return None, None
    want, want_error = parser_module._walk_python(br.data, br.pos, header, mb_width, mb_height)
    got, got_error, used = guarded_walk(br.data, br.pos, header, mb_width, mb_height)
    assert type(got_error) is type(want_error) and str(got_error) == str(want_error)
    for name in _FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    return type(want_error) if want_error else None, used


def _two_hand_pictures():
    """An intra picture with table-one macroblocks, escapes and a long DC
    size; a B-picture with skipped runs, an increment escape, both
    directions, quantiser changes and patterns."""
    intra = HandPicture(64, 32, PictureType.I, intra_vlc_format=1, intra_dc_precision=10)
    intra.slice(0)
    intra.intra_mb([(700, [(0, 3), (5, -2047), (2, 1)], True)] + [_FLAT] * 5)
    intra.mb(dc=[-2047, 1, 0, -1, 300, -300], quant=7)
    intra.slice(1, qcode=9)
    intra.mb(increment=3, dc=[0] * 6)
    intra.intra_mb([(1, [(63 - 1, 1)], True)] * 6)
    inter = HandPicture(16 * 40, 32, PictureType.B, f_code=((2, 3), (1, 4)))
    inter.slice(0)
    inter.mb(fwd=(4, -2), bwd=(0, 1), cbp=63)
    inter.mb(increment=36, bwd=(-1, 0), cbp=5, quant=3)
    inter.mb(fwd=(0, 0))
    inter.mb(increment=2, fwd=(-7, 7), bwd=(1, -1))
    inter.slice(1)
    inter.mb(increment=39, dc=[5, 0, 0, 0, -5, 1])
    inter.mb(fwd=(1, 1), cbp=32)
    return [(p.data(), p.sequence.width // 16, p.sequence.height // 16) for p in (intra, inter)]


@needs_kernel
def test_every_truncation_of_two_hand_built_pictures():
    raised = set()
    for data, mb_width, mb_height in _two_hand_pictures():
        assert assert_same_walk(data, mb_width, mb_height)[0] is None
        for cut in range(len(data)):
            raised.add(assert_same_walk(data[:cut], mb_width, mb_height)[0])
    assert {cls.__name__ for cls in raised if cls} >= {"BitstreamError", "VLCError"}


@needs_kernel
def test_three_thousand_bit_flips():
    rng = random.Random(20261003)
    raised = {}
    pictures = _two_hand_pictures()
    sequence, units = PictureScanner(_GOLDEN_STREAM).scan()
    pictures += [(u.data, sequence.width // 16, sequence.height // 16) for u in units]
    for _ in range(3000):
        data, mb_width, mb_height = rng.choice(pictures)
        damaged = bytearray(data)
        bit = rng.randrange(8 * len(data))
        damaged[bit >> 3] ^= 0x80 >> (bit & 7)
        cls, _ = assert_same_walk(bytes(damaged), mb_width, mb_height)
        raised[cls] = raised.get(cls, 0) + 1
    names = {cls.__name__ for cls in raised if cls}
    assert names >= {"BitstreamError", "VLCError", "ValueError"}, raised
    assert raised.get(None, 0) > 0


@st.composite
def mutated_pictures(draw):
    """A picture unit with a few bytes overwritten, a span deleted or a
    span repeated: damage that shifts everything after it."""
    data, mb_width, mb_height = draw(st.sampled_from(_MUTATION_SEEDS))
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["set", "cut", "repeat"]))
        if kind == "set":
            data[at] = draw(st.integers(0, 255))
        elif kind == "cut":
            del data[at : at + draw(st.integers(1, 6))]
        else:
            data[at:at] = data[at : at + draw(st.integers(1, 40))]
        if not data:
            break
    return bytes(data), mb_width, mb_height


_MUTATION_SEEDS = _two_hand_pictures()


@needs_kernel
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_pictures())
def test_byte_mutations(case):
    assert_same_walk(*case)


def _write_shortest_blocks(hand, n_blocks):
    """``n_blocks`` non-intra blocks of ``1s`` then EOB: two entries in
    four bits, the densest the entries column gets."""
    for k in range(n_blocks):
        hand.bw.write(0b1010 | (k & 1) << 2, 4)


@needs_kernel
def test_the_most_records_a_bit_can_buy_fit_the_buffers():
    """The buffers are sized from the unit's bit length.  A unit made of
    the cheapest records -- hundreds of one-macroblock slices, all on row
    0; the shortest macroblocks of tables B.3 and B.4; blocks of one short
    code; escapes back to back -- must still fit, with the Python loop's
    records, and no ``RuntimeError`` for a full buffer."""
    cheapest = {}
    # one-macroblock slices on row 0, each "MC, not coded" with zero deltas
    hand = HandPicture(16, 16, PictureType.P, f_code=((1, 1), (15, 15)))
    for _ in range(300):
        hand.slice(0)
        hand.mb(fwd=(0, 0))
    cheapest["slices"] = hand
    # the row 0 slice again and again, full of the shortest macroblocks:
    # B "interpolated, not coded" is seven bits for a row and four deltas
    hand = HandPicture(16 * 120, 16, PictureType.B, f_code=((1, 1), (1, 1)))
    for _ in range(8):
        hand.slice(0)
        for _ in range(120):
            hand.mb(fwd=(0, 0), bwd=(0, 0))
    cheapest["mvd"] = hand
    # every other macroblock skipped
    hand = HandPicture(16 * 120, 16, PictureType.P, f_code=((1, 1), (15, 15)))
    for _ in range(8):
        hand.slice(0)
        hand.mb(fwd=(0, 0))
        for _ in range(59):
            hand.mb(increment=2, fwd=(0, 0))
    cheapest["skips"] = hand
    # all six blocks coded, each the two-entry, four-bit block
    hand = HandPicture(16 * 120, 16, PictureType.P, f_code=((1, 1), (15, 15)))
    hand.slice(0)
    for _ in range(120):
        vlc.encode_address_increment(hand.bw, 1)
        vlc.mb_type_table(PictureType.P).encode(hand.bw, (0, 0, 0, 1, 0))
        vlc.CBP.encode(hand.bw, 63)
        _write_shortest_blocks(hand, 6)
    cheapest["entries"] = hand
    # table-one intra macroblocks of flat blocks: two span marks each
    hand = HandPicture(16 * 120, 16, PictureType.I, intra_vlc_format=1)
    hand.slice(0)
    for _ in range(120):
        hand.mb(dc=[0] * 6)
    cheapest["t1_spans"] = hand
    # escapes back to back, to the end of a block
    hand = HandPicture(16, 16, PictureType.I)
    hand.slice(0)
    hand.intra_mb([(0, [(0, 2047 - k) for k in range(62)], True)] + [_FLAT] * 5)
    cheapest["escapes"] = hand

    most = dict.fromkeys(_FIELDS, 0.0)
    for name, hand in cheapest.items():
        data = hand.data()
        cls, used = assert_same_walk(data, hand.sequence.width // 16, 1)
        assert cls is None, name
        most = {field: max(most[field], used[field]) for field in _FIELDS}
    # every column was pressed, none was filled (span marks ride on the
    # macroblock bound: an intra macroblock is far more than four bits)
    assert all(0.4 < most[field] < 1.0 for field in _FIELDS if field != "t1_spans"), most
    assert 0.05 < most["t1_spans"] < 1.0


@needs_kernel
@pytest.mark.parametrize("f_code", [0, 15])
def test_an_f_code_no_vector_can_use_is_the_python_loops_value_error(f_code):
    """``f_code`` 0 makes ``r_size`` -1 and 15 with a long motion code asks
    for more than the 24-bit peek: Python answers either shift with
    ``ValueError("negative shift count")``, so the kernel does."""
    seen = set()
    for motion_bits, n in ((0b1, 1), (0b010, 3), (0b00000011001, 11)):
        hand = HandPicture(32, 16, PictureType.P, f_code=((f_code, f_code), (15, 15)))
        hand.slice(0)
        vlc.encode_address_increment(hand.bw, 1)
        vlc.mb_type_table(PictureType.P).encode(hand.bw, (0, 1, 0, 0, 0))
        hand.bw.write(motion_bits, n)
        hand.bw.write(0xFFFFFF, 24)
        data = hand.data()
        for cut in (len(data), len(data) - 4, len(data) - 7):
            seen.add(assert_same_walk(data[:cut], 2, 1)[0])
    assert ValueError in seen


@needs_kernel
def test_whole_pictures_give_the_same_records_on_both_engines():
    sequence, units = PictureScanner(_GOLDEN_STREAM).scan()
    for unit in units:
        cls, used = assert_same_walk(unit.data, sequence.width // 16, sequence.height // 16)
        assert cls is None and 0 < used["entries"] < 1


def test_the_flat_tables_are_the_single_symbol_luts():
    """``_walk.c`` restates no table: it reads these arrays, and they say
    what the lists the Python loop indexes say."""
    for flat, (lut, width) in (
        (fast_vlc._FLAT_ADDR, (fast_vlc._ADDR_LUT, fast_vlc._ADDR_BITS)),
        (fast_vlc._FLAT_MOTION, (fast_vlc._MOTION_LUT, fast_vlc._MOTION_BITS)),
        (fast_vlc._FLAT_CBP, (fast_vlc._CBP_LUT, fast_vlc._CBP_BITS)),
        (fast_vlc._FLAT_DC_LUMA, (fast_vlc._DC_LUMA_LUT, fast_vlc._DC_LUMA_BITS)),
        (fast_vlc._FLAT_DC_CHROMA, (fast_vlc._DC_CHROMA_LUT, fast_vlc._DC_CHROMA_BITS)),
        *((fast_vlc._FLAT_MB_FLAGS[t], fast_vlc._MB_FLAG_LUTS[t]) for t in (1, 2, 3)),
    ):
        symbols, lengths, flat_width = flat
        assert flat_width == width and len(symbols) == len(lengths) == len(lut) == 1 << width
        assert (symbols.dtype, lengths.dtype) == (np.int16, np.uint8)
        assert [(s, n) if n else None for s, n in zip(symbols.tolist(), lengths.tolist())] == lut
    assert (fast_vlc._ESC_PREFIX, fast_vlc._ESC_LEN) == T.DCT_ESCAPE_CODE


# ---------------------------------------------------------------------- #
# the loader: cached, compiled, or absent with a reason -- never raised
# ---------------------------------------------------------------------- #


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A copy of ``_walk.c`` in an empty directory: a cold cache."""
    source = tmp_path / "_walk.c"
    shutil.copy(native_walk._SOURCE, source)
    monkeypatch.setattr(native_walk, "_SOURCE", str(source))
    return tmp_path


@needs_kernel
def test_a_cold_cache_compiles_once_and_a_warm_one_not_at_all(checkout, monkeypatch):
    library, path = native_walk._load()
    assert library is not None and hasattr(library, "walk_picture")
    built = sorted(p.name for p in checkout.iterdir())
    assert built == ["_walk-" + path.rsplit("_walk-", 1)[1], "_walk.c"]  # no scratch left
    monkeypatch.setenv("CC", "false")  # a compiler that would fail is not asked
    again, same_path = native_walk._load()
    assert again is not None and same_path == path
    # the name carries the source: an edit is a miss
    (checkout / "_walk.c").write_text((checkout / "_walk.c").read_text() + "\n/* edited */\n")
    assert native_walk._load() == (None, "compile failed: false exited 1")


def test_a_failing_compiler_is_reported_on_stderr_and_not_raised(checkout, monkeypatch, capfd):
    monkeypatch.setenv("CC", "false")
    assert native_walk._load() == (None, "compile failed: false exited 1")
    assert "failed; parsing in Python" in capfd.readouterr().err
    assert [p.name for p in checkout.iterdir()] == ["_walk.c"]


def test_no_compiler_is_a_quiet_reason(checkout, monkeypatch, capfd):
    monkeypatch.setenv("CC", str(checkout / "no-such-compiler"))
    assert native_walk._load() == (None, "no compiler")
    assert capfd.readouterr().err == ""


@needs_kernel
def test_a_read_only_package_directory_builds_in_a_temporary_one(checkout, monkeypatch):
    monkeypatch.setattr(native_walk.os, "access", lambda path, mode: False)
    library, path = native_walk._load()
    assert library is not None and hasattr(library, "walk_picture")
    assert not path.startswith(str(checkout))
    assert [p.name for p in checkout.iterdir()] == ["_walk.c"]
    assert not os.path.exists(os.path.dirname(path))  # mapped, then removed


def test_the_engine_names_itself():
    text = native_walk.engine()
    if native_walk.LIBRARY is not None:
        assert text == f"native ({native_walk.STATUS})" and text.endswith(".so)")
    else:
        assert text.startswith("python (") and native_walk.STATUS in text
    chosen = parser_module._walk_picture
    assert chosen is (
        native_walk.walk_picture if native_walk.LIBRARY is not None else parser_module._walk_python
    )
