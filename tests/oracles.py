"""Differential oracles: the macroblock-at-a-time paths the runtime left.

The runtime parses every full picture with the fused columnar parser
(``fast_vlc.parse_slice_columns``), builds plans from its columns with
numpy and executes them batched.  The paths below are what those replaced,
kept here — out of ``src/`` — as the references the differential tests
compare against:

- :func:`reference_decode`: a whole stream by the object parser and
  :func:`repro.mpeg2.reconstruct.reconstruct_macroblock` (the encoder's
  local reconstruction), one macroblock at a time, with the anchor/B
  reorder written out — what every decoder's frames must equal;
- :func:`use_reference_vlc`: the bit-at-a-time :mod:`repro.mpeg2.vlc`
  decoders put under the object parser in place of the ``fast_vlc`` LUT
  decoders it calls;
- :func:`use_parse_engine`: one of the two parse engines -- the native
  kernels (slice walk and columns, one foreign call) or the Python loop and
  numpy body they are ports of -- put under
  ``MacroblockParser.parse_picture`` by name, whichever the process would
  have chosen for itself;
- :func:`use_plan_engine`: likewise one of the two plan engines -- the
  native kernel or numpy's ``assemble_plan`` + ``_check_vectors`` -- put
  under ``plan_from_columns``, ``plan_of_rows``, ``check_staging`` and
  ``check_plan``;
- :func:`use_execute_engine`: likewise one of the two execute phases -- the
  native kernel (one foreign call per picture) or the numpy body it is a
  port of -- put under ``batch_reconstruct.execute_plan`` by name, with the
  same engine's transform under ``dct.idct``;
- :func:`chen_wang_idct`: the integer IDCT ``dct.idct`` defines, one block
  in plain Python, transcribed from the MSSG reference decoder and not
  through ``dct.py``;
- :func:`object_parse_picture`: the slice loop over
  :func:`repro.mpeg2.macroblock.parse_macroblock_body` (which the tile
  decoders still run on sub-picture payloads), one ``Macroblock`` +
  ``ParsedMB`` per macroblock and a ``CodingState.snapshot()`` each unless
  ``lean``;
- :func:`compile_plans_reference`: per-tile :class:`PlanBuilder` staging
  and scalar MEI pre-calculation, a macroblock at a time;
- :func:`dense_scans`: a plan's sparse coefficient columns inflated to the
  ``(n_blocks, 64)`` level stack plans used to carry, so two plans that
  list the same levels differently (``PlanBuilder`` drops every zero, the
  columnar path keeps an intra block's DC entry even when it is zero)
  compare equal — :func:`assert_same_plan` is that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2 import (
    batch_reconstruct,
    dct,
    fast_vlc,
    native_columns,
    native_execute,
    native_walk,
    parser as parser_module,
    plan as plan_module,
    plan_codec,
    vlc,
)
from repro.mpeg2.constants import (
    PICTURE_START_CODE,
    PictureType,
    is_slice_start_code,
)
from repro.mpeg2.frames import Frame
from repro.mpeg2.macroblock import CodingState, make_skipped, parse_macroblock_body
from repro.mpeg2.parser import MacroblockParser, ParsedMB, PictureScanner
from repro.mpeg2.plan import PlanBuilder, QuantMatrices, ReconstructionPlan
from repro.mpeg2.reconstruct import reconstruct_macroblock
from repro.mpeg2.plan_codec import TilePlan
from repro.mpeg2.structures import PictureHeader
from repro.parallel.mb_splitter import MacroblockSplitter, PlanSplitResult
from repro.mpeg2.motion import Rect, chroma_reference_rect, reference_rect
from repro.parallel.mei import BWD, FWD, BlockXfer, MEIBatch

# A macroblock never starts with 23 zero bits, while the zero padding +
# start-code prefix that ends a slice always provides them.
_EOS_BITS = 23


@dataclass
class ObjectParsedPicture:
    """What ``parse_picture`` returned before the columns: a list of objects."""

    header: PictureHeader
    data: bytes
    mb_width: int
    mb_height: int
    items: List[ParsedMB] = field(default_factory=list)  # stream order
    n_skipped: int = 0

    @property
    def n_coded(self) -> int:
        return len(self.items) - self.n_skipped


def object_parse_picture(
    parser: MacroblockParser, data: bytes, lean: bool = False
) -> ObjectParsedPicture:
    """VLC-parse one coded picture into per-macroblock objects."""
    br = BitReader(data)
    if br.next_start_code() != PICTURE_START_CODE:
        raise BitstreamError("picture unit does not start with picture code")
    header = PictureHeader.parse(br)
    parsed = ObjectParsedPicture(header, data, parser.mb_width, parser.mb_height)
    slice_index = 0
    while True:
        code = br.peek_start_code()
        if code is None or not is_slice_start_code(code):
            return parsed
        br.next_start_code()
        _parse_slice(parser, br, code - 1, parsed, slice_index, lean)
        slice_index += 1


def _parse_slice(parser, br, row, parsed, slice_index, lean) -> None:
    if row >= parser.mb_height:
        raise BitstreamError(f"slice row {row} beyond picture height")
    qcode = br.read(5)
    if qcode == 0:
        raise BitstreamError("slice quantiser_scale_code of zero")
    if br.read(1):
        raise BitstreamError("extra_information_slice unsupported")
    state = CodingState(picture=parsed.header, qscale_code=qcode)
    prev_addr = row * parser.mb_width - 1
    first_in_slice = True
    while br.bits_left() > 0 and br.peek(_EOS_BITS) != 0:
        bit_start = br.pos
        increment = fast_vlc.decode_address_increment(br)
        address = prev_addr + increment
        if address >= (row + 1) * parser.mb_width:
            raise BitstreamError("macroblock address beyond slice row")
        # Skipped macroblocks covered by the increment mutate the predictor
        # state *before* the coded macroblock's body parse (§7.6.3.4).  The
        # first increment of a slice only positions it in the row (§6.3.16).
        skip_from = address if first_in_slice else prev_addr + 1
        first_in_slice = False
        for skip_addr in range(skip_from, address):
            snap = None if lean else state.snapshot()
            parsed.items.append(
                ParsedMB(make_skipped(skip_addr, state), snap, row, slice_index)
            )
            parsed.n_skipped += 1
        snap = None if lean else state.snapshot()
        mb = parse_macroblock_body(br, state)
        mb.bit_start = bit_start
        mb.address = address
        parsed.items.append(ParsedMB(mb, snap, row, slice_index))
        prev_addr = address


def reference_decode(stream: bytes) -> List[Frame]:
    """Display-order frames of ``stream``, a macroblock at a time."""
    sequence, pictures = PictureScanner(stream).scan()
    parser = MacroblockParser(sequence)
    matrices = QuantMatrices.from_sequence(sequence)
    out: List[Frame] = []
    held = prev = None  # newest anchor (not yet displayed), the one before
    for unit in pictures:
        parsed = object_parse_picture(parser, unit.data, lean=True)
        ptype = parsed.header.picture_type
        if ptype == PictureType.B:
            fwd, bwd = prev, held
        else:
            fwd, bwd = (held if ptype == PictureType.P else None), None
        frame = Frame.blank(sequence.width, sequence.height)
        for item in parsed.items:
            reconstruct_macroblock(
                item.mb, ptype, frame, fwd, bwd, parsed.mb_width, matrices,
                parsed.header.dc_scaler,
            )
        if ptype == PictureType.B:
            out.append(frame)
        else:
            if held is not None:
                out.append(held)
            prev, held = held, frame
    if held is not None:
        out.append(held)
    return out


def _reference_dc_delta(br: BitReader, component: int) -> int:
    size = (vlc.DC_SIZE_LUMA if component == 0 else vlc.DC_SIZE_CHROMA).decode(br)
    if size == 0:
        return 0
    v = br.read(size)
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


def _reference_ac_into(br: BitReader, scan, intra: bool, table_one: bool = False) -> None:
    pos = 0 if intra else -1
    for run, level in vlc.decode_coefficients(br, intra, table_one):
        pos += run + 1
        if pos > 63:
            raise BitstreamError("AC run overruns block" if intra else "run overruns block")
        scan[pos] = level


def use_reference_vlc(monkeypatch) -> None:
    """Until ``monkeypatch`` is undone, the object parser (``macroblock.py``,
    ``TileDecoder._parse_run``, :func:`object_parse_picture`) decodes every
    symbol with :mod:`repro.mpeg2.vlc`, a bit at a time.  The columnar
    parser has the LUTs inline and is not reached."""
    for name, reference in (
        ("decode_address_increment", vlc.decode_address_increment),
        ("decode_motion_delta", vlc.decode_motion_delta),
        ("decode_dc_delta", _reference_dc_delta),
        ("decode_cbp", vlc.CBP.decode),
        ("decode_mb_type", lambda br, ptype: vlc.mb_type_table(ptype).decode(br)),
        ("decode_ac_into", _reference_ac_into),
    ):
        monkeypatch.setattr(fast_vlc, name, reference)


def use_parse_engine(name: str, monkeypatch) -> None:
    """Until ``monkeypatch`` is undone, ``parse_picture`` parses with the
    ``"native"`` kernels -- ``_walk.c`` and ``_columns.c`` chained in one
    foreign call -- or with the ``"python"`` engine, ``_walk_python`` then
    numpy's ``expand_entries`` + ``_columns``.  ``src/`` has no such switch
    (it uses the libraries when they loaded); a test names its engine so
    that both are exercised where either could serve.  Skips the test when
    it asks for kernels this platform could not build."""
    if name == "python":
        monkeypatch.setattr(parser_module, "_walk_picture", parser_module._walk_python)
        monkeypatch.setattr(parser_module, "_parse", parser_module._parse_python)
        return
    for module in (native_walk, native_columns):
        if module.LIBRARY is None:
            pytest.skip(f"no {module.__name__}: {module.STATUS}")
    monkeypatch.setattr(parser_module, "_walk_picture", native_walk.walk_picture)
    monkeypatch.setattr(parser_module, "_parse", parser_module._parse_native)


def use_plan_engine(name: str, monkeypatch) -> None:
    """Until ``monkeypatch`` is undone, plans are checked and assembled by
    the ``"native"`` kernel (``_columns.c``) or by the ``"python"`` (numpy)
    bodies, ``check_staging`` + ``assemble_plan`` over ``_check_vectors``,
    in the manner of :func:`use_parse_engine`."""
    if name == "python":
        build, check = plan_module._build_numpy, plan_module._check_vectors
    elif native_columns.LIBRARY is None:
        pytest.skip(f"no native columns: {native_columns.STATUS}")
    else:
        build, check = plan_module._build_native, plan_module._check_native
    monkeypatch.setattr(plan_module, "_build", build)
    monkeypatch.setattr(plan_module, "_check", check)


def use_execute_engine(name: str, monkeypatch) -> None:
    """Until ``monkeypatch`` is undone, ``execute_plan`` reconstructs through
    the ``"native"`` kernel or the ``"python"`` (numpy) body, and ``dct.idct``
    (the numpy body's, the encoder's and :func:`reference_decode`'s
    transform) transforms through the same engine, in the manner of
    :func:`use_parse_engine`: ``src/`` has no such switch, and a test that
    asks for a kernel this platform could not build is skipped."""
    if name == "python":
        execute, transform = batch_reconstruct._execute_numpy, dct._idct_numpy
    elif native_execute.LIBRARY is None:
        pytest.skip(f"no native execute: {native_execute.STATUS}")
    else:
        execute, transform = batch_reconstruct._execute_native, native_execute.idct
    monkeypatch.setattr(batch_reconstruct, "_execute", execute)
    monkeypatch.setattr(dct, "_transform", transform)


# W_k = 2048 sqrt(2) cos(k pi / 16), rounded: the MSSG decoder's idct.c
_W1, _W2, _W3, _W5, _W6, _W7 = 2841, 2676, 2408, 1609, 1108, 565


def chen_wang_idct(block) -> List[int]:
    """The 64 samples (raster order) of one block of 64 integer
    coefficients (raster order): MSSG ``Fast_IDCT`` -- ``idctrow`` over the
    rows, ``idctcol`` over the columns, the column outputs clipped to
    [-256, 255] -- statement for statement, in Python's unbounded integers
    (so nothing wraps where C's 32-bit ``int`` would) and without the two
    shortcuts, which give what the stages give."""
    blk = [int(v) for v in block]
    for r in range(0, 64, 8):
        x0 = (blk[r] << 11) + 128
        x1, x2, x3 = blk[r + 4] << 11, blk[r + 6], blk[r + 2]
        x4, x5, x6, x7 = blk[r + 1], blk[r + 7], blk[r + 5], blk[r + 3]
        # first stage
        x8 = _W7 * (x4 + x5)
        x4 = x8 + (_W1 - _W7) * x4
        x5 = x8 - (_W1 + _W7) * x5
        x8 = _W3 * (x6 + x7)
        x6 = x8 - (_W3 - _W5) * x6
        x7 = x8 - (_W3 + _W5) * x7
        # second stage
        x8 = x0 + x1
        x0 -= x1
        x1 = _W6 * (x3 + x2)
        x2 = x1 - (_W2 + _W6) * x2
        x3 = x1 + (_W2 - _W6) * x3
        x1 = x4 + x6
        x4 -= x6
        x6 = x5 + x7
        x5 -= x7
        # third stage
        x7 = x8 + x3
        x8 -= x3
        x3 = x0 + x2
        x0 -= x2
        x2 = (181 * (x4 + x5) + 128) >> 8
        x4 = (181 * (x4 - x5) + 128) >> 8
        # fourth stage
        blk[r : r + 8] = [
            (x7 + x1) >> 8, (x3 + x2) >> 8, (x0 + x4) >> 8, (x8 + x6) >> 8,
            (x8 - x6) >> 8, (x0 - x4) >> 8, (x3 - x2) >> 8, (x7 - x1) >> 8,
        ]
    for c in range(8):
        x0 = (blk[c] << 8) + 8192
        x1, x2, x3 = blk[c + 32] << 8, blk[c + 48], blk[c + 16]
        x4, x5, x6, x7 = blk[c + 8], blk[c + 56], blk[c + 40], blk[c + 24]
        # first stage
        x8 = _W7 * (x4 + x5) + 4
        x4 = (x8 + (_W1 - _W7) * x4) >> 3
        x5 = (x8 - (_W1 + _W7) * x5) >> 3
        x8 = _W3 * (x6 + x7) + 4
        x6 = (x8 - (_W3 - _W5) * x6) >> 3
        x7 = (x8 - (_W3 + _W5) * x7) >> 3
        # second stage
        x8 = x0 + x1
        x0 -= x1
        x1 = _W6 * (x3 + x2) + 4
        x2 = (x1 - (_W2 + _W6) * x2) >> 3
        x3 = (x1 + (_W2 - _W6) * x3) >> 3
        x1 = x4 + x6
        x4 -= x6
        x6 = x5 + x7
        x5 -= x7
        # third stage
        x7 = x8 + x3
        x8 -= x3
        x3 = x0 + x2
        x0 -= x2
        x2 = (181 * (x4 + x5) + 128) >> 8
        x4 = (181 * (x4 - x5) + 128) >> 8
        # fourth stage
        column = [
            (x7 + x1) >> 14, (x3 + x2) >> 14, (x0 + x4) >> 14, (x8 + x6) >> 14,
            (x8 - x6) >> 14, (x0 - x4) >> 14, (x3 - x2) >> 14, (x7 - x1) >> 14,
        ]
        blk[c::8] = [min(max(v, -256), 255) for v in column]
    return blk


def builder_plan(parsed, sequence, matrices, members=None) -> ReconstructionPlan:
    """:class:`PlanBuilder` over the items of ``parsed`` (or ``members``)."""
    builder = PlanBuilder(
        parsed.header.picture_type,
        parsed.mb_width,
        sequence.width,
        sequence.height,
        matrices,
        parsed.header.dc_scaler,
    )
    for item in parsed.items if members is None else members:
        builder.add(item.mb)
    return builder.build()


def dense_scans(plan: ReconstructionPlan) -> np.ndarray:
    """``(n_blocks, 64)`` int32 scan-order levels of ``plan``'s blocks."""
    scans = np.zeros((plan.n_blocks, 64), dtype=np.int32)
    block = np.repeat(np.arange(plan.n_blocks), plan.block_ncoef)
    scans[block, plan.coef_scan] = plan.coef_level
    return scans


_SPARSE = ("block_ncoef", "coef_scan", "coef_level")


def assert_same_plan(a: ReconstructionPlan, b: ReconstructionPlan, where=()) -> None:
    """Field by field: every wire array with the wire's dtype, the
    coefficient columns through :func:`dense_scans`."""
    assert (a.picture_type, a.mb_width, a.dc_scaler) == (
        b.picture_type, b.mb_width, b.dc_scaler,
    ), where
    assert (a.n_intra_blocks, a.n_res) == (b.n_intra_blocks, b.n_res), where
    for name, dtype, _shape, _sized_by in plan_codec._ARRAYS:
        va, vb = getattr(a, name), getattr(b, name)
        assert va.dtype == vb.dtype == dtype, (where, name)
        if name not in _SPARSE:
            assert va.shape == vb.shape and np.array_equal(va, vb), (where, name)
    assert np.array_equal(dense_scans(a), dense_scans(b)), (where, "coefficients")


def add_exchanges(
    layout, mei: MEIBatch, item: ParsedMB, t: int, mb_x: int, mb_y: int
) -> None:
    """Pre-calculate remote reference transfers for one macroblock of tile
    ``t`` — the scalar walk :meth:`MacroblockSplitter._exchanges` is held
    to, program for program and row for row."""
    mb = item.mb
    if mb.intra:
        return
    vectors = []
    if mb.motion_forward and mb.mv_fwd is not None:
        vectors.append((FWD, mb.mv_fwd))
    if mb.motion_backward and mb.mv_bwd is not None:
        vectors.append((BWD, mb.mv_bwd))
    # P "No MC" and P skips read the co-located macroblock, which is
    # always inside this tile's coverage — no exchange needed.
    exchange(layout, mei, t, mb_x, mb_y, vectors)


def exchange(layout, mei: MEIBatch, t: int, mb_x: int, mb_y: int, vectors: list) -> None:
    """Add the transfers tile ``t`` needs for a non-intra macroblock's
    coded ``(direction, vector)`` pairs."""
    cov = layout.tile(t).coverage
    ccov = Rect(cov.x0 // 2, cov.y0 // 2, cov.x1 // 2, cov.y1 // 2)

    for direction, mv in vectors:
        if mv == (0, 0):
            continue  # co-located read, local by construction
        lrect = reference_rect(mb_x, mb_y, mv)
        crect = chroma_reference_rect(mb_x, mb_y, mv)
        if cov.contains(lrect) and ccov.contains(crect):
            continue
        for other in layout.tiles:
            if other.tid == t:
                continue
            p = other.partition
            lpiece = p.intersect(lrect)
            cp = Rect(p.x0 // 2, p.y0 // 2, -(-p.x1 // 2), -(-p.y1 // 2))
            cpiece = cp.intersect(crect)
            luma_needed = not lpiece.is_empty() and not cov.contains(lpiece)
            chroma_needed = not cpiece.is_empty() and not ccov.contains(cpiece)
            if not luma_needed and not chroma_needed:
                continue
            mei.add_exchange(
                other.tid,
                t,
                BlockXfer(
                    luma=lpiece if luma_needed else Rect(0, 0, 0, 0),
                    chroma=cpiece if chroma_needed else Rect(0, 0, 0, 0),
                    direction=direction,
                ),
            )


def compile_plans_reference(
    splitter: MacroblockSplitter, parsed, picture_index: int
) -> PlanSplitResult:
    """Scalar reference for :meth:`MacroblockSplitter.compile_plans`.

    The macroblock-at-a-time path the columnar compiler must match bit for
    bit — plans, counts, MEI programs, and exceptions.  ``parsed`` only
    needs ``items`` (a :class:`ParsedPicture`'s view or the object
    parser's list).
    """
    layout = splitter.layout
    hdr = parsed.header
    builders = {
        t.tid: PlanBuilder(
            hdr.picture_type,
            parsed.mb_width,
            splitter.sequence.width,
            splitter.sequence.height,
            splitter.matrices,
            hdr.dc_scaler,
        )
        for t in layout
    }
    counts = {t.tid: [0, 0] for t in layout}  # [coded, skipped]
    mei = MEIBatch(picture_index, layout.n_tiles)

    for item in parsed.items:
        mb = item.mb
        mb_x = mb.address % parsed.mb_width
        mb_y = mb.address // parsed.mb_width
        for t in layout.tiles_for_mb(mb_x, mb_y):
            builders[t].add(mb)
            counts[t][1 if mb.skipped else 0] += 1
            add_exchanges(layout, mei, item, t, mb_x, mb_y)

    plans = {
        t.tid: TilePlan(
            picture_index=picture_index,
            tile=t.tid,
            picture_type=hdr.picture_type,
            n_coded=counts[t.tid][0],
            n_skipped=counts[t.tid][1],
            plan=builders[t.tid].build(),
        )
        for t in layout
    }
    return PlanSplitResult(
        picture_index=picture_index,
        plans=plans,
        mei=mei,
        picture_type=hdr.picture_type,
    )


__all__ = [
    "ObjectParsedPicture",
    "add_exchanges",
    "assert_same_plan",
    "builder_plan",
    "chen_wang_idct",
    "compile_plans_reference",
    "dense_scans",
    "exchange",
    "object_parse_picture",
    "reference_decode",
    "use_execute_engine",
    "use_reference_vlc",
]
