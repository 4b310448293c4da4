"""Seeded stream fixtures for the measurement spine.

The repo's encoder costs ~0.55 ms per macroblock, so a directly encoded
1920x1088 GOP takes ~28 s — more than a whole contracted benchmark run.
Every fixture is therefore *one small encoded GOP* made large twice over,
with byte-level operations that cost milliseconds:

- :func:`mosaic` tiles the coded picture ``cols x rows`` times in space.
  MPEG-2 slices carry no cross-slice prediction, so a base slice can be
  re-issued at another raster position by rewriting its start code (row)
  and the address increment of its first macroblock (column).  The
  encoder keeps motion vectors inside the base raster, hence inside one
  mosaic cell, so the mosaic decodes to the base frames tiled.
- :func:`repeat_gop` lengthens the stream in time by repeating the closed
  GOP's byte range ``R`` times between the sequence header and the
  sequence-end code.

Neither is taken on trust: :func:`build_fixture` decodes the mosaic with
the sequential decoder — that decode *is* the workloads' reference — and
requires it to equal the base frames tiled, and requires the repeated GOP
to decode to the base frames repeated.

The content is therefore not what a direct encode of the full raster would
give: every cell of a picture is the same coded data, and no motion vector
crosses a cell edge.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.bitstream import BitWriter
from repro.bitstream.reader import find_start_codes
from repro.mpeg2 import vlc
from repro.mpeg2.constants import (
    GROUP_START_CODE,
    SEQUENCE_END_CODE,
    PictureType,
    is_slice_start_code,
)
from repro.mpeg2.decoder import Decoder
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import PictureScanner
from repro.mpeg2.structures import SequenceHeader
from repro.service.session import peek_picture_type
from repro.workloads.synthetic import GENERATORS

GOP_SIZE = 6
ENCODER = dict(gop_size=GOP_SIZE, b_frames=2, search_range=3)


@dataclass(frozen=True)
class FixtureSpec:
    """``generator`` at ``base_w x base_h``, tiled ``cols x rows`` in space."""

    generator: str
    base_w: int
    base_h: int
    cols: int
    rows: int

    @property
    def width(self) -> int:
        return self.base_w * self.cols

    @property
    def height(self) -> int:
        return self.base_h * self.rows


#: The rasters are constants of the benchmark.  No motion vector crosses a
#: mosaic cell edge, so every wall cut the workloads use (x=960 on
#: pan-1080p, x=480 / y=256 on detail-960, x=320 on fish-640) runs through
#: the middle of a cell: tile-boundary motion, hence the MEI exchange and
#: the receivers' decode margins, stay exercised.  On detail-960 the
#: top-left tile of the 2x2 wall holds two detail bumps, the top-right one
#: and the bottom row almost none (the paper's §5.5 straggler).
FIXTURES: Dict[str, FixtureSpec] = {
    "pan-1080p": FixtureSpec("pattern", 384, 272, 5, 4),
    "detail-960": FixtureSpec("detail", 320, 512, 3, 1),
    "fish-640": FixtureSpec("fish", 640, 192, 1, 2),
    "studio-320": FixtureSpec("broadcast", 320, 192, 1, 1),
}

#: ``--quick``: quarter rasters, same mosaic shapes.
QUICK_FIXTURES: Dict[str, FixtureSpec] = {
    "pan-1080p": FixtureSpec("pattern", 192, 144, 5, 4),
    "detail-960": FixtureSpec("detail", 160, 256, 3, 1),
    "fish-640": FixtureSpec("fish", 320, 96, 1, 2),
    "studio-320": FixtureSpec("broadcast", 160, 96, 1, 1),
}


# --------------------------------------------------------------------- #
# byte-level stream surgery
# --------------------------------------------------------------------- #


def _first_offset(stream: bytes, code: int) -> int:
    for off, val in find_start_codes(stream):
        if val == code:
            return off
    raise ValueError(f"stream has no start code {code:#x}")


def repeat_gop(stream: bytes, r: int) -> bytes:
    """Repeat a one-GOP stream's closed GOP ``r`` times."""
    if r < 1:
        raise ValueError("repeat factor must be >= 1")
    n_gops = sum(1 for _, c in find_start_codes(stream) if c == GROUP_START_CODE)
    if n_gops != 1:
        raise ValueError(f"expected a one-GOP stream, found {n_gops} GOPs")
    g0 = _first_offset(stream, GROUP_START_CODE)
    end = _first_offset(stream, SEQUENCE_END_CODE)
    return stream[:g0] + stream[g0:end] * r + stream[end:]


def _increment_code(increment: int) -> tuple:
    """``(bits, length)`` of a macroblock_address_increment VLC."""
    bw = BitWriter()
    vlc.encode_address_increment(bw, increment)
    n = len(bw)
    return int.from_bytes(bw.getvalue(), "big") >> (-n % 8), n


def _move_slice(payload: bytes, increment: int) -> bytes:
    """Re-issue a slice body so its first macroblock lands ``increment - 1``
    macroblocks into the row.

    The body is ``quantiser_scale_code(5) extra_bit_slice(1)`` then the
    first macroblock, whose address increment the base encoder always
    writes as ``1`` (the one-bit code ``1``).  Everything after that bit is
    shifted behind the new increment code and zero-padded to a byte.
    """
    if increment == 1:
        return payload
    nbits = 8 * len(payload)
    value = int.from_bytes(payload, "big")
    if not (value >> (nbits - 7)) & 1:
        raise ValueError("slice does not start at the first macroblock of its row")
    head = value >> (nbits - 6)
    rest_bits = nbits - 7
    rest = value & ((1 << rest_bits) - 1)
    code, code_len = _increment_code(increment)
    total = 6 + code_len + rest_bits
    pad = -total % 8
    out = ((((head << code_len) | code) << rest_bits) | rest) << pad
    return out.to_bytes((total + pad) // 8, "big")


def mosaic(stream: bytes, cols: int, rows: int) -> bytes:
    """Tile every coded picture of ``stream`` ``cols x rows`` times."""
    if cols == 1 and rows == 1:
        return stream
    seq, _ = PictureScanner(stream).scan()
    mb_w, mb_h = seq.width // 16, seq.height // 16
    if rows * mb_h > 0xAF:
        raise ValueError("mosaic exceeds the slice start-code row range")
    marks = list(find_start_codes(stream))
    g0 = _first_offset(stream, GROUP_START_CODE)

    bw = BitWriter()
    SequenceHeader(
        width=seq.width * cols,
        height=seq.height * rows,
        frame_rate_code=seq.frame_rate_code,
        bit_rate=seq.bit_rate,
        vbv_buffer_size=seq.vbv_buffer_size,
        intra_matrix=seq.intra_matrix,
        non_intra_matrix=seq.non_intra_matrix,
    ).write(bw)
    bw.align()
    out: List[bytes] = [bw.getvalue()]

    slices: Dict[int, bytes] = {}  # base row -> slice body of the open picture

    def flush() -> None:
        if not slices:
            return
        if sorted(slices) != list(range(mb_h)):
            raise ValueError("base picture is not one slice per row")
        for cell_row in range(rows):
            for r in range(mb_h):
                for cell_col in range(cols):
                    out.append(bytes((0, 0, 1, cell_row * mb_h + r + 1)))
                    out.append(_move_slice(slices[r], cell_col * mb_w + 1))
        slices.clear()

    ends = [off for off, _ in marks[1:]] + [len(stream)]
    for (off, code), end in zip(marks, ends):
        if off < g0:
            continue  # the base sequence header, replaced above
        if is_slice_start_code(code):
            if code - 1 in slices:
                raise ValueError("base picture has several slices per row")
            slices[code - 1] = stream[off + 4 : end]
        else:
            flush()
            out.append(stream[off:end])
    return b"".join(out)


def tile_frame(frame: Frame, cols: int, rows: int) -> Frame:
    reps = (rows, cols)
    return Frame(np.tile(frame.y, reps), np.tile(frame.cb, reps), np.tile(frame.cr, reps))


# --------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------- #


def digest_frames(frames, h=None):
    """SHA-256 over display-order full rasters (y, cb, cr per frame) — the
    same byte order :mod:`repro.service.session` digests released frames in."""
    h = h or hashlib.sha256()
    for f in frames:
        h.update(np.ascontiguousarray(f.y))
        h.update(np.ascontiguousarray(f.cb))
        h.update(np.ascontiguousarray(f.cr))
    return h


# --------------------------------------------------------------------- #
# the fixture
# --------------------------------------------------------------------- #


@dataclass
class Fixture:
    """A built fixture: a one-GOP stream plus its sequential reference."""

    name: str
    spec: FixtureSpec
    seed: int
    stream: bytes  # one closed GOP at the full (mosaic) raster
    frames: List[Frame]  # ``Decoder().decode(stream)``, display order
    profile: dict
    setup_s: float

    def repeated(self, r: int) -> bytes:
        return repeat_gop(self.stream, r)

    def reference_digest(self, r: int) -> str:
        h = hashlib.sha256()
        for _ in range(r):
            digest_frames(self.frames, h)
        return h.hexdigest()

    # -- hand-off between the builder process and the workload child -- #

    def save(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{self.name}.m2v").write_bytes(self.stream)
        np.savez(
            directory / f"{self.name}.npz",
            y=np.stack([f.y for f in self.frames]),
            cb=np.stack([f.cb for f in self.frames]),
            cr=np.stack([f.cr for f in self.frames]),
        )
        meta = {
            "name": self.name,
            "seed": self.seed,
            "spec": asdict(self.spec),
            "profile": self.profile,
            "setup_s": self.setup_s,
        }
        (directory / f"{self.name}.json").write_text(json.dumps(meta))

    @classmethod
    def load(cls, directory: Path, name: str) -> "Fixture":
        meta = json.loads((directory / f"{name}.json").read_text())
        spec = FixtureSpec(**meta["spec"])
        with np.load(directory / f"{name}.npz") as z:
            frames = [Frame(y, cb, cr) for y, cb, cr in zip(z["y"], z["cb"], z["cr"])]
        return cls(
            name=name,
            spec=spec,
            seed=meta["seed"],
            stream=(directory / f"{name}.m2v").read_bytes(),
            frames=frames,
            profile=meta["profile"],
            setup_s=meta["setup_s"],
        )


def stream_profile(stream: bytes, mb_counts: List[tuple]) -> dict:
    """Per-picture type / coded size / macroblock profile of a one-GOP
    stream, in the manner of the MPEG-2 bandwidth characterisation tool
    (arXiv:0906.4607), so layer costs can be normalised per coded bit and
    per macroblock.  ``mb_counts`` is ``(coded, skipped)`` per picture, from
    the sequential decoder's statistics."""
    _, pictures = PictureScanner(stream).scan()
    rows = []
    for unit, (coded, skipped) in zip(pictures, mb_counts):
        rows.append(
            {
                "type": PictureType(peek_picture_type(unit.data)).name,
                "bytes": len(unit.data),
                "coded_mb": coded,
                "skipped_mb": skipped,
            }
        )
    total_bytes = sum(r["bytes"] for r in rows)
    total_mb = sum(r["coded_mb"] + r["skipped_mb"] for r in rows)
    share = {
        t: sum(r["bytes"] for r in rows if r["type"] == t) / total_bytes
        for t in ("I", "P", "B")
    }
    return {
        "pictures": rows,
        "coded_bytes": total_bytes,
        "coded_mb": sum(r["coded_mb"] for r in rows),
        "skipped_mb": sum(r["skipped_mb"] for r in rows),
        "bits_per_mb": 8.0 * total_bytes / total_mb,
        "byte_share": share,
    }


def build_fixture(name: str, seed: int, quick: bool = False) -> Fixture:
    """Generate, encode, tile, decode and digest one fixture; ``setup_s`` is
    the wall time of all of it."""
    t0 = time.perf_counter()
    spec = (QUICK_FIXTURES if quick else FIXTURES)[name]
    source = GENERATORS[spec.generator](spec.base_w, spec.base_h, GOP_SIZE, seed=seed)
    base = Encoder(EncoderConfig(**ENCODER)).encode(source)
    # The lengthened stream must decode to the base GOP's frames repeated.
    twice = Decoder().decode(repeat_gop(base, 2))
    base_frames = twice[:GOP_SIZE]
    if len(twice) != 2 * GOP_SIZE or twice[GOP_SIZE:] != base_frames:
        raise AssertionError(f"{name}: repeated closed GOP is not self-contained")

    stream = mosaic(base, spec.cols, spec.rows)
    dec = Decoder()
    frames = dec.decode(stream)  # the reference every workload is held to
    if frames != [tile_frame(f, spec.cols, spec.rows) for f in base_frames]:
        raise AssertionError(f"{name}: mosaic does not decode to the base frames tiled")
    counts = list(zip(dec.stats.coded_macroblocks, dec.stats.skipped_macroblocks))
    fx = Fixture(
        name=name,
        spec=spec,
        seed=seed,
        stream=stream,
        frames=frames,
        profile=stream_profile(stream, counts),
        setup_s=0.0,
    )
    fx.profile["reference_digest"] = fx.reference_digest(1)
    fx.setup_s = time.perf_counter() - t0
    return fx
