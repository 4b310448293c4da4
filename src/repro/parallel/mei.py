"""Macroblock Exchange Instructions (paper §4.2).

The second-level splitter parses the whole picture, so it knows which
macroblock on which decoder references blocks owned by which other decoder.
For every motion vector that reads outside the destination tile's coverage,
it appends ``SEND(rect, dest)`` to the serving tile's program and
``RECV(rect, src)`` to the destination tile's program.  Decoders execute
all SENDs before decoding (the referenced pixels belong to previously
decoded pictures, so they are available), which

- eliminates demand fetching and server threads, and
- doubles as synchronization: no two decoders drift more than one frame.

A program is two integer tables, one row per instruction, in program
order: ``luma x0, y0, x1, y1, chroma x0, y0, x1, y1, direction, peer``
(``int32``, see :data:`ROW_WIDTH`).  A plane the destination does not need
has the rect ``(0, 0, 0, 0)``.  A picture's exchanges are one table too
(:attr:`MEIBatch.exchanges`), the program row plus source and destination
tile; a program is a filter of it.  Pixels move as one
:class:`PixelBlock` per (source, destination) pair and picture: the SEND
rows for that destination and their samples, packed luma pieces first,
then Cb, then Cr, each in row order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.mpeg2.motion import Rect

# Reference-picture selector for a transfer: which anchor the pixels come
# from relative to the picture about to be decoded.
FWD = 0  # forward anchor (P and B pictures)
BWD = 1  # backward anchor (B pictures only)

# Columns of a program row.
LUMA = slice(0, 4)
CHROMA = slice(4, 8)
DIRECTION = 8
PEER = 9
ROW_WIDTH = 10
# Columns of an exchange row: the program row's first nine, then both ends.
SRC = 9
DEST = 10
_SEND_COLUMNS = [0, 1, 2, 3, 4, 5, 6, 7, DIRECTION, DEST]

# Modelled size of one instruction: rect (4x2 bytes) + chroma rect (8) +
# direction (1) + peer tile id (2) + opcode (1) = 20 bytes.  (The cluster
# wire carries the int32 table: 40 bytes a row.)
INSTRUCTION_BYTES = 20

# picture index, tile, SEND rows, RECV rows; the int32 rows follow.
_PROGRAM_HEAD = "<IHII"
_PROGRAM_HEAD_SIZE = struct.calcsize(_PROGRAM_HEAD)


def empty_table(width: int = ROW_WIDTH) -> np.ndarray:
    return np.zeros((0, width), np.int32)


def payload_bytes(rows: np.ndarray) -> np.ndarray:
    """Transferred pixel bytes of each row: one luma + two chroma pieces."""
    luma = (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])
    chroma = (rows[:, 6] - rows[:, 4]) * (rows[:, 7] - rows[:, 5])
    return luma + 2 * chroma


def check_rows(rows: np.ndarray, n_tiles: int, what: str = "MEI row") -> None:
    """``ValueError`` unless every row names a peer in ``[0, n_tiles)``, a
    direction in {FWD, BWD} and two rects that are neither inverted nor
    negative.  (Whether they lie inside the raster is the decoder's to
    judge: the wire does not carry it.)"""
    if rows.ndim != 2 or rows.shape[1] != ROW_WIDTH:
        raise ValueError(f"{what}: table of shape {rows.shape}")
    bad = (
        (rows[:, PEER] < 0)
        | (rows[:, PEER] >= n_tiles)
        | ((rows[:, DIRECTION] != FWD) & (rows[:, DIRECTION] != BWD))
        | (rows[:, :8] < 0).any(axis=1)
        | (rows[:, 2] < rows[:, 0])
        | (rows[:, 3] < rows[:, 1])
        | (rows[:, 6] < rows[:, 4])
        | (rows[:, 7] < rows[:, 5])
    )
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{what} {i} refused: {rows[i].tolist()}")


@dataclass(frozen=True)
class BlockXfer:
    """One reference-pixel rectangle to move between two decoders: the
    scalar form of a row, as the per-macroblock walk builds it."""

    luma: Rect
    chroma: Rect
    direction: int  # FWD or BWD

    @property
    def payload_bytes(self) -> int:
        """Transferred pixel bytes: one luma + two chroma planes."""
        return self.luma.area + 2 * self.chroma.area


@dataclass
class PixelBlock:
    """One picture's reference pixels from decoder ``src`` to ``dest``.

    ``rows`` are the SEND rows for ``dest`` in program order (the
    destination's RECV rows from ``src``, in the same order); ``pixels``
    their samples, packed luma pieces first, then Cb, then Cr."""

    src: int
    dest: int
    rows: np.ndarray  # (k, ROW_WIDTH) int32
    pixels: np.ndarray  # (nbytes,) uint8

    @property
    def nbytes(self) -> int:
        return self.pixels.nbytes


@dataclass
class MEIProgram:
    """The exchange program one decoder executes before one picture.

    ``sends`` and ``recvs`` are ``(n, ROW_WIDTH)`` int32 tables whose peer
    column is the destination (SEND) or the source (RECV).  SEND/RECV
    tables across a picture's programs are exact duals — a property-based
    test asserts it.
    """

    tile: int
    picture_index: int
    sends: np.ndarray = field(default_factory=empty_table)
    recvs: np.ndarray = field(default_factory=empty_table)

    @property
    def instruction_bytes(self) -> int:
        return INSTRUCTION_BYTES * (len(self.sends) + len(self.recvs))

    @property
    def send_payload_bytes(self) -> int:
        return int(payload_bytes(self.sends).sum())

    @property
    def recv_payload_bytes(self) -> int:
        return int(payload_bytes(self.recvs).sum())

    def senders(self) -> List[int]:
        """The peers this program receives from: one block each."""
        return sorted(set(self.recvs[:, PEER].tolist()))

    def to_bytes(self) -> bytes:
        """A ``struct`` head, then the SEND and the RECV rows as little-endian
        int32."""
        head = struct.pack(
            _PROGRAM_HEAD,
            self.picture_index,
            self.tile,
            len(self.sends),
            len(self.recvs),
        )
        rows = np.concatenate((self.sends, self.recvs)).astype("<i4", copy=False)
        return head + rows.tobytes()

    @classmethod
    def from_bytes(cls, data, n_tiles: int) -> "MEIProgram":
        """Inverse of :meth:`to_bytes` for a wall of ``n_tiles`` tiles: a
        payload of the wrong length, a tile or a peer outside ``[0,
        n_tiles)``, a self-exchange, a direction outside {FWD, BWD} or an
        inverted rect is a ``ValueError``."""
        data = memoryview(data)
        if len(data) < _PROGRAM_HEAD_SIZE:
            raise ValueError(f"MEI program of {len(data)} bytes: shorter than its head")
        picture_index, tile, n_sends, n_recvs = struct.unpack_from(_PROGRAM_HEAD, data)
        n = n_sends + n_recvs
        if len(data) != _PROGRAM_HEAD_SIZE + 4 * ROW_WIDTH * n:
            raise ValueError(
                f"MEI program of {len(data)} bytes: its head announces {n} rows"
            )
        if tile >= n_tiles:
            raise ValueError(f"MEI program for tile {tile} of {n_tiles}")
        rows = np.frombuffer(data, "<i4", ROW_WIDTH * n, _PROGRAM_HEAD_SIZE)
        rows = rows.reshape(n, ROW_WIDTH).astype(np.int32)
        check_rows(rows, n_tiles)
        if (rows[:, PEER] == tile).any():
            raise ValueError(f"MEI program of tile {tile} exchanges with itself")
        return cls(tile, picture_index, rows[:n_sends], rows[n_sends:])


class MEIBatch:
    """Per-picture collection of MEI programs, one per tile, with dedup.

    Built in bulk from a deduplicated exchange table
    (:meth:`from_exchanges`, the splitter's path) or one exchange at a
    time (:meth:`add_exchange`); the programs are filters of the table.
    """

    def __init__(self, picture_index: int, n_tiles: int):
        self.picture_index = picture_index
        self.n_tiles = n_tiles
        self._added: Optional[List[tuple]] = []
        self._seen: Set[tuple] = set()
        self._table: Optional[np.ndarray] = empty_table(DEST + 1)
        self._programs: Optional[Dict[int, MEIProgram]] = None

    @classmethod
    def from_exchanges(
        cls, picture_index: int, n_tiles: int, table: np.ndarray
    ) -> "MEIBatch":
        """Wrap an ``(N, DEST + 1)`` int32 exchange table, duplicates already
        removed, in program order."""
        batch = cls(picture_index, n_tiles)
        batch._table = table
        batch._added = None  # nothing to add to: the table is final
        return batch

    def add_exchange(self, src: int, dest: int, xfer: BlockXfer) -> None:
        """Record that ``dest`` needs ``xfer`` served by ``src``.

        Duplicate requests (several macroblocks referencing the same remote
        rectangle) collapse to a single transfer.
        """
        if src == dest:
            raise ValueError("exchange between a tile and itself")
        if self._added is None:
            raise ValueError("a batch built from an exchange table is final")
        l, c = xfer.luma, xfer.chroma
        row = (l.x0, l.y0, l.x1, l.y1, c.x0, c.y0, c.x1, c.y1, xfer.direction, src, dest)
        if row in self._seen:
            return
        self._seen.add(row)
        self._added.append(row)
        self._table = None
        self._programs = None

    @property
    def exchanges(self) -> np.ndarray:
        """``(N, DEST + 1)`` int32: a program row (peer column = source),
        then the destination; one row per distinct exchange, in order."""
        if self._table is None:
            self._table = np.array(self._added, np.int32).reshape(-1, DEST + 1)
        return self._table

    @property
    def programs(self) -> Dict[int, MEIProgram]:
        if self._programs is None:
            ex = self.exchanges
            self._programs = {
                t: MEIProgram(
                    tile=t,
                    picture_index=self.picture_index,
                    sends=ex[ex[:, SRC] == t][:, _SEND_COLUMNS],
                    recvs=ex[ex[:, DEST] == t, :ROW_WIDTH],
                )
                for t in range(self.n_tiles)
            }
        return self._programs

    def program(self, tile: int) -> MEIProgram:
        return self.programs[tile]

    def total_exchanges(self) -> int:
        return len(self.exchanges)
