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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.mpeg2.motion import Rect

if TYPE_CHECKING:
    import numpy as np

# Reference-picture selector for a transfer: which anchor the pixels come
# from relative to the picture about to be decoded.
FWD = 0  # forward anchor (P and B pictures)
BWD = 1  # backward anchor (B pictures only)

# Serialized size of one instruction: rect (4x2 bytes) + chroma rect (8) +
# direction (1) + peer tile id (2) + opcode (1) = 20 bytes.
INSTRUCTION_BYTES = 20


@dataclass(frozen=True)
class BlockXfer:
    """One reference-pixel rectangle to move between two decoders."""

    luma: Rect
    chroma: Rect
    direction: int  # FWD or BWD

    @property
    def payload_bytes(self) -> int:
        """Transferred pixel bytes: one luma + two chroma planes."""
        return self.luma.area + 2 * self.chroma.area


@dataclass
class PixelBlock:
    """Pixels of one MEI transfer in flight."""

    xfer: BlockXfer
    src: int
    dest: int
    y: Optional[np.ndarray]
    cb: Optional[np.ndarray]
    cr: Optional[np.ndarray]

    @property
    def nbytes(self) -> int:
        return self.xfer.payload_bytes


@dataclass
class MEIProgram:
    """The exchange program one decoder executes before one picture.

    ``sends[i] = (xfer, dest_tile)`` and ``recvs[i] = (xfer, src_tile)``.
    SEND/RECV lists across a picture's programs are exact duals — a
    property-based test asserts it.
    """

    tile: int
    picture_index: int
    sends: List[Tuple[BlockXfer, int]] = field(default_factory=list)
    recvs: List[Tuple[BlockXfer, int]] = field(default_factory=list)

    @property
    def instruction_bytes(self) -> int:
        return INSTRUCTION_BYTES * (len(self.sends) + len(self.recvs))

    @property
    def send_payload_bytes(self) -> int:
        return sum(x.payload_bytes for x, _ in self.sends)

    @property
    def recv_payload_bytes(self) -> int:
        return sum(x.payload_bytes for x, _ in self.recvs)


class MEIBatch:
    """Per-picture collection of MEI programs, one per tile, with dedup."""

    def __init__(self, picture_index: int, n_tiles: int):
        self.picture_index = picture_index
        self.programs: Dict[int, MEIProgram] = {
            t: MEIProgram(tile=t, picture_index=picture_index) for t in range(n_tiles)
        }
        self._seen: Set[Tuple[int, int, BlockXfer]] = set()

    def add_exchange(self, src: int, dest: int, xfer: BlockXfer) -> None:
        """Record that ``dest`` needs ``xfer`` served by ``src``.

        Duplicate requests (several macroblocks referencing the same remote
        rectangle) collapse to a single transfer.
        """
        if src == dest:
            raise ValueError("exchange between a tile and itself")
        key = (src, dest, xfer)
        if key in self._seen:
            return
        self._seen.add(key)
        self.programs[src].sends.append((xfer, dest))
        self.programs[dest].recvs.append((xfer, src))

    def program(self, tile: int) -> MEIProgram:
        return self.programs[tile]

    def total_exchanges(self) -> int:
        return len(self._seen)
