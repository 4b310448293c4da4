"""Runtime tile-partition policies (paper §6 future work, closed loop).

The paper's splitter distributes work with a *fixed* m x n partition, so
localized-detail streams (Orion flybys, Table 4 streams 13-16) make the
tile holding the busy region the straggler that gates the synchronized
frame rate (§5.5).  This module turns the partition into a pluggable
runtime policy:

- :class:`StaticPolicy` — the paper's fixed equal-pixel grid.
- :class:`ContentAwarePolicy` — the splitter already VLC-parses every
  macroblock, so its coded size (bit extent) is a free load proxy;
  partition lines equalize an EWMA of the per-column/per-row coded bits.
- :class:`FeedbackPolicy` — decoders report per-picture busy time
  upstream; partition lines equalize an EWMA of observed per-tile cost
  spread uniformly over each tile's macroblocks (the same cost-field
  construction :func:`repro.parallel.loadbalance.adaptive_balance` uses
  offline).

Reference safety: boundaries move **only at closed-GOP boundaries**.  A
picture with ``new_gop`` and ``closed_gop`` starts a self-contained GOP —
no later picture (in decode order) references anything decoded before it,
so no motion vector ever crosses a repartition cut.  Tile decoders keep
*full-raster* reference frames (tile geometry only selects which
macroblocks arrive and which crop ships to the collector), so a swap is
a pure geometry change: no reference pixels are copied or lost, and the
output stays bit-identical to the static layout.

Every change is a versioned :class:`LayoutUpdate` carried on the existing
channel protocol (``MSG_LAYOUT``).  FIFO channel order gives the only
guarantee the protocol needs: the splitter that handles picture
``effective_from`` receives the update before that picture (root sends it
first on the same channel) and forwards it to each decoder before that
picture's plan (again, same channel) — so every process swaps layouts at
exactly the same picture index.
"""

from __future__ import annotations

import bisect
import struct
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpeg2.constants import MB_SIZE
from repro.wall.layout import TileLayout

POLICY_NAMES = ("static", "content", "feedback")


# --------------------------------------------------------------------- #
# boundary equalization (cell units)
# --------------------------------------------------------------------- #


def equalize_cells(weights: Sequence[float], parts: int) -> List[int]:
    """Cell-unit boundaries splitting ``weights`` into ``parts`` spans of
    roughly equal total weight.

    Guaranteed contract, for any non-negative (NaN/inf-tolerant) weight
    vector: returns ``parts + 1`` strictly increasing integers from ``0``
    to ``len(weights)`` — every part holds at least one cell.  Raises
    :class:`ValueError` when that is impossible (``parts > len(weights)``)
    instead of silently producing a zero-size part.
    """
    w = np.asarray(weights, dtype=float)
    n = int(w.size)
    if parts < 1:
        raise ValueError("need at least one part")
    if n < parts:
        raise ValueError(f"cannot split {n} cells into {parts} parts")
    w = np.where(np.isfinite(w) & (w > 0), w, 0.0)
    cum = np.cumsum(w)
    total = float(cum[-1]) if n else 0.0
    cuts = [0]
    for i in range(1, parts):
        if total > 0:
            cell = int(np.searchsorted(cum, total * i / parts, side="left")) + 1
        else:
            cell = round(n * i / parts)
        # Forward clamp: the previous part keeps >= 1 cell.  Backward
        # clamp: leave >= 1 cell for each remaining part.  Because
        # cuts[-1] <= n - (parts - i + 1), the lower clamp never exceeds
        # the upper one, so the result is strictly increasing.
        cell = max(cell, cuts[-1] + 1)
        cell = min(cell, n - (parts - i))
        cuts.append(cell)
    cuts.append(n)
    return cuts


def equalize_pixel_bounds(weights: Sequence[float], parts: int) -> List[int]:
    """:func:`equalize_cells` scaled to macroblock-aligned pixel bounds."""
    return [c * MB_SIZE for c in equalize_cells(weights, parts)]


def clamp_cell(cell: int, prev_bound_px: int, remaining_parts: int, total_cells: int) -> int:
    """Clamp one candidate cell boundary into the valid window: strictly
    after the previous boundary, leaving ``remaining_parts`` cells free."""
    lo = prev_bound_px // MB_SIZE + 1
    hi = total_cells - remaining_parts
    if lo > hi:
        raise ValueError(
            f"no valid boundary: previous bound at cell {lo - 1}, "
            f"{remaining_parts} parts need cells past {hi}"
        )
    return min(max(cell, lo), hi)


# --------------------------------------------------------------------- #
# versioned layout updates (wire format)
# --------------------------------------------------------------------- #

_UPD_HEAD = struct.Struct("<IIHH")  # version, effective_from, n_x, n_y
_UPD_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class LayoutUpdate:
    """One versioned partition change, effective at a picture index.

    ``x_bounds``/``y_bounds`` are full pixel boundary lists (length
    ``m + 1`` / ``n + 1``) so an update is self-describing — a receiver
    validates it simply by constructing the :class:`TileLayout`.
    """

    version: int
    effective_from: int
    x_bounds: Tuple[int, ...]
    y_bounds: Tuple[int, ...]

    def encode(self) -> bytes:
        head = _UPD_HEAD.pack(
            self.version, self.effective_from, len(self.x_bounds), len(self.y_bounds)
        )
        body = struct.pack(
            f"<{len(self.x_bounds) + len(self.y_bounds)}I",
            *self.x_bounds,
            *self.y_bounds,
        )
        return head + body

    @classmethod
    def decode(cls, payload: bytes) -> "LayoutUpdate":
        version, eff, nx, ny = _UPD_HEAD.unpack_from(payload)
        need = _UPD_HEAD.size + (nx + ny) * _UPD_U32.size
        if len(payload) < need:
            raise ValueError(
                f"layout update truncated: {len(payload)} bytes, need {need}"
            )
        vals = struct.unpack_from(f"<{nx + ny}I", payload, _UPD_HEAD.size)
        return cls(version, eff, tuple(vals[:nx]), tuple(vals[nx:]))

    def make_layout(self, overlap: int = 0) -> TileLayout:
        """Materialize the layout (bounds span the raster by construction)."""
        return TileLayout(
            self.x_bounds[-1],
            self.y_bounds[-1],
            len(self.x_bounds) - 1,
            len(self.y_bounds) - 1,
            overlap=overlap,
            x_bounds=list(self.x_bounds),
            y_bounds=list(self.y_bounds),
        )


class LayoutSchedule:
    """Append-only, picture-indexed layout history (thread-safe).

    Every role keeps one: the root's controller appends updates as it
    issues them; splitters and decoders append as ``MSG_LAYOUT`` arrives.
    ``layout_for(i)`` answers "which layout governs picture i" — entries
    staged for a future ``effective_from`` do not leak backward, so an
    update may arrive arbitrarily early without racing the pictures still
    in flight under the old partition.
    """

    def __init__(self, base: TileLayout):
        self.base = base
        self._lock = threading.Lock()
        self._starts: List[int] = [0]
        self._layouts: List[TileLayout] = [base]
        self._versions: List[int] = [0]

    def apply(self, upd: LayoutUpdate) -> Optional[TileLayout]:
        """Stage one update; returns its layout, or None for a duplicate
        (the same version forwarded along several channel paths)."""
        with self._lock:
            if upd.version <= self._versions[-1]:
                return None
            if upd.effective_from < self._starts[-1]:
                raise ValueError(
                    f"layout v{upd.version} effective at {upd.effective_from}, "
                    f"before staged v{self._versions[-1]} at {self._starts[-1]}"
                )
            lay = TileLayout(
                self.base.width,
                self.base.height,
                self.base.m,
                self.base.n,
                overlap=self.base.overlap,
                x_bounds=list(upd.x_bounds),
                y_bounds=list(upd.y_bounds),
            )
            if upd.effective_from == self._starts[-1]:
                self._layouts[-1] = lay
                self._versions[-1] = upd.version
            else:
                self._starts.append(upd.effective_from)
                self._layouts.append(lay)
                self._versions.append(upd.version)
            return lay

    def layout_for(self, picture: int) -> TileLayout:
        with self._lock:
            j = bisect.bisect_right(self._starts, picture) - 1
            return self._layouts[max(j, 0)]

    def version_for(self, picture: int) -> int:
        with self._lock:
            j = bisect.bisect_right(self._starts, picture) - 1
            return self._versions[max(j, 0)]

    def current(self) -> TileLayout:
        with self._lock:
            return self._layouts[-1]

    @property
    def n_updates(self) -> int:
        with self._lock:
            return len(self._starts) - 1


# --------------------------------------------------------------------- #
# policies
# --------------------------------------------------------------------- #


class PartitionPolicy:
    """Base policy: observe telemetry, propose boundary moves.

    ``propose`` returns macroblock-aligned pixel boundary lists (or None
    to keep the current partition); the controller gates *when* a
    proposal may take effect (closed-GOP boundaries only).
    """

    name = "static"

    def __init__(self, mb_width: int, mb_height: int, m: int, n: int):
        if m > mb_width or n > mb_height:
            raise ValueError(
                f"{m}x{n} tiles need at least {m}x{n} macroblocks "
                f"(raster has {mb_width}x{mb_height})"
            )
        self.mb_width = mb_width
        self.mb_height = mb_height
        self.m = m
        self.n = n

    def observe_content(
        self, picture: int, col_bits: Sequence[float], row_bits: Sequence[float]
    ) -> None:
        pass

    def observe_execute(self, picture: int, tile: int, busy_s: float) -> None:
        pass

    def propose(
        self, current: TileLayout
    ) -> Optional[Tuple[List[int], List[int]]]:
        return None

    def snapshot(self) -> dict:
        """The observations the next :meth:`propose` works from, as JSON
        types — what a trace needs to say *why* a boundary did or did not
        move."""
        return {}


class StaticPolicy(PartitionPolicy):
    """The paper's fixed grid — never proposes a move."""


class ContentAwarePolicy(PartitionPolicy):
    """Equalize an EWMA of per-macroblock-column/row coded bits.

    Coded size is a proxy for decode cost, but every macroblock also
    carries a fixed cost (IDCT, motion compensation) independent of its
    bits — ``uniform_floor`` adds that as a constant term scaled to the
    mean cell weight, which keeps sparse regions from collapsing to
    near-zero weight and overshooting the boundary moves.  The default
    (2.0) reflects this decoder's measured cost structure: per-macroblock
    fixed work dominates entropy-proportional work, so raw bit counts
    overstate the skew by roughly that factor.
    """

    name = "content"

    def __init__(
        self,
        mb_width: int,
        mb_height: int,
        m: int,
        n: int,
        ewma: float = 0.5,
        uniform_floor: float = 2.0,
    ):
        super().__init__(mb_width, mb_height, m, n)
        if not 0.0 < ewma <= 1.0:
            raise ValueError("ewma must be in (0, 1]")
        self.ewma = ewma
        self.uniform_floor = uniform_floor
        self._cols: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None

    def observe_content(
        self, picture: int, col_bits: Sequence[float], row_bits: Sequence[float]
    ) -> None:
        cols = np.asarray(col_bits, dtype=float)
        rows = np.asarray(row_bits, dtype=float)
        if cols.size != self.mb_width or rows.size != self.mb_height:
            raise ValueError("content profile does not match the raster")
        a = self.ewma
        self._cols = cols if self._cols is None else a * cols + (1 - a) * self._cols
        self._rows = rows if self._rows is None else a * rows + (1 - a) * self._rows

    def propose(
        self, current: TileLayout
    ) -> Optional[Tuple[List[int], List[int]]]:
        if self._cols is None or self._rows is None:
            return None

        def weight(axis: np.ndarray) -> np.ndarray:
            mean = float(axis.mean())
            return axis + self.uniform_floor * (mean if mean > 0 else 1.0)

        return (
            equalize_pixel_bounds(weight(self._cols), self.m),
            equalize_pixel_bounds(weight(self._rows), self.n),
        )

    def snapshot(self) -> dict:
        if self._cols is None or self._rows is None:
            return {}
        return {"cols": self._cols.tolist(), "rows": self._rows.tolist()}


class FeedbackPolicy(PartitionPolicy):
    """Equalize an EWMA of *observed* per-tile busy time.

    Each tile's smoothed cost is spread uniformly over the macroblocks
    its current partition owns, building a cost field whose column/row
    sums the equalizer re-splits — exactly the construction the offline
    :func:`~repro.parallel.loadbalance.adaptive_balance` ablation uses,
    now fed by live ``MSG_REPORT`` telemetry instead of a simulation.
    """

    name = "feedback"

    def __init__(
        self,
        mb_width: int,
        mb_height: int,
        m: int,
        n: int,
        ewma: float = 0.5,
    ):
        super().__init__(mb_width, mb_height, m, n)
        if not 0.0 < ewma <= 1.0:
            raise ValueError("ewma must be in (0, 1]")
        self.ewma = ewma
        self._busy: Dict[int, float] = {}

    def observe_execute(self, picture: int, tile: int, busy_s: float) -> None:
        prev = self._busy.get(tile)
        a = self.ewma
        self._busy[tile] = busy_s if prev is None else a * busy_s + (1 - a) * prev

    def propose(
        self, current: TileLayout
    ) -> Optional[Tuple[List[int], List[int]]]:
        if len(self._busy) < current.n_tiles:
            return None  # not every tile has reported yet
        field = np.zeros((self.mb_height, self.mb_width))
        for tile in current:
            p = tile.partition
            mx0, my0 = p.x0 // MB_SIZE, p.y0 // MB_SIZE
            mx1 = max(mx0 + 1, -(-p.x1 // MB_SIZE))
            my1 = max(my0 + 1, -(-p.y1 // MB_SIZE))
            cells = (my1 - my0) * (mx1 - mx0)
            field[my0:my1, mx0:mx1] += self._busy[tile.tid] / cells
        return (
            equalize_pixel_bounds(field.sum(axis=0), self.m),
            equalize_pixel_bounds(field.sum(axis=1), self.n),
        )

    def snapshot(self) -> dict:
        return {"busy": {str(tile): s for tile, s in sorted(self._busy.items())}}


def make_policy(
    name: str, mb_width: int, mb_height: int, m: int, n: int, **kwargs
) -> PartitionPolicy:
    if name == "static":
        return StaticPolicy(mb_width, mb_height, m, n)
    if name == "content":
        return ContentAwarePolicy(mb_width, mb_height, m, n, **kwargs)
    if name == "feedback":
        return FeedbackPolicy(mb_width, mb_height, m, n, **kwargs)
    raise ValueError(f"unknown partition policy {name!r} (know {POLICY_NAMES})")


# --------------------------------------------------------------------- #
# controller
# --------------------------------------------------------------------- #


def is_repartition_point(unit) -> bool:
    """True when ``unit`` starts a closed GOP — the only picture where
    partition lines may move without a reference crossing the cut."""
    return bool(
        getattr(unit, "new_gop", False)
        and getattr(unit, "gop", None) is not None
        and unit.gop.closed_gop
    )


@dataclass(frozen=True)
class PartitionEval:
    """One decision of a :class:`PartitionController` at a repartition
    point: what the policy had seen, what it proposed (None: nothing yet),
    and the update that issued (None: the proposal is already in force)."""

    picture: int
    inputs: dict
    proposal: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    update: Optional[LayoutUpdate]

    def as_event(self) -> dict:
        """Payload of the root's ``partition_eval`` trace event."""
        x_bounds, y_bounds = self.proposal or (None, None)
        return {
            "inputs": self.inputs,
            "x_bounds": x_bounds and list(x_bounds),
            "y_bounds": y_bounds and list(y_bounds),
            "version": self.update.version if self.update else None,
        }


class PartitionController:
    """The root-side brain: ingest telemetry, issue versioned updates.

    Thread-safe: observations arrive from the credit-pump threads (one
    per splitter channel) while ``maybe_update`` runs on the dispatch
    loop.  The controller owns the version counter and the authoritative
    :class:`LayoutSchedule` for the run.
    """

    def __init__(self, policy: PartitionPolicy, schedule: LayoutSchedule):
        self.policy = policy
        self.schedule = schedule
        self._lock = threading.Lock()
        self._version = 0
        self.updates: List[LayoutUpdate] = []

    def observe_content(self, picture, col_bits, row_bits) -> None:
        with self._lock:
            self.policy.observe_content(picture, col_bits, row_bits)

    def observe_execute(self, picture, tile, busy_s) -> None:
        with self._lock:
            self.policy.observe_execute(picture, tile, busy_s)

    def ingest(self, rec: dict) -> None:
        """Dispatch one decoded ``MSG_REPORT`` record."""
        kind = rec.get("kind")
        if kind == "exec":
            self.observe_execute(rec["picture"], rec["tile"], rec["busy_s"])
        elif kind == "content":
            self.observe_content(rec["picture"], rec["cols"], rec["rows"])

    def maybe_update(self, picture: int, unit) -> Optional[LayoutUpdate]:
        """The update :meth:`evaluate` issues at ``picture``, if any."""
        decision = self.evaluate(picture, unit)
        return decision.update if decision is not None else None

    def evaluate(self, picture: int, unit) -> Optional[PartitionEval]:
        """At a closed-GOP boundary (never picture 0 — the base layout is
        already in force there) ask the policy for boundaries effective at
        ``picture`` and issue the update if they differ from the ones in
        force; anywhere else, None.  The result carries the policy's
        observations as they stood at the decision, so a trace of it
        explains the decision whichever way it went."""
        if picture == 0 or not is_repartition_point(unit):
            return None
        with self._lock:
            current = self.schedule.current()
            inputs = self.policy.snapshot()
            proposal = self.policy.propose(current)
            upd = None
            if proposal is not None:
                x_bounds, y_bounds = (tuple(axis) for axis in proposal)
                if (x_bounds, y_bounds) != (
                    tuple(current.x_bounds), tuple(current.y_bounds)
                ):
                    self._version += 1
                    upd = LayoutUpdate(self._version, picture, x_bounds, y_bounds)
                    self.schedule.apply(upd)
                    self.updates.append(upd)
                proposal = (x_bounds, y_bounds)
            return PartitionEval(picture, inputs, proposal, upd)


def build_controller(
    policy_name: str, base_layout: TileLayout, **policy_kwargs
) -> Optional[PartitionController]:
    """A controller for the named policy, or None for ``static`` (the
    static path carries zero adaptive overhead — no reports, no updates)."""
    if policy_name == "static":
        return None
    policy = make_policy(
        policy_name,
        base_layout.width // MB_SIZE,
        base_layout.height // MB_SIZE,
        base_layout.m,
        base_layout.n,
        **policy_kwargs,
    )
    return PartitionController(policy, LayoutSchedule(base_layout))


# --------------------------------------------------------------------- #
# content profile (splitter side)
# --------------------------------------------------------------------- #


def content_profile(parsed) -> Tuple[np.ndarray, np.ndarray]:
    """Per-macroblock-column and per-row coded-bit totals of one parsed
    picture — the splitter's free load proxy (it parsed the bits anyway).

    Skipped macroblocks carry no coded bits but still cost a motion-copy;
    they count as one bit so fully-skipped regions keep nonzero weight.
    """
    mbw, mbh = parsed.mb_width, parsed.mb_height
    c = parsed.columns
    if len(c) == 0:
        return np.zeros(mbw), np.zeros(mbh)
    addr = c.address
    # a skipped row's extents are both -1, so it too counts as one bit
    bits = np.maximum(c.bit_end - c.bit_start, 1)
    cols = np.bincount(addr % mbw, weights=bits, minlength=mbw)[:mbw]
    rows = np.bincount(addr // mbw, weights=bits, minlength=mbh)[:mbh]
    return cols.astype(float), rows.astype(float)


__all__ = [
    "POLICY_NAMES",
    "LayoutUpdate",
    "LayoutSchedule",
    "PartitionPolicy",
    "StaticPolicy",
    "ContentAwarePolicy",
    "FeedbackPolicy",
    "PartitionController",
    "PartitionEval",
    "make_policy",
    "build_controller",
    "is_repartition_point",
    "content_profile",
    "equalize_cells",
    "equalize_pixel_bounds",
    "clamp_cell",
]
