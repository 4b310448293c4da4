"""Two-phase batched picture reconstruction (parse -> plan -> execute).

The per-macroblock reference (:mod:`repro.mpeg2.reconstruct`: the encoder's
local reconstruction, and through ``tests/oracles.py`` the decoders' test
oracle) pays a separate numpy dispatch per macroblock for the dequantiser,
the IDCT and the clip, so a picture reconstructs at Python-loop speed.  This
module restructures the work the way a hardware decoder's memory system
does: the entropy phase emits a flat *reconstruction plan* — coefficient
stacks, per-block quantiser scales, intra/inter flags, motion vectors, and
destination offsets — and the execute phase then runs **one** dequantize +
**one** IDCT over the whole ``(N, 8, 8)`` coefficient stack, forms motion
compensated predictions with array-level gathers grouped by half-pel
fraction, and scatters finished macroblock tiles into the frame planes with
slice assignments.

Coefficients stay *sparse* from the parser to the IDCT input: a plan holds
only the nonzero levels (scan position + level per entry, an entry count
per block — about four per coded block on ordinary streams, not 64), the
dequantiser runs over those entries alone, and the first dense array is
the zeroed int16 stack they are scattered into for the IDCT.

Every arithmetic step gives the reference path's value (the same integer
operations, in narrower types where the ranges are bounded; the same
transform, :func:`repro.mpeg2.dct.idct`, whose samples are integers
already), so the output is bit-identical — the property the golden and
hypothesis tests assert.

The stacks between the steps live in an :class:`ExecuteScratch` that the
decoding object owns and passes to every :func:`execute_plan` call, so a
picture reuses the (already faulted-in) memory of the one before it, the
transform's working rows included, and the intermediates are as narrow as
their ranges allow — uint8 predictions, uint16 half-pel sums, int16
coefficients, residuals and sums.

The execute phase has two engines and no switch between them.  Where a C
compiler is, :mod:`repro.mpeg2.native_execute` (``_execute.c``) does all of
the above in **one foreign call per picture**, with the GIL released and
every sample written once: each coded block is dequantised into an int32
block on the stack and inverse-transformed into the int16 residual stack,
then each macroblock is predicted from the reference planes, its residual
added, clipped and stored -- no coefficient, prediction, accumulator or tile
stacks at all.  :func:`_execute_numpy`, the body described above, is its
specification, the reference every execute test runs both against by name
(``tests/oracles.py::use_execute_engine``), and the engine where no
compiler is.  :func:`execute_plan` dispatches through ``_execute``, bound
once at import to the kernel if it loaded.

This module is the execute side.  The plan itself, its builders and its
bounds checks live in :mod:`repro.mpeg2.plan`, which needs numpy only: a
process that compiles or ships plans without executing them (a cluster
splitter) imports that and never loads the transform -- nor builds or maps
the execute kernel, which importing this module does.

Entropy decoding itself stays serial: VLC parsing is inherently sequential
(each codeword's position depends on the previous one), which is exactly
why the paper's splitter hierarchy parallelizes *across* pictures while
this engine vectorizes *within* one.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.mpeg2 import dct, native_execute
from repro.mpeg2.frames import Frame
from repro.mpeg2.plan import (
    BWD,
    FWD,
    PlanBuilder,  # noqa: F401 - the benchmark spine imports it from here
    ReconstructionPlan,
    chroma_mv_batch,
)
from repro.mpeg2.tables import RASTER_OF_SCAN


class ExecuteScratch:
    """Grow-only named buffers for the stacks of :func:`execute_plan`.

    One per decoding object, passed to every ``execute_plan`` call that
    object makes, and never shared: a call leaves its stacks behind in the
    buffers, so two threads executing through one scratch would write each
    other's.  Nothing is carried from one call to the next but the memory
    itself — a call writes every region before it reads it.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised ``shape``/``dtype`` view of the buffer ``name``,
        which grows to fit and never shrinks.  Valid until the next
        ``take`` of the same name."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


Planes = Tuple[np.ndarray, np.ndarray, np.ndarray]  # (y, cb, cr) stacks or views
_PLANE_NAMES = ("y", "cb", "cr")


def _tiled_view(plane: np.ndarray, size: int) -> np.ndarray:
    """A ``(mb_h, mb_w, size, size)`` writable view of a frame plane."""
    if not plane.flags["C_CONTIGUOUS"]:
        raise ValueError("frame planes must be C-contiguous for tiled scatter")
    h, w = plane.shape
    return plane.reshape(h // size, size, w // size, size).transpose(0, 2, 1, 3)


def _residual_stacks(plan: ReconstructionPlan, scratch: ExecuteScratch) -> np.ndarray:
    """Dequantize + IDCT every coded block; scatter to ``(n_res, 6, 8, 8)``.

    One dequantize per quantizer class over the coded entries only, one
    scatter of the entries into the zeroed raster-order ``(n_blocks, 8, 8)``
    coefficient stack, one :func:`dct.idct` over it -- the kernel batching
    the module exists for -- and its int16 samples go into the residual
    stack.  Uncoded blocks stay exactly zero, matching the reference path's
    zero scans.
    """
    res6 = scratch.take("res", (plan.n_res, 6, 8, 8), np.int16)
    n_blocks = plan.n_blocks
    if n_blocks == 0:
        res6.fill(0)
        return res6
    # Block j is slot j % 6 of row j // 6 when every row has its six blocks,
    # row after row (a picture that is all intra, or all fully coded): the
    # transform then writes the residual stack directly, and all of it.
    order = plan.block_res * 6 + plan.block_slot
    in_order = n_blocks == 6 * plan.n_res and _in_order(order, n_blocks)
    if not in_order:
        res6.fill(0)
    ncoef, scan, level = plan.block_ncoef, plan.coef_scan, plan.coef_level
    qscale = np.repeat(plan.block_qscale, ncoef)
    # Blocks were laid out intra-first at build time, so both dequantizers
    # run over plain slices of the entries.
    k = int(ncoef[: plan.n_intra_blocks].sum())
    value = np.concatenate(
        (
            dct.dequantize_intra_sparse(
                level[:k], scan[:k], qscale[:k], plan.matrices.intra_scan, plan.dc_scaler
            ),
            dct.dequantize_non_intra_sparse(
                level[k:], scan[k:], qscale[k:], plan.matrices.non_intra_scan
            ),
        )
    )
    # 12-bit coefficients: an int16 stack holds them
    coeffs = scratch.take("coeffs", (n_blocks, 8, 8), np.int16)
    coeffs.fill(0)
    dest = np.repeat(np.arange(0, 64 * n_blocks, 64), ncoef)
    dest += RASTER_OF_SCAN[scan]
    coeffs.reshape(-1)[dest] = value
    if in_order:
        dct.idct(coeffs, out=res6.reshape(-1, 8, 8), scratch=scratch)
    else:
        samples = scratch.take("samples", (n_blocks, 8, 8), np.int16)
        res6.reshape(-1, 8, 8)[order] = dct.idct(coeffs, out=samples, scratch=scratch)
    return res6


def _in_order(index: np.ndarray, n: int) -> bool:
    """Whether ``index`` is ``0 .. n-1`` in order: a gather through it is
    the stack itself."""
    return len(index) == n and np.array_equal(index, np.arange(n))


def _assemble_luma_batch(res6: np.ndarray, scratch: ExecuteScratch) -> np.ndarray:
    """``(R, 6, 8, 8)`` residuals -> ``(R, 16, 16)`` luma tiles."""
    m = len(res6)
    res_y = scratch.take("res_y", (m, 16, 16), np.int16)
    res_y.reshape(m, 2, 8, 2, 8)[...] = (
        res6[:, :4].reshape(m, 2, 2, 8, 8).transpose(0, 1, 3, 2, 4)
    )
    return res_y


def _predict_plane_batch(
    plane: np.ndarray,
    base_x: np.ndarray,
    base_y: np.ndarray,
    mvx: np.ndarray,
    mvy: np.ndarray,
    out: np.ndarray,
    scratch: ExecuteScratch,
) -> None:
    """Batched half-pel prediction into ``out``, ``(K, size, size)`` uint8.

    Groups requests by their half-pel fraction pair so each group is one
    gather of whole ``(size + fy, size + fx)`` reference windows followed by
    one vectorized interpolation — the same arithmetic as
    :func:`repro.mpeg2.motion.predict_plane`, over a stack.  The sum of two
    or four samples and its rounding term is formed in uint16 (at most
    4 * 255 + 2 = 1022) and shifts back to a sample; a group with no
    fraction is a copy of uint8 windows.  Bounds were validated at plan
    time.
    """
    size = out.shape[1]
    frac = (mvx & 1) | ((mvy & 1) << 1)
    x0, y0 = base_x + (mvx >> 1), base_y + (mvy >> 1)
    for group in range(4):
        sel = np.flatnonzero(frac == group)
        if not len(sel):
            continue
        gfx, gfy = group & 1, group >> 1
        windows = sliding_window_view(plane, (size + gfy, size + gfx))
        region = windows[y0[sel], x0[sel]]
        if not group:
            out[sel] = region
            continue
        acc = scratch.take("acc", (len(sel), size, size), np.uint16)
        if not gfy:
            np.add(region[:, :, :-1], region[:, :, 1:], out=acc, dtype=np.uint16)
        elif not gfx:
            np.add(region[:, :-1, :], region[:, 1:, :], out=acc, dtype=np.uint16)
        else:
            np.add(region[:, :-1, :-1], region[:, :-1, 1:], out=acc, dtype=np.uint16)
            acc += region[:, 1:, :-1]
            acc += region[:, 1:, 1:]
        shift = gfx + gfy  # (a + b + 1) >> 1, or (a + b + c + d + 2) >> 2
        acc += shift
        acc >>= shift
        out[sel] = acc


def _predict_direction(
    plan: ReconstructionPlan,
    ref: Frame,
    idx: np.ndarray,
    direction: int,
    scratch: ExecuteScratch,
) -> Planes:
    """Predictions ``(y, cb, cr)`` for the macroblocks ``idx`` from ``ref``."""
    mv = plan.mb_mv[idx, direction]
    cmv = chroma_mv_batch(mv)
    mb_x, mb_y = plan.mb_x[idx], plan.mb_y[idx]
    tag = "fwd" if direction == FWD else "bwd"
    stacks = []
    for name, plane, size, v in (
        ("y", ref.y, 16, mv),
        ("cb", ref.cb, 8, cmv),
        ("cr", ref.cr, 8, cmv),
    ):
        out = scratch.take(f"{tag}_{name}", (len(idx), size, size), np.uint8)
        _predict_plane_batch(
            plane, mb_x * size, mb_y * size, v[:, 0], v[:, 1], out, scratch
        )
        stacks.append(out)
    return tuple(stacks)


def _predict(
    plan: ReconstructionPlan,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    idx: np.ndarray,
    use_f: np.ndarray,
    use_b: np.ndarray,
    scratch: ExecuteScratch,
) -> Planes:
    """uint8 predictions for the inter macroblocks ``idx``, each from the
    directions ``use_f`` / ``use_b`` say it uses."""
    if not use_b.any():
        return _predict_direction(plan, fwd, idx, FWD, scratch)
    if not use_f.any():
        return _predict_direction(plan, bwd, idx, BWD, scratch)
    from_f = _predict_direction(plan, fwd, idx[use_f], FWD, scratch)
    from_b = _predict_direction(plan, bwd, idx[use_b], BWD, scratch)
    only_f, only_b, both = use_f & ~use_b, use_b & ~use_f, use_f & use_b
    only_f_sel, only_b_sel = only_f[use_f], only_b[use_b]
    both_f_sel, both_b_sel = both[use_f], both[use_b]
    n_both = int(both.sum())
    merged = []
    for name, pf, pb in zip(_PLANE_NAMES, from_f, from_b):
        pred = scratch.take(f"pred_{name}", (len(idx),) + pf.shape[1:], np.uint8)
        pred[only_f] = pf[only_f_sel]
        pred[only_b] = pb[only_b_sel]
        if n_both:
            # Bidirectional: rounded average of the two directions
            # (§7.6.7.1), at most 255 + 255 + 1 = 511 before the shift.
            acc = scratch.take("acc", (n_both,) + pf.shape[1:], np.uint16)
            np.add(pf[both_f_sel], pb[both_b_sel], out=acc, dtype=np.uint16)
            acc += 1
            acc >>= 1
            pred[both] = acc
        merged.append(pred)
    return tuple(merged)


def _gather_residual(
    res: Planes, rows: np.ndarray, scratch: ExecuteScratch
) -> Planes:
    """Residual tiles for macroblock rows (``-1`` rows come back zero), for
    the caller to overwrite: scratch copies, or the stacks themselves when
    ``rows`` is every row in order, which nothing else then reads."""
    n = len(rows)
    if _in_order(rows, len(res[0])):
        return res
    valid = rows >= 0
    all_valid = bool(valid.all())
    tiles = []
    for name, r in zip(_PLANE_NAMES, res):
        t = scratch.take(f"tile_{name}", (n,) + r.shape[1:], np.int16)
        if all_valid:
            t[...] = r[rows]
        else:
            t.fill(0)
            t[valid] = r[rows[valid]]
        tiles.append(t)
    return tuple(tiles)


def _store(view: np.ndarray, mb_y: np.ndarray, mb_x: np.ndarray, tiles: np.ndarray) -> None:
    """Clip int16 sums to samples in place and scatter them (narrowing to
    uint8 in the assignment) into a tiled plane view."""
    np.clip(tiles, 0, 255, out=tiles)
    view[mb_y, mb_x] = tiles


def execute_plan(
    plan: ReconstructionPlan,
    out: Frame,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    scratch: Optional[ExecuteScratch] = None,
) -> None:
    """Reconstruct every planned macroblock into ``out`` in place.

    ``scratch`` is the caller's :class:`ExecuteScratch`; without one the
    call builds its own and drops it.
    """
    if plan.n_macroblocks == 0:
        return
    if scratch is None:
        scratch = ExecuteScratch()
    _execute(plan, out, fwd, bwd, scratch)


def _execute_numpy(
    plan: ReconstructionPlan,
    out: Frame,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    scratch: ExecuteScratch,
) -> None:
    """The execute phase in numpy: the specification of
    :func:`native_execute.execute_plan`, its differential reference, and the
    engine where no compiler is.  Same contract: equal frames."""
    res6 = _residual_stacks(plan, scratch)
    res = (_assemble_luma_batch(res6, scratch), res6[:, 4], res6[:, 5])
    views = (_tiled_view(out.y, 16), _tiled_view(out.cb, 8), _tiled_view(out.cr, 8))

    intra_idx = np.flatnonzero(plan.mb_intra)
    if len(intra_idx):
        ix, iy = plan.mb_x[intra_idx], plan.mb_y[intra_idx]
        tiles = _gather_residual(res, plan.mb_res_row[intra_idx], scratch)
        for view, t in zip(views, tiles):
            _store(view, iy, ix, t)

    inter_idx = np.flatnonzero(~plan.mb_intra)
    if not len(inter_idx):
        return

    use_f = plan.mb_dir[inter_idx, FWD]
    use_b = plan.mb_dir[inter_idx, BWD]
    if not (use_f | use_b).all():
        raise ValueError("prediction requested with no motion vectors")
    for use, ref, name in ((use_f, fwd, "forward"), (use_b, bwd, "backward")):
        if use.any() and ref is None:
            raise ValueError(f"prediction requested without {name} reference")
    pred = _predict(plan, fwd, bwd, inter_idx, use_f, use_b, scratch)

    ex, ey = plan.mb_x[inter_idx], plan.mb_y[inter_idx]
    rows = plan.mb_res_row[inter_idx]
    hasres = np.flatnonzero(rows >= 0)
    if len(hasres) < len(rows):
        # Pure predictions are averages of uint8 samples, already in
        # [0, 255]; the reference path's clip is a no-op there.
        nores = np.flatnonzero(rows < 0)
        ny, nx = ey[nores], ex[nores]
        for view, p in zip(views, pred):
            view[ny, nx] = p[nores]
        if not len(hasres):
            return
        ey, ex, rows = ey[hasres], ex[hasres], rows[hasres]
        pred = tuple(p[hasres] for p in pred)
    # Residual add + clip, as the per-MB path: integer sum -> clip.  A
    # sample plus a residual is within -14 294 .. 14 549, an int16.
    tiles = _gather_residual(res, rows, scratch)
    for view, t, p in zip(views, tiles, pred):
        t += p
        _store(view, ey, ex, t)


def _execute_native(
    plan: ReconstructionPlan,
    out: Frame,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    scratch: ExecuteScratch,
) -> None:
    """The execute phase through ``_execute.c``: one foreign call."""
    native_execute.execute_plan(plan, out, fwd, bwd, scratch)


# Selected by what this process could observe, once: the library loaded or
# it did not.  No flag, field or variable chooses; tests substitute the name.
_execute = _execute_native if native_execute.LIBRARY is not None else _execute_numpy
