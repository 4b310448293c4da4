"""The native execute phase (``_execute.c`` through ``native_execute``):
memory safety, and parity with the numpy body at the level of the frames.

``tests/test_batch_reconstruct.py`` holds the kernel to the per-macroblock
oracle on streams and hand-built pictures (and ``tests/
test_python_execute.py`` the numpy body).  Here the kernel is called with
every buffer it writes housed in a larger array of guard bytes -- the output
planes (so their rows are a stride apart), each scratch buffer -- and every
reference plane housed in noise, on plans no parser would build: one index
out of range at a time, repeated scan positions, random small plans.  A
fault is a Python exception with the output untouched; anything else is the
numpy body's frame, sample for sample.
"""

import copy
import ctypes

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpeg2 import batch_reconstruct, dct, native_execute
from repro.mpeg2.batch_reconstruct import ExecuteScratch
from repro.mpeg2.constants import PictureType
from repro.mpeg2.frames import Frame
from repro.mpeg2.plan import QuantMatrices, ReconstructionPlan

pytestmark = pytest.mark.skipif(
    native_execute.LIBRARY is None, reason=f"no native execute: {native_execute.STATUS}"
)

_GUARD = 0xA5
_PAD = 24  # guard samples on every side of a housed plane


class GuardedScratch(ExecuteScratch):
    """Every buffer between two runs of guard bytes."""

    def __init__(self):
        super().__init__()
        self.housings = []

    def take(self, name, shape, dtype):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        house = np.full(nbytes + 128, _GUARD, dtype=np.uint8)
        self.housings.append((name, house, nbytes))
        return house[64 : 64 + nbytes].view(dtype).reshape(shape)

    def check(self):
        for name, house, nbytes in self.housings:
            assert (house[:64] == _GUARD).all() and (house[64 + nbytes :] == _GUARD).all(), (
                f"scratch buffer {name}: written outside its {nbytes} bytes"
            )


def housed(frame, surround):
    """``frame``'s planes as views into larger arrays: ``(the frame, its
    housings)``.  ``surround`` fills a housing before the plane is copied in."""
    planes, housings = [], []
    for plane in (frame.y, frame.cb, frame.cr):
        h, w = plane.shape
        house = surround((h + 2 * _PAD, w + 2 * _PAD))
        view = house[_PAD : _PAD + h, _PAD : _PAD + w]
        view[...] = plane
        planes.append(view)
        housings.append(house)
    return Frame(*planes), housings


def guard_bytes(shape):
    return np.full(shape, _GUARD, dtype=np.uint8)


def noise(shape):
    return np.random.default_rng(shape[0]).integers(0, 256, shape, dtype=np.uint8)


def assert_guards_intact(housings):
    for house in housings:
        outside = np.ones(house.shape, dtype=bool)
        outside[_PAD:-_PAD, _PAD:-_PAD] = False
        assert (house[outside] == _GUARD).all(), "wrote past a plane"


def native_guarded(plan, blank, fwd, bwd):
    """The kernel on ``plan`` into a housed copy of ``blank``, references
    housed in noise: the frame it wrote, after every guard was checked --
    whether it returned or raised."""
    out, housings = housed(blank, guard_bytes)
    refs = [None if ref is None else housed(ref, noise)[0] for ref in (fwd, bwd)]
    scratch = GuardedScratch()
    try:
        batch_reconstruct._execute_native(plan, out, *refs, scratch)
    finally:
        scratch.check()
        assert_guards_intact(housings)
        for ref, original in zip(refs, (fwd, bwd)):
            assert ref is None or ref == original
    return Frame(*(np.ascontiguousarray(p) for p in (out.y, out.cb, out.cr)))


def assert_engines_agree(plan, blank, fwd, bwd):
    """Equal frames, or the same exception class (and then an untouched
    output from the kernel).  Returns the class, or ``None``."""
    want = blank.copy()
    try:
        batch_reconstruct._execute_numpy(plan, want, fwd, bwd, ExecuteScratch())
        want_error = None
    except (IndexError, ValueError) as exc:
        want_error = type(exc)
    try:
        got = native_guarded(plan, blank, fwd, bwd)
        got_error = None
    except (IndexError, ValueError) as exc:
        got_error = type(exc)
    assert got_error is want_error, (got_error, want_error)
    if got_error is None:
        assert got == want
    return got_error


# ---------------------------------------------------------------------- #
# a plan to break: one B picture, every kind of row
# ---------------------------------------------------------------------- #

MB_W, MB_H = 4, 3
W, H = 16 * MB_W, 16 * MB_H


def sample_plan(seed=0):
    """Twelve macroblocks of a 64x48 B picture: intra with and without a
    residual, forward, backward and both with every fraction pair, with and
    without a residual; coded blocks of one to nine entries, some rows with
    fewer than six blocks."""
    rng = np.random.default_rng(seed)
    n_mb = MB_W * MB_H
    mb_intra = np.zeros(n_mb, dtype=bool)
    mb_intra[[0, 5, 7]] = True
    mb_dir = np.zeros((n_mb, 2), dtype=bool)
    mb_mv = np.zeros((n_mb, 2, 2), dtype=np.int64)
    for i in np.flatnonzero(~mb_intra):
        mb_dir[i] = [(True, False), (False, True), (True, True)][i % 3]
        x, y = i % MB_W, i // MB_W
        # anywhere the luma window (and so the chroma one) stays inside
        mb_mv[i, :, 0] = rng.integers(-32 * x, 32 * (MB_W - 1 - x) + 1, 2)
        mb_mv[i, :, 1] = rng.integers(-32 * y, 32 * (MB_H - 1 - y) + 1, 2)
    mb_res_row = np.full(n_mb, -1, dtype=np.int64)
    with_residual = [0, 7, 1, 2, 6, 9, 11]
    mb_res_row[with_residual] = np.arange(len(with_residual))
    n_res = len(with_residual)
    blocks = []  # (intra, row, slot)
    for i in with_residual:
        slots = range(6) if i in (0, 9) else sorted(rng.choice(6, size=int(rng.integers(1, 6)), replace=False))
        blocks += [(bool(mb_intra[i]), int(mb_res_row[i]), int(slot)) for slot in slots]
    blocks.sort(key=lambda b: not b[0])  # intra first
    ncoef = rng.integers(1, 10, len(blocks)).astype(np.uint8)
    scan = np.concatenate([np.sort(rng.choice(64, size=n, replace=False)) for n in ncoef])
    return ReconstructionPlan(
        picture_type=PictureType.B,
        mb_width=MB_W,
        matrices=QuantMatrices(),
        dc_scaler=8,
        block_ncoef=ncoef,
        coef_scan=scan.astype(np.uint8),
        coef_level=rng.integers(-300, 301, len(scan)).astype(np.int16),
        block_qscale=rng.choice([1, 2, 8, 31, 62, 112], len(blocks)).astype(np.int64),
        block_res=np.array([b[1] for b in blocks], dtype=np.int64),
        block_slot=np.array([b[2] for b in blocks], dtype=np.int64),
        n_intra_blocks=sum(b[0] for b in blocks),
        mb_x=np.arange(n_mb, dtype=np.int64) % MB_W,
        mb_y=np.arange(n_mb, dtype=np.int64) // MB_W,
        mb_intra=mb_intra,
        mb_dir=mb_dir,
        mb_mv=mb_mv,
        mb_res_row=mb_res_row,
        n_res=n_res,
    )


def references(seed=1):
    rng = np.random.default_rng(seed)
    return [
        Frame(
            rng.integers(0, 256, (H, W), dtype=np.uint8),
            rng.integers(0, 256, (H // 2, W // 2), dtype=np.uint8),
            rng.integers(0, 256, (H // 2, W // 2), dtype=np.uint8),
        )
        for _ in range(2)
    ]


BLANK = Frame.blank(W, H, y=33, c=44)


@pytest.mark.parametrize("seed", range(6))
def test_the_sample_plan_is_the_numpy_bodys_frame_on_strided_planes(seed):
    fwd, bwd = references(seed)
    assert assert_engines_agree(sample_plan(seed), BLANK, fwd, bwd) is None


def test_pieces_of_any_size_give_the_same_frame(monkeypatch):
    """The kernel transforms a block at a time on the stack, the numpy body
    ``dct._IDCT_PIECE`` blocks at a time: every piece size gives the
    kernel's frame."""
    fwd, bwd = references()
    plan = sample_plan()
    want = native_guarded(plan, BLANK, fwd, bwd)
    monkeypatch.setattr(dct, "_transform", dct._idct_numpy)
    for blocks in (1, 2, 5, plan.n_blocks - 1, plan.n_blocks):
        monkeypatch.setattr(dct, "_IDCT_PIECE", blocks)
        got = BLANK.copy()
        batch_reconstruct._execute_numpy(plan, got, fwd, bwd, ExecuteScratch())
        assert got == want


def test_a_picture_is_one_foreign_call():
    """``execute_plan`` on the kernel: one call of ``execute`` per picture,
    whatever the picture holds, and nothing else of the library."""
    calls = []

    class Counting:
        def __getattr__(self, name):
            function = getattr(library, name)

            def counted(*args):
                calls.append(name)
                return function(*args)

            return counted

    library = native_execute.LIBRARY
    fwd, bwd = references()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native_execute, "LIBRARY", Counting())
        for seed in range(3):
            batch_reconstruct._execute_native(
                sample_plan(seed), BLANK.copy(), fwd, bwd, ExecuteScratch()
            )
    assert calls == ["execute"] * 3


# ---------------------------------------------------------------------- #
# one index out of range
# ---------------------------------------------------------------------- #


def _corruptions(plan):
    """``(field, index, value)``: one element of one index-bearing field,
    out of range on either side where it has two."""
    inter = np.flatnonzero(~plan.mb_intra)
    yield from (("mb_x", 3, v) for v in (-1, MB_W, 2**40, -(2**62)))
    yield from (("mb_y", 8, v) for v in (-1, MB_H, 2**40))
    yield from (("mb_res_row", 4, v) for v in (-2, plan.n_res, 2**40, -(2**63)))
    yield from (("block_res", 2, v) for v in (-1, plan.n_res, 2**50))
    yield from (("block_slot", 1, v) for v in (-1, 6, 2**50, -(2**63)))
    yield from (("coef_scan", 5, v) for v in (64, 255))
    yield ("block_ncoef", 0, 255)  # a count that runs the entries past their end
    # a vector one sample past each raster edge, in either direction slot
    for i in inter:
        x, y = int(plan.mb_x[i]), int(plan.mb_y[i])
        for d in np.flatnonzero(plan.mb_dir[i]):
            yield ("mb_mv", (i, d, 0), -32 * x - 1)
            yield ("mb_mv", (i, d, 0), 32 * (MB_W - 1 - x) + 1)
            yield ("mb_mv", (i, d, 1), -32 * y - 1)
            yield ("mb_mv", (i, d, 1), 32 * (MB_H - 1 - y) + 1)
    yield from (("mb_mv", (int(inter[0]), int(np.flatnonzero(plan.mb_dir[inter[0]])[0]), c), v)
                for c in (0, 1) for v in (2**62, -(2**62), 2**63 - 1, -(2**63)))


def test_one_index_out_of_range_is_an_exception_and_an_untouched_output():
    fwd, bwd = references()
    plan = sample_plan()
    seen = set()
    for field, index, value in _corruptions(plan):
        broken = copy.deepcopy(plan)
        getattr(broken, field)[index] = value
        with pytest.raises((IndexError, ValueError)) as raised:
            native_guarded(broken, BLANK, fwd, bwd)
        assert field in str(raised.value), (field, raised.value)
        seen.add(field)
    assert seen == {
        "mb_x", "mb_y", "mb_res_row", "block_res", "block_slot", "coef_scan", "block_ncoef", "mb_mv",
    }
    # and the output: ``native_guarded`` raised before returning it
    out, housings = housed(BLANK, guard_bytes)
    broken = copy.deepcopy(plan)
    broken.mb_res_row[-1] = plan.n_res  # the last row checked
    with pytest.raises(IndexError, match="mb_res_row"):
        batch_reconstruct._execute_native(broken, out, fwd, bwd, ExecuteScratch())
    assert out == BLANK
    assert_guards_intact(housings)


def test_the_kernel_takes_nobodys_word_for_its_sizes():
    """``execute_plan`` refuses entry counts that do not sum to the entries
    and passes the scan table; the kernel checks each of them all the same
    (its codes that no plan can reach), called here directly with a
    ``plan_t`` whose words lie -- and leaves the output alone.  Its block
    transform refuses a coefficient outside the 12-bit range."""
    fwd, bwd = references()
    broken = copy.deepcopy(sample_plan())
    broken.block_ncoef[-1] += 1
    with pytest.raises(ValueError, match="does not sum"):
        native_guarded(broken, BLANK, fwd, bwd)

    plan = sample_plan()
    raster = native_execute.RASTER_OF_SCAN.astype(np.int64)
    beyond = raster.copy()
    beyond[int(plan.coef_scan[0])] = 64

    def execute(**lies):
        struct, columns = native_execute._plan_t(plan)
        for name, value in lies.items():
            setattr(struct, name, value)
        out, housings = housed(BLANK, guard_bytes)
        frames = [native_execute._frame(f, "frame") for f in (out, fwd, bwd)]
        res6 = np.zeros((plan.n_res + 1, 6, 8, 8), dtype=np.int16)
        try:
            native_execute._call(
                native_execute.LIBRARY.execute,
                ctypes.byref(struct), res6.ctypes.data, *[ctypes.byref(f) for f in frames],
            )
        finally:
            assert not res6[plan.n_res :].any(), "wrote past the residual rows"
            assert_guards_intact(housings)
        return out

    assert execute() == native_guarded(plan, BLANK, fwd, bwd)
    with pytest.raises(ValueError, match="block_ncoef overruns"):
        execute(n_coefs=plan.n_coefs - 1)
    with pytest.raises(IndexError, match="RASTER_OF_SCAN outside .* at scan position"):
        execute(raster_of_scan=beyond.ctypes.data)
    with pytest.raises(IndexError, match="block_res outside"):
        execute(n_res=int(plan.block_res.max()))
    with pytest.raises(IndexError, match="mb_res_row outside"):
        execute(n_res=int(plan.mb_res_row.max()), n_blocks=0, n_coefs=0)

    blocks = np.zeros((3, 8, 8), dtype=np.int64)
    samples = np.full((4, 8, 8), 7, dtype=np.int16)
    for value in (dct.COEFF_MIN - 1, dct.COEFF_MAX + 1, -(2**40)):
        blocks[2, 5, 1] = value
        with pytest.raises(ValueError, match="12-bit coefficient range in block 2"):
            native_execute.idct(blocks, samples[:3])
    assert (samples[3] == 7).all()


def test_a_missing_direction_or_reference_is_the_numpy_bodys_value_error():
    fwd, bwd = references()
    plan = sample_plan()
    inter = int(np.flatnonzero(~plan.mb_intra)[-1])
    no_direction = copy.deepcopy(plan)
    no_direction.mb_dir[inter] = False
    assert assert_engines_agree(no_direction, BLANK, fwd, bwd) is ValueError
    with pytest.raises(ValueError, match="prediction requested with no motion vectors"):
        native_guarded(no_direction, BLANK, fwd, bwd)
    for refs, name in (((None, bwd), "forward"), ((fwd, None), "backward")):
        assert assert_engines_agree(plan, BLANK, *refs) is ValueError
        with pytest.raises(ValueError, match=f"prediction requested without {name} reference"):
            native_guarded(plan, BLANK, *refs)


def test_planes_the_kernel_cannot_walk_are_refused():
    fwd, bwd = references()
    plan = sample_plan()
    scratch = ExecuteScratch()
    wide = np.zeros((H, 2 * W), dtype=np.uint8)
    every_other = Frame(wide[:, ::2], BLANK.cb.copy(), BLANK.cr.copy())
    with pytest.raises(ValueError, match="unit column stride"):
        batch_reconstruct._execute_native(plan, every_other, fwd, bwd, scratch)
    with pytest.raises(ValueError, match="unit column stride"):
        batch_reconstruct._execute_native(plan, BLANK.copy(), every_other, bwd, scratch)
    assert not wide.any()
    frozen = BLANK.copy()
    frozen.cb.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        batch_reconstruct._execute_native(plan, frozen, fwd, bwd, scratch)
    assert frozen == BLANK
    still = copy.deepcopy(plan)
    still.mb_mv[...] = 0
    small = Frame.blank(W - 16, H)  # a reference the last column is not in
    assert assert_engines_agree(still, BLANK, fwd, bwd) is None
    assert assert_engines_agree(still, BLANK, small, bwd) is IndexError
    upside_down = Frame(*(p[::-1] for p in (BLANK.y.copy(), BLANK.cb.copy(), BLANK.cr.copy())))
    batch_reconstruct._execute_native(plan, upside_down, fwd, bwd, scratch)
    assert upside_down == native_guarded(plan, BLANK, fwd, bwd)


# ---------------------------------------------------------------------- #
# repeated scan positions: the last entry wins, as the numpy scatter has it
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("levels", [(7, -3), (7, 0), (0, 7), (7, 0, -3), (0, 0), (-9, -9, 0)])
@pytest.mark.parametrize("scan", [0, 1, 9, 63])
def test_a_repeated_scan_position_is_last_write_wins_on_both_engines(levels, scan):
    fwd, bwd = references()
    plan = sample_plan()
    first_inter = plan.n_intra_blocks
    for block in (0, first_inter):  # an intra block and a non-intra one
        start = int(plan.block_ncoef[:block].sum())
        repeated = copy.deepcopy(plan)
        repeated.block_ncoef[block] += len(levels)
        repeated.coef_scan = np.insert(plan.coef_scan, start, [scan] * len(levels))
        repeated.coef_level = np.insert(plan.coef_level, start, levels)
        assert assert_engines_agree(repeated, BLANK, fwd, bwd) is None
        # and it is the last one: the earlier entries change nothing
        only_last = copy.deepcopy(plan)
        only_last.block_ncoef[block] += 1
        only_last.coef_scan = np.insert(plan.coef_scan, start, scan)
        only_last.coef_level = np.insert(plan.coef_level, start, levels[-1])
        if scan not in plan.coef_scan[start : start + int(plan.block_ncoef[block])]:
            assert native_guarded(repeated, BLANK, fwd, bwd) == native_guarded(
                only_last, BLANK, fwd, bwd
            )


# ---------------------------------------------------------------------- #
# random small plans
# ---------------------------------------------------------------------- #


@st.composite
def small_plans(draw):
    """A plan over a raster of up to 3x3 macroblocks: any subset of its
    macroblocks in any order, any mix of rows, blocks that may repeat a
    residual slot or a scan position, full-range levels -- and sometimes one
    fault of a kind both engines refuse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mb_w, mb_h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    where = rng.permutation(mb_w * mb_h)[: draw(st.integers(1, mb_w * mb_h))]
    n_mb = len(where)
    mb_x, mb_y = (where % mb_w).astype(np.int64), (where // mb_w).astype(np.int64)
    mb_intra = rng.random(n_mb) < 0.3
    mb_dir = rng.random((n_mb, 2)) < 0.6
    mb_dir[~mb_dir.any(axis=1), rng.integers(0, 2)] = True
    mb_mv = np.zeros((n_mb, 2, 2), dtype=np.int64)
    for d in range(2):
        mb_mv[:, d, 0] = rng.integers(-32 * mb_x, 32 * (mb_w - 1 - mb_x) + 1)
        mb_mv[:, d, 1] = rng.integers(-32 * mb_y, 32 * (mb_h - 1 - mb_y) + 1)
    has_residual = rng.random(n_mb) < 0.6
    n_res = int(has_residual.sum()) + draw(st.integers(0, 1))  # a row may go unused
    mb_res_row = np.full(n_mb, -1, dtype=np.int64)
    mb_res_row[has_residual] = rng.permutation(n_res)[: int(has_residual.sum())]
    n_blocks = draw(st.integers(0, 6 * n_res)) if n_res else 0
    ncoef = rng.choice([0, 1, 2, 5, 64, 70], size=n_blocks).astype(np.uint8)
    n_coefs = int(ncoef.sum())
    plan = ReconstructionPlan(
        picture_type=PictureType.B,
        mb_width=mb_w,
        matrices=QuantMatrices(
            intra=rng.integers(1, 256, (8, 8)).astype(np.int32),
            non_intra=rng.integers(1, 256, (8, 8)).astype(np.int32),
        ),
        dc_scaler=draw(st.sampled_from([8, 4, 2, 1])),
        block_ncoef=ncoef,
        coef_scan=rng.integers(0, 64, n_coefs).astype(np.uint8),
        coef_level=rng.choice(
            [-32768, -2048, -2, -1, 0, 1, 2, 3, 2047, 32767], size=n_coefs
        ).astype(np.int16),
        block_qscale=rng.choice([1, 2, 3, 8, 31, 62, 112], n_blocks).astype(np.int64),
        block_res=rng.integers(0, max(n_res, 1), n_blocks).astype(np.int64),
        block_slot=rng.integers(0, 6, n_blocks).astype(np.int64),
        n_intra_blocks=draw(st.integers(0, n_blocks)),
        mb_x=mb_x,
        mb_y=mb_y,
        mb_intra=mb_intra,
        mb_dir=mb_dir,
        mb_mv=mb_mv.astype(draw(st.sampled_from([np.int64, np.int32]))),
        mb_res_row=mb_res_row,
        n_res=n_res,
    )
    fault = draw(st.sampled_from([None, None, "mb_x", "mb_res_row", "block_res", "mb_dir", "mv"]))
    row = int(rng.integers(0, n_mb))
    if fault == "mb_x":
        plan.mb_x[row] = mb_w
    elif fault == "mb_res_row":
        plan.mb_res_row[row] = n_res
    elif fault == "block_res" and n_blocks:
        plan.block_res[int(rng.integers(0, n_blocks))] = n_res
    elif fault == "mb_dir":
        plan.mb_dir[row] = False
    elif fault == "mv" and mb_w > 1:  # (one column: numpy refuses the window's width, a ValueError)
        plan.mb_mv[row, :, 0] = 32 * (mb_w - 1 - int(mb_x[row])) + 1
    # one fault at a time: with two, which one an engine meets first is its own
    missing = draw(st.sampled_from([None, None, None, 0, 1])) if fault is None else None
    return plan, mb_w, mb_h, missing, int(rng.integers(0, 2**31))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_plans())
def test_random_small_plans_give_equal_frames_or_the_same_exception_class(case):
    plan, mb_w, mb_h, missing, seed = case
    rng = np.random.default_rng(seed)
    w, h = 16 * mb_w, 16 * mb_h
    refs = [
        Frame(
            rng.integers(0, 256, (h, w), dtype=np.uint8),
            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
        )
        for _ in range(2)
    ]
    if missing is not None:
        refs[missing] = None
    assert_engines_agree(plan, Frame.blank(w, h, y=33, c=44), *refs)


# ---------------------------------------------------------------------- #
# the loader is the slice walk's (tests/test_native_walk.py has its cases)
# ---------------------------------------------------------------------- #


def test_the_kernel_is_built_cached_and_named_by_the_shared_loader(tmp_path, monkeypatch, capfd):
    import shutil

    source = tmp_path / "_execute.c"
    shutil.copy(native_execute._SOURCE, source)
    monkeypatch.setattr(native_execute, "_SOURCE", str(source))
    library, path = native_execute._load()  # a cold cache: compiled
    assert library is not None and hasattr(library, "execute")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "_execute-" + path.rsplit("_execute-", 1)[1], "_execute.c",
    ]
    monkeypatch.setenv("CC", "false")  # a warm one: no compiler asked
    assert native_execute._load()[1] == path
    source.write_text(source.read_text() + "\n/* edited */\n")
    assert native_execute._load() == (None, "compile failed: false exited 1")
    assert "failed; executing in numpy" in capfd.readouterr().err
    assert native_execute.engine() == f"native ({native_execute.STATUS})"
    assert batch_reconstruct._execute is batch_reconstruct._execute_native
