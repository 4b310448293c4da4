"""The native columns and plans (``_columns.c`` through ``native_columns``):
memory safety, and parity with the numpy bodies field by field.

The parser and plan suites hold both engines to the object parser and to
``PlanBuilder`` (``tests/test_columnar_parse.py``, ``test_mb_splitter.py``,
``test_plan_codec.py`` on the kernel, ``tests/test_python_engine.py`` on
numpy).  Here the kernel is called with every array it writes housed in
guard bytes, on records and columns no walk would write -- one element out
of range at a time, counts that lie -- and compared with ``parser._columns``
/ ``plan.assemble_plan`` array for array: equal in value, dtype and shape,
or the same exception.  A refusal is a Python exception that names the
record, raised before anything was allocated, let alone written.
"""

import copy
import dataclasses
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2 import fast_vlc, native_columns, native_walk, parser as parser_module
from repro.mpeg2 import plan as plan_module
from repro.mpeg2.constants import PICTURE_START_CODE, PictureType
from repro.mpeg2.parser import MacroblockParser, ParsedPicture, PictureScanner
from repro.mpeg2.plan import QuantMatrices
from repro.mpeg2.structures import PictureHeader
from repro.wall.layout import TileLayout
from tests.oracles import use_parse_engine, use_plan_engine
from tests.test_columnar_parse import _FLAT, _GOLDEN_STREAM, _LONG_RUN, HandPicture
from tests.test_native_walk import _two_hand_pictures

pytestmark = pytest.mark.skipif(
    native_columns.LIBRARY is None or native_walk.LIBRARY is None,
    reason=f"no native columns: {native_columns.STATUS}",
)

_GUARD = 0x5A
_PAD = 64  # guard bytes on either side of a housed block
_FAR = (2**62, -(2**62), 2**63 - 1, -(2**63))


class Guards:
    """``native_columns._empty`` that houses every block between two runs
    of guard bytes."""

    def __init__(self):
        self.housings = []

    def empty(self, shape, dtype):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        house = np.full(nbytes + 2 * _PAD, _GUARD, dtype=np.uint8)
        self.housings.append((house, nbytes))
        return house[_PAD : _PAD + nbytes].view(dtype).reshape(shape)

    def check(self):
        for house, nbytes in self.housings:
            assert (house[:_PAD] == _GUARD).all() and (house[_PAD + nbytes :] == _GUARD).all(), (
                f"a block of {nbytes} bytes: written outside it"
            )


@pytest.fixture
def guards(monkeypatch):
    housed = Guards()
    monkeypatch.setattr(native_columns, "_empty", housed.empty)
    yield housed
    housed.check()


def outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared, class and text
        return exc


def assert_same_arrays(got, want, names, what):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (what, name, a.dtype, b.dtype)
        assert a.flags.c_contiguous, (what, name)  # numpy's block_slot alone is strided
        assert np.array_equal(a, b), (what, name)


def assert_same_columns(got, want):
    names = [f.name for f in dataclasses.fields(got) if f.name != "state"]
    assert_same_arrays(got, want, names, "columns")
    assert (got.state is None) == (want.state is None)
    if want.state is not None:
        assert_same_arrays(
            got.state, want.state, [f.name for f in dataclasses.fields(want.state)], "state"
        )


def assert_same_plans(got, want):
    arrays = [f.name for f in dataclasses.fields(want) if isinstance(getattr(want, f.name), np.ndarray)]
    assert_same_arrays(got, want, arrays, "plan")
    for f in dataclasses.fields(want):
        if f.name not in arrays:
            assert getattr(got, f.name) == getattr(want, f.name), f.name


def assert_same_outcome(got, want, same=None):
    """Two engines' results: the same exception (class and text), or
    results ``same`` accepts.  Returns the exception's class, or ``None``."""
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return type(want)
    if same is not None:
        same(got, want)
    return None


def parse_with(engine, data, sequence, lean):
    with pytest.MonkeyPatch.context() as patch:
        use_parse_engine(engine, patch)
        return outcome(lambda: MacroblockParser(sequence).parse_picture(data, lean=lean))


def plan_with(engine, parsed, sequence, idx, checked=True):
    matrices = QuantMatrices.from_sequence(sequence)
    with pytest.MonkeyPatch.context() as patch:
        use_plan_engine(engine, patch)
        if checked:
            return outcome(
                lambda: plan_module.plan_from_columns(
                    parsed, sequence.width, sequence.height, matrices, idx
                )
            )
        return outcome(lambda: plan_module.plan_of_rows(parsed, matrices, idx))


def selections(parsed, sequence):
    """No selection, each tile of a 2x2 layout (where the raster has one),
    no row, one row."""
    yield None
    if sequence.width >= 32 and sequence.height >= 32:
        for tile in TileLayout(sequence.width, sequence.height, 2, 2):
            yield parsed.rows_in(tile.rect)
    yield np.array([], dtype=np.int64)
    if len(parsed.columns):
        yield np.array([len(parsed.columns) // 2])


def assert_engines_agree(data, sequence):
    """Both engines on one picture unit, lean and full; then, where it
    parsed, on every selection of its rows, checked and not.  Returns the
    exception classes met."""
    met = set()
    for lean in (True, False):
        native, numpy_ = (parse_with(e, data, sequence, lean) for e in ("native", "python"))
        met.add(
            assert_same_outcome(
                native, numpy_, lambda a, b: assert_same_columns(a.columns, b.columns)
            )
        )
    if isinstance(numpy_, Exception):
        return met
    for idx in selections(numpy_, sequence):
        for checked in (True, False):
            built = [plan_with(e, native, sequence, idx, checked) for e in ("native", "python")]
            met.add(assert_same_outcome(*built, assert_same_plans))
    return met


# ---------------------------------------------------------------------- #
# parity: golden streams, hand-built pictures, a sweep
# ---------------------------------------------------------------------- #


def _streams(request):
    return [
        _GOLDEN_STREAM,
        *(request.getfixturevalue(name) for name in ("small_stream", "ip_stream", "detail_stream")),
    ]


def test_columns_and_plans_equal_numpys_on_the_golden_streams(request, guards):
    pictures = 0
    for stream in _streams(request):
        sequence, units = PictureScanner(stream).scan()
        for unit in units:
            assert assert_engines_agree(unit.data, sequence) == {None}
            pictures += 1
    assert pictures > 20 and guards.housings


def test_hand_built_pictures_with_table_one_escapes_and_skipped_runs(guards):
    for data, mb_width, mb_height in _two_hand_pictures():
        sequence = dataclasses.replace(
            PictureScanner(_GOLDEN_STREAM).scan()[0], width=16 * mb_width, height=16 * mb_height
        )
        met = assert_engines_agree(data, sequence)
        assert met <= {None, ValueError}  # a vector may leave so small a raster


@pytest.mark.parametrize("intra", [True, False])
def test_a_run_overrun_before_the_walks_error_is_raised_by_both(intra, guards):
    """The walk runs on past an overrun to the next thing it cannot parse;
    the first error in stream order is the one either engine reports."""
    hand = HandPicture(32, 16, PictureType.I if intra else PictureType.P)
    hand.slice(0)
    if intra:
        hand.intra_mb([(0, [_LONG_RUN] * 3, True)] + [_FLAT] * 5)
        hand.intra_mb([_FLAT, (0, [(0, 2)], False)] + [_FLAT] * 4)
    else:
        hand.coded_mb([_LONG_RUN] * 3)
        hand.coded_mb([(0, 2)], closed=False)
    met = assert_engines_agree(hand.data(), hand.sequence)
    assert met == {BitstreamError}
    error = parse_with("native", hand.data(), hand.sequence, True)
    assert str(error) == ("AC run overruns block" if intra else "run overruns block")
    assert not guards.housings  # refused before anything was allocated


_DELTAS = st.integers(-6, 6)


@st.composite
def hand_pictures(draw):
    """A small picture written a macroblock at a time: any type, either
    coefficient table, every ``f_code`` 1-4, one to three slices a row,
    skipped runs behind macroblocks of every kind -- then at most one byte
    of it overwritten."""
    picture_type = draw(st.sampled_from([PictureType.I, PictureType.P, PictureType.B]))
    mb_width, mb_height = draw(st.integers(2, 7)), draw(st.integers(1, 3))
    f_code = tuple(tuple(draw(st.integers(1, 4)) for _ in range(2)) for _ in range(2))
    hand = HandPicture(
        16 * mb_width, 16 * mb_height, picture_type,
        intra_vlc_format=draw(st.integers(0, 1)), f_code=f_code,
        intra_dc_precision=draw(st.sampled_from([8, 9, 10])),
    )

    def vector(direction):
        scale = 1 << (f_code[direction][0] - 1), 1 << (f_code[direction][1] - 1)
        return draw(_DELTAS) * scale[0], draw(_DELTAS) * scale[1]

    def macroblock(increment):
        kinds = ["intra"]
        if picture_type != PictureType.I:
            kinds += ["forward", "forward coded", "coded"] if picture_type == PictureType.P else []
            if picture_type == PictureType.B:
                kinds += ["forward", "backward", "both", "both coded", "backward coded"]
        kind = draw(st.sampled_from(kinds))
        quant = draw(st.one_of(st.none(), st.integers(1, 31))) if kind != "forward" else None
        if kind == "intra":
            if increment == 1 and quant is None and draw(st.booleans()):
                pairs = [(draw(st.integers(0, 5)), draw(st.integers(-40, 40)) or 1) for _ in range(3)]
                hand.intra_mb([(draw(st.integers(-255, 255)), pairs, True)] + [_FLAT] * 5)
            else:
                dc = [draw(st.integers(-255, 255)) for _ in range(6)]
                hand.mb(increment=increment, quant=quant, dc=dc)
            return
        coded = kind.endswith("coded")
        if not coded:
            quant = None  # no quantiser without a pattern
        hand.mb(
            increment=increment,
            quant=quant,
            fwd=vector(0) if kind.startswith(("forward", "both")) else None,
            bwd=vector(1) if kind.startswith(("backward", "both")) else None,
            cbp=draw(st.integers(1, 63)) if coded else 0,
        )

    for row in range(mb_height):
        at = 0  # the next address of the row not yet passed
        for _ in range(draw(st.integers(1, 3))):
            if at >= mb_width:
                break
            hand.slice(row, qcode=draw(st.integers(1, 31)))
            first = True
            while at < mb_width and (first or draw(st.integers(0, 4))):
                gap = draw(st.integers(0, min(2, mb_width - at - 1)))
                if picture_type == PictureType.I and not first:
                    gap = 0  # an I-picture skips nothing
                macroblock(gap + 1)
                at += gap + 1
                first = False
    data = bytearray(hand.data())
    if draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data), hand.sequence


@settings(max_examples=250, deadline=None, suppress_health_check=list(HealthCheck))
@given(hand_pictures())
def test_random_small_pictures_give_equal_columns_and_plans_or_the_same_exception(case):
    housed = Guards()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native_columns, "_empty", housed.empty)
        assert_engines_agree(*case)
    housed.check()


# ---------------------------------------------------------------------- #
# records no walk writes: one element out of range at a time
# ---------------------------------------------------------------------- #


def unit_records(data, mb_width, mb_height):
    """A picture unit's header and the native walk's records, as copies."""
    br = BitReader(data)
    assert br.next_start_code() == PICTURE_START_CODE
    header = PictureHeader.parse(br)
    lists, error = native_walk.walk_picture(br.data, br.pos, header, mb_width, mb_height)
    assert error is None
    return header, copy.deepcopy(lists)


_B_PICTURE = 2  # of ``small_stream``: skipped runs, both directions, patterns


@pytest.fixture
def b_records(small_stream):
    """``(header, records, unit bytes, mb_width, mb_height)`` of a B-picture."""
    sequence, units = PictureScanner(small_stream).scan()
    size = sequence.width // 16, sequence.height // 16
    data = units[_B_PICTURE].data
    return (*unit_records(data, *size), len(data), *size)


#: every record column: the array, its column (``None``: a flat array), the
#: name a refusal gives it
_RECORD_COLUMNS = (
    ("rows", 0, "rows.address"), ("rows", 1, "rows.flags"), ("rows", 2, "rows.qscale_code"),
    ("rows", 3, "rows.cbp"), ("rows", 4, "rows bit extents"), ("rows", 5, "rows bit extents"),
    ("rows", 6, "rows bit extents"), ("skips", 0, "skips.at"), ("skips", 1, "skips.address"),
    ("skips", 2, "skips.count"), ("skips", 3, "skips.flags"), ("skips", 4, "skips.qscale_code"),
    ("mvd", None, "mvd"), ("entries", None, "entries"), ("slices", 0, "slices.row"),
    ("slices", 1, "slices.qscale_code"), ("slices", 2, "slices.end"),
)


def test_the_b_picture_has_every_kind_of_record(b_records):
    header, lists, *_ = b_records
    assert header.picture_type == PictureType.B
    assert all(len(getattr(lists, name)) > 1 for name, *_ in _RECORD_COLUMNS)


@pytest.mark.parametrize("array, column, named", _RECORD_COLUMNS)
def test_one_record_out_of_range_is_an_exception_naming_it(array, column, named, b_records, guards):
    header, lists, unit_bytes, mb_width, mb_height = b_records
    rng = np.random.default_rng(len(named) + (column or 0))
    for value in (*_FAR, -1):
        damaged = copy.deepcopy(lists)
        target = getattr(damaged, array)
        element = (int(rng.integers(len(target))),) + (() if column is None else (column,))
        if value == -1 and named in ("mvd", "skips.at"):
            continue  # a delta of -1 is a delta; a run before row -1 is caught as the others
        target[element] = value
        for lean in (True, False):
            with pytest.raises(ValueError, match=f"native columns: {named} refused at record"):
                native_columns.columns(damaged, unit_bytes, header, mb_width, mb_height, lean)
    assert not guards.housings  # refused while counting: nothing allocated, nothing written


def test_records_that_disagree_with_each_other_are_refused(b_records, guards):
    header, lists, unit_bytes, mb_width, mb_height = b_records

    def refused(named, **changes):
        damaged = dataclasses.replace(copy.deepcopy(lists), **changes)
        with pytest.raises(ValueError, match=f"native columns: {named} refused"):
            native_columns.columns(damaged, unit_bytes, header, mb_width, mb_height, True)

    refused("mvd", mvd=lists.mvd[:-1])  # fewer deltas than the flags call for
    refused("mvd", mvd=np.append(lists.mvd, 0))
    refused("entries", entries=lists.entries[:-1])  # ends inside a block
    refused("blocks named by rows.cbp", entries=lists.entries[: len(lists.entries) // 2])
    refused("slices.end", slices=lists.slices[:-1])  # rows no slice owns
    unsorted = lists.skips.copy()
    unsorted[[0, 1]] = unsorted[[1, 0]]
    refused("skips.at", skips=unsorted)
    intra = lists.rows.copy()
    intra[0, 1] |= fast_vlc.MB_INTRA  # an intra row codes all six blocks
    intra[0, 3] = 31
    refused("rows.cbp", rows=intra)
    window = lists.entries.copy()
    window[0] = fast_vlc._DIRECT | 65  # a direct entry that advances past a block
    refused("entries", entries=window)
    assert not guards.housings


def test_table_one_spans_out_of_order_or_outside_are_refused(guards):
    data, mb_width, mb_height = _two_hand_pictures()[0]
    header, lists = unit_records(data, mb_width, mb_height)
    assert header.intra_vlc_format == 1 and len(lists.t1_spans) >= 4
    columns = native_columns.columns(lists, len(data), header, mb_width, mb_height, True)
    assert len(columns["address"]) and guards.housings
    del guards.housings[:]
    for position, value in ((0, -1), (1, int(lists.t1_spans[0])), (2, 0), (3, len(lists.entries) + 1)):
        damaged = copy.deepcopy(lists)
        damaged.t1_spans[position] = value
        with pytest.raises(ValueError, match="native columns: t1_spans refused at record"):
            native_columns.columns(damaged, len(data), header, mb_width, mb_height, True)
    for value in _FAR:
        damaged = copy.deepcopy(lists)
        damaged.t1_spans[2] = value
        with pytest.raises(ValueError, match="t1_spans refused"):
            native_columns.columns(damaged, len(data), header, mb_width, mb_height, True)
    assert not guards.housings


def test_the_kernel_takes_nobodys_word_for_its_counts(b_records, guards):
    """``written`` and ``capacity`` say how many words each record buffer
    holds and has room for; the kernel checks one against the other, and a
    count against the width of its record, before it follows either."""
    header, lists, unit_bytes, mb_width, mb_height = b_records
    sizes = [getattr(lists, name).size for name in ("rows", "skips", "mvd", "entries", "t1_spans", "slices")]

    def refused(buffer, **lies):
        with pytest.raises(ValueError, match=f"record count of buffer refused at record {buffer}"):
            native_columns.columns(lists, unit_bytes, header, mb_width, mb_height, True, **lies)

    for buffer, width in enumerate((7, 5, 1, 1, 1, 3)):
        more = list(sizes)
        more[buffer] += width  # more than there is room for
        refused(buffer, written=more)
        less = list(sizes)
        less[buffer] -= width  # room for less than was written
        refused(buffer, capacity=less)
        negative = list(sizes)
        negative[buffer] = -width
        refused(buffer, written=negative)
        if width > 1:
            ragged = list(sizes)
            ragged[buffer] -= 1  # not whole records
            refused(buffer, written=ragged)
    assert not guards.housings
    # fewer whole records than there are is a different picture, not a fault
    fewer = list(sizes)
    fewer[2] -= 2
    with pytest.raises(ValueError, match="mvd refused"):
        native_columns.columns(lists, unit_bytes, header, mb_width, mb_height, True, written=fewer)


# ---------------------------------------------------------------------- #
# columns no parse writes: the plan kernel's inputs
# ---------------------------------------------------------------------- #


@pytest.fixture
def b_parsed(small_stream):
    """``(sequence, the B-picture parsed by numpy)``."""
    sequence, units = PictureScanner(small_stream).scan()
    return sequence, parse_with("python", units[_B_PICTURE].data, sequence, True)


def damaged_copy(parsed, **changes):
    return ParsedPicture(
        parsed.header, parsed.data, parsed.mb_width, parsed.mb_height,
        dataclasses.replace(copy.deepcopy(parsed.columns), **changes),
    )


@pytest.mark.parametrize(
    "field, named",
    [
        ("address", "rows.address"), ("first_block", "columns.first_block"),
        ("n_blocks", "columns.n_blocks"), ("block_ncoef", "columns.block_ncoef"),
        ("qscale_code", "columns.qscale_code"),
    ],
)
def test_one_column_out_of_range_is_an_exception_naming_it(field, named, b_parsed, guards):
    sequence, parsed = b_parsed
    matrices = QuantMatrices.from_sequence(sequence)
    coded = np.flatnonzero(parsed.columns.n_blocks > 0)
    assert len(coded) > 2
    tile = parsed.rows_in(next(iter(TileLayout(sequence.width, sequence.height, 2, 2))).rect)
    for value in (*_FAR, -1):
        column = getattr(parsed.columns, field).copy()
        # a row (or block) every selection below plans: the tile's first coded one
        row = int(np.intersect1d(coded, tile)[0])
        column[int(parsed.columns.first_block[row]) if field == "block_ncoef" else row] = value
        damaged = damaged_copy(parsed, **{field: column})
        for idx in (None, tile):
            with pytest.raises(ValueError, match=f"native columns: {named} refused at record"):
                plan_module._build_native(damaged, matrices, idx, (sequence.width, sequence.height))
            with pytest.raises(ValueError, match=f"native columns: {named} refused at record"):
                plan_module._build_native(damaged, matrices, idx, None)
    assert not guards.housings


def test_rows_out_of_range_or_out_of_order_are_refused(b_parsed, guards):
    sequence, parsed = b_parsed
    matrices = QuantMatrices.from_sequence(sequence)
    n = len(parsed.columns)
    for idx in ([n], [-1], [3, 2], [2, 2], [0, n - 1, n], *([v] for v in _FAR)):
        with pytest.raises(ValueError, match="native columns: idx refused at record"):
            plan_module._build_native(parsed, matrices, np.array(idx), None)
    with pytest.raises(ValueError, match="one axis"):
        plan_module._build_native(parsed, matrices, np.zeros((2, 2), dtype=np.int64), None)
    assert not guards.housings


def test_columns_whose_lengths_disagree_are_refused(b_parsed, guards):
    sequence, parsed = b_parsed
    matrices = QuantMatrices.from_sequence(sequence)
    c = parsed.columns
    with pytest.raises(ValueError, match="columns.mv has shape"):
        plan_module._build_native(damaged_copy(parsed, mv=c.mv[:-1]), matrices, None, None)
    with pytest.raises(ValueError, match="block_ncoef refused"):  # levels the blocks do not hold
        plan_module._build_native(
            damaged_copy(parsed, coef_pos=c.coef_pos[:-1], coef_level=c.coef_level[:-1]),
            matrices, None, None,
        )
    with pytest.raises(ValueError, match="first_block refused"):  # blocks the rows do not own
        plan_module._build_native(
            damaged_copy(parsed, block_slot=c.block_slot[:-1], block_ncoef=c.block_ncoef[:-1]),
            matrices, None, None,
        )
    assert not guards.housings


def test_a_refused_vector_is_todays_exception_from_either_engine(b_parsed, guards):
    """The kernel names the first macroblock the staging check refuses;
    numpy's ``_check_vectors`` raises about it, through ``validate_mv``."""
    sequence, parsed = b_parsed
    moving = np.flatnonzero(parsed.columns.motion[:, 0] & ~parsed.columns.intra)
    assert len(moving) > 1
    mv = parsed.columns.mv.copy()
    mv[moving[-1], 0] = (4 * sequence.width, 0)  # two bad rows: the first is reported
    mv[moving[0], 0] = (0, -4 * sequence.height)
    damaged = damaged_copy(parsed, mv=mv)
    errors = [plan_with(engine, damaged, sequence, None) for engine in ("native", "python")]
    assert assert_same_outcome(*errors) is ValueError
    assert f"(0,{-4 * sequence.height}) reads outside plane" in str(errors[0])
    for engine in ("native", "python"):
        with pytest.MonkeyPatch.context() as patch:
            use_plan_engine(engine, patch)
            with pytest.raises(ValueError, match="reads outside plane"):
                plan_module.check_staging(damaged, sequence.width, sequence.height)
            plan_module.check_staging(damaged, sequence.width, sequence.height, moving[1:-1])
    # unchecked, the rows plan as they are
    assert not isinstance(plan_with("native", damaged, sequence, None, checked=False), Exception)
    # a macroblock that predicts from nothing
    motion = parsed.columns.motion.copy()
    header = dataclasses.replace(parsed.header, picture_type=PictureType.B)
    motion[moving[0]] = False
    orphan = ParsedPicture(
        header, parsed.data, parsed.mb_width, parsed.mb_height,
        dataclasses.replace(copy.deepcopy(parsed.columns), motion=motion),
    )
    errors = [plan_with(engine, orphan, sequence, None) for engine in ("native", "python")]
    assert assert_same_outcome(*errors) is ValueError
    assert str(errors[0]) == "prediction requested with no motion vectors"


def test_a_plan_off_the_wire_is_held_to_the_raster_by_either_engine(b_parsed):
    sequence, parsed = b_parsed
    plan = plan_with("python", parsed, sequence, None)
    moving = int(np.flatnonzero(plan.mb_dir[:, 0])[0])

    def checked(engine, **changes):
        with pytest.MonkeyPatch.context() as patch:
            use_plan_engine(engine, patch)
            return outcome(
                lambda: plan_module.check_plan(
                    dataclasses.replace(plan, **changes), sequence.width, sequence.height
                )
            )

    def damaged(name, index, value):
        column = getattr(plan, name).copy()
        column[index] = value
        return {name: column}

    cases = [
        {},
        {"mb_width": plan.mb_width + 1},
        damaged("mb_x", 3, plan.mb_width),
        damaged("mb_y", 0, -1),
        damaged("mb_y", 5, sequence.height // 16),
        damaged("mb_mv", (moving, 0), (2 * sequence.width, 1)),
        damaged("mb_mv", (moving, 0), (-3, -(2**62))),
        {"mb_dir": np.zeros_like(plan.mb_dir)},
        {"mb_mv": plan.mb_mv.astype(np.int32)},  # another dtype is converted, not trusted
    ]
    raised = [assert_same_outcome(checked("native", **c), checked("python", **c)) for c in cases]
    assert raised[0] is None and raised[-1] is None and set(raised[1:-1]) == {ValueError}
    # the kernel checks the landing sites itself before it multiplies them
    for name, value in (("mb_x", 2**62), ("mb_y", -(2**63))):
        column = getattr(plan, name).copy()
        column[1] = value
        arrays = {"mb_x": plan.mb_x, "mb_y": plan.mb_y, name: column}
        with pytest.raises(ValueError, match=f"plan.{name} outside"):
            native_columns.check_vectors(
                arrays["mb_x"], arrays["mb_y"], plan.mb_intra, plan.mb_dir, plan.mb_mv,
                sequence.width, sequence.height,
            )


# ---------------------------------------------------------------------- #
# the loader is the slice walk's (tests/test_native_walk.py has its cases)
# ---------------------------------------------------------------------- #


def test_the_kernel_is_built_cached_and_named_by_the_shared_loader(tmp_path, monkeypatch, capfd):
    source = tmp_path / "_columns.c"
    shutil.copy(native_columns._SOURCE, source)
    monkeypatch.setattr(native_columns, "_SOURCE", str(source))
    library, path = native_columns._load()  # a cold cache: compiled
    assert library is not None and hasattr(library, "build_plan")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "_columns-" + path.rsplit("_columns-", 1)[1], "_columns.c",
    ]
    monkeypatch.setenv("CC", "false")  # a warm one: no compiler asked
    assert native_columns._load()[1] == path
    source.write_text(source.read_text() + "\n/* edited */\n")
    assert native_columns._load() == (None, "compile failed: false exited 1")
    assert "failed; building columns and plans in numpy" in capfd.readouterr().err
    assert native_columns.engine() == f"native ({native_columns.STATUS})"
    assert parser_module._parse is parser_module._parse_native
    assert plan_module._build is plan_module._build_native
    assert plan_module._check is plan_module._check_native
