"""Transform layer: DCT/IDCT, quantization, scan ordering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.mpeg2 import dct, native_execute
from tests.oracles import chen_wang_idct


class TestTransform:
    def test_idct_inverts_fdct(self):
        """To within one: the integer IDCT is IEEE 1180-accurate, and a
        rounded 12-bit coefficient is within a half of the exact one."""
        rng = np.random.default_rng(0)
        blocks = rng.integers(-256, 256, (10, 8, 8))
        back = dct.idct(np.rint(dct.fdct(blocks)).astype(np.int64))
        assert back.dtype == np.int16
        assert np.abs(back - blocks).max() <= 1

    def test_mpeg_dc_scaling(self):
        """The DC of a constant block c is 8c, so 8-bit video fits the
        12-bit coefficient range."""
        block = np.full((1, 8, 8), 255.0)
        co = dct.fdct(block)
        assert co[0, 0, 0] == pytest.approx(255 * 8)
        assert abs(co[0, 0, 0]) <= dct.COEFF_MAX + 1

    def test_fdct_linear(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 8, 8))
        b = rng.normal(size=(3, 8, 8))
        assert np.allclose(dct.fdct(a + b), dct.fdct(a) + dct.fdct(b))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        blocks = rng.integers(0, 256, (5, 8, 8)).astype(np.float64)
        batch = dct.fdct(blocks)
        for i in range(5):
            assert np.allclose(batch[i], dct.fdct(blocks[i]))

    def test_fdct_is_the_orthonormal_dct_ii(self):
        """Against the DCT-II sum written out (any accurate forward DCT is
        the encoder's to choose; this one is the orthonormal one)."""
        rng = np.random.default_rng(4)
        block = rng.normal(size=(8, 8))
        n = np.arange(8)
        basis = np.cos((2 * n[None, :] + 1) * n[:, None] * np.pi / 16)
        scale = np.where(n == 0, np.sqrt(1 / 8), np.sqrt(2 / 8))
        want = np.einsum("u,v,ux,vy,xy->uv", scale, scale, basis, basis, block)
        assert np.allclose(dct.fdct(block), want, atol=1e-12)

    def test_idct_over_its_input_gives_the_same_bits(self):
        """Into a caller's ``out`` or a fresh array, a stack at once or a
        block at a time, any integer dtype: the same samples, and the input
        left alone."""
        rng = np.random.default_rng(3)
        coeffs = rng.integers(-2048, 2048, (300, 8, 8))
        kept = coeffs.copy()
        want = dct.idct(coeffs)
        assert np.array_equal(coeffs, kept)
        out = np.full(coeffs.shape, 99, dtype=np.int16)
        assert dct.idct(coeffs.astype(np.int16), out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(np.stack([dct.idct(c) for c in coeffs[:20]]), want[:20])

    def test_idct_refuses_what_is_not_a_12_bit_coefficient_stack(self):
        with pytest.raises(TypeError, match="integer"):
            dct.idct(np.zeros((2, 8, 8)))
        with pytest.raises(TypeError, match="integer"):
            dct.idct(np.zeros((2, 8, 4), dtype=np.int32))
        with pytest.raises(ValueError, match="out must be"):
            dct.idct(np.zeros((2, 8, 8), dtype=np.int32), out=np.zeros((2, 8, 8), np.int32))
        for engine in _AVAILABLE:
            for value in (dct.COEFF_MIN - 1, dct.COEFF_MAX + 1):
                coeffs = np.zeros((2, 8, 8), dtype=np.int64)
                coeffs[1, 3, 3] = value
                with pytest.raises(ValueError, match="12-bit coefficient range"):
                    engine(coeffs, np.empty(coeffs.shape, np.int16))


# ---------------------------------------------------------------------- #
# the integer IDCT: numpy, kernel and the scalar transcription agree
# ---------------------------------------------------------------------- #

_ENGINES = [
    pytest.param(dct._idct_numpy, id="numpy"),
    pytest.param(
        native_execute.idct,
        id="native",
        marks=pytest.mark.skipif(
            native_execute.LIBRARY is None, reason=f"no native execute: {native_execute.STATUS}"
        ),
    ),
]
_AVAILABLE = [dct._idct_numpy] + [native_execute.idct] * (native_execute.LIBRARY is not None)


def _transformed(engine, coeffs):
    out = np.empty(coeffs.shape, dtype=np.int16)
    engine(np.asarray(coeffs, dtype=np.int64), out)
    return out


def _oracle(coeffs):
    return np.array([chen_wang_idct(b) for b in coeffs.reshape(-1, 64)]).reshape(coeffs.shape)


def _random_stack(n, density, seed, low=dct.COEFF_MIN, high=dct.COEFF_MAX):
    rng = np.random.default_rng(seed)
    levels = rng.integers(low, high + 1, (n, 8, 8))
    return np.where(rng.random((n, 8, 8)) < density, levels, 0)


def _single_coefficients(values):
    """Every one of the 64 positions holding each of ``values``, alone."""
    stack = np.zeros((64, len(values), 64), dtype=np.int64)
    stack[np.arange(64), :, np.arange(64)] = values
    return stack.reshape(-1, 8, 8)


_CASES = {
    "single": lambda: _single_coefficients(np.array([-2048, -1000, -255, -2, -1, 1, 2, 3, 7, 255, 1023, 2047])),
    "dc-only": lambda: _single_coefficients(np.arange(dct.COEFF_MIN, dct.COEFF_MAX + 1))[:4096],
    "saturated": lambda: np.array(
        [np.full((8, 8), v) for v in (-2048, 2047)]
        + [np.where(np.add.outer(range(8), range(8)) % 2, -2048, 2047) for _ in range(1)]
        + list(np.random.default_rng(5).choice([-2048, 2047], (60, 8, 8)))
    ),
    "sparse": lambda: _random_stack(400, 4 / 64, 11),
    "dense": lambda: _random_stack(200, 1.0, 12),
    "small-dense": lambda: _random_stack(200, 1.0, 13, -300, 300),
}


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("case", sorted(_CASES))
def test_the_engines_are_the_scalar_transcription_block_for_block(engine, case):
    coeffs = _CASES[case]()
    assert np.array_equal(_transformed(engine, coeffs), _oracle(coeffs))


@pytest.mark.skipif(native_execute.LIBRARY is None, reason="no native execute")
def test_numpy_and_kernel_agree_on_every_single_coefficient():
    """All 64 positions x all 4 096 twelve-bit values, a position at a time
    (262 144 blocks), and a quarter million random sparse and dense ones."""
    stacks = [_single_coefficients(np.arange(dct.COEFF_MIN, dct.COEFF_MAX + 1))]
    stacks += [_random_stack(100_000, d, 20 + i) for i, d in enumerate((2 / 64, 8 / 64, 0.5))]
    stacks.append(_random_stack(50_000, 1.0, 24))
    for coeffs in stacks:
        assert np.array_equal(
            _transformed(dct._idct_numpy, coeffs), _transformed(native_execute.idct, coeffs)
        )


def test_the_transcription_is_mssg_on_blocks_whose_32_bit_int_cannot_wrap():
    """Spot values of the MSSG decoder on IEEE 1180-range input, where its
    ``int`` arithmetic is exact: a DC-only block is ``(8 dc + 32) >> 6``
    everywhere (``iclp[(blk[0] + 32) >> 6]`` after the row shortcut's
    ``blk[0] << 3``), and a zero block is zero."""
    for dc in (-300, -33, -4, -3, 0, 3, 4, 5, 300):
        block = np.zeros(64, dtype=np.int64)
        block[0] = dc
        assert chen_wang_idct(block) == [min(max((8 * dc + 32) >> 6, -256), 255)] * 64
    assert chen_wang_idct([0] * 64) == [0] * 64


# ---------------------------------------------------------------------- #
# IEEE 1180-1990, as the standard prints it
# ---------------------------------------------------------------------- #


class Ieee1180Rand:
    """The standard's ``rand(L, H)``: ``randx = randx * 1103515245 + 12345``
    in a 32-bit ``long``, ``i = randx & 0x7ffffffe``, ``x = i / (double)
    0x7fffffff * (L + H + 1)``, ``j = x`` truncated, ``return j - L``."""

    def __init__(self):
        self.randx = 1

    def __call__(self, low: int, high: int) -> int:
        self.randx = (self.randx * 1103515245 + 12345) & 0xFFFFFFFF
        i = self.randx & 0x7FFFFFFE
        x = i / float(0x7FFFFFFF)
        x *= low + high + 1
        return int(x) - low


def ieee_blocks(low: int, high: int, n: int) -> np.ndarray:
    """``n`` blocks of :class:`Ieee1180Rand` values from a fresh generator,
    in call order, the recurrence stepped 1 024 calls at a time
    (``randx[t + 1024] = A randx[t] + C`` mod 2**32)."""
    count, step, mod = 64 * n, 1024, 1 << 32
    state = np.empty(count, dtype=np.uint64)
    x = 1
    for t in range(min(step, count)):
        x = (x * 1103515245 + 12345) % mod
        state[t] = x
    a, c = 1, 0
    for _ in range(step):
        a, c = a * 1103515245 % mod, (c * 1103515245 + 12345) % mod
    for t in range(step, count, step):
        stop = min(t + step, count)
        state[t:stop] = (np.uint64(a) * state[t - step : stop - step] + np.uint64(c)) % np.uint64(mod)
    i = (state & np.uint64(0x7FFFFFFE)).astype(np.float64)
    x = i / float(0x7FFFFFFF) * (low + high + 1)
    return (x.astype(np.int64) - low).reshape(n, 8, 8)


# The float64 reference transform pair: row k of _C is DCT-II basis k.
_N = np.arange(8)
_C = np.where(_N == 0, np.sqrt(1 / 8), np.sqrt(2 / 8))[:, None] * np.cos(
    (2 * _N[None, :] + 1) * _N[:, None] * np.pi / 16
)


def _round(x):  # "round to the nearest integer", as the standard's program
    return np.floor(x + 0.5)


@pytest.mark.parametrize("low,high", [(256, 255), (5, 5), (300, 300)])
def test_the_generator_is_the_standards(low, high):
    rand = Ieee1180Rand()
    scalar = [rand(low, high) for _ in range(64 * 40)]
    assert ieee_blocks(low, high, 40).reshape(-1).tolist() == scalar
    assert min(scalar) >= -low and max(scalar) <= high


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("low,high", [(256, 255), (5, 5), (300, 300)])
def test_ieee_1180(engine, low, high, sign):
    """10 000 blocks of ``rand(-L, H)`` (negated for the second sign):
    reference FDCT in float64, rounded, clipped to 12 bits; reference IDCT
    of that in float64, rounded, clipped to [-256, 255]; the IDCT under
    test against it, sample for sample."""
    blocks = sign * ieee_blocks(low, high, 10_000)
    coeffs = np.clip(_round(_C @ blocks @ _C.T), -2048, 2047)
    reference = np.clip(_round(_C.T @ coeffs @ _C), -256, 255)
    error = _transformed(engine, coeffs.astype(np.int64)) - reference.astype(np.int64)
    assert np.abs(error).max() <= 1  # peak
    assert (error**2).mean(axis=0).max() <= 0.06  # per-pixel mean square
    assert (error**2).mean() <= 0.02  # overall mean square
    assert np.abs(error.mean(axis=0)).max() <= 0.015  # per-pixel mean
    assert abs(error.mean()) <= 0.0015  # overall mean


@pytest.mark.parametrize("engine", _ENGINES)
def test_ieee_1180_zero_in_zero_out(engine):
    assert not _transformed(engine, np.zeros((3, 8, 8), dtype=np.int64)).any()


class TestQuantization:
    def test_intra_roundtrip_bounded_error(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 256, (20, 8, 8)).astype(np.float64)
        co = dct.fdct(blocks)
        q = dct.quantize_intra(co, 4)
        rec = dct.idct(dct.dequantize_intra(q, 4))
        # Error bounded by ~half the largest quantizer step.
        assert np.max(np.abs(rec - blocks)) < 12

    def test_intra_dc_rule(self):
        """Intra DC quantizes by /8 regardless of qscale."""
        block = np.full((1, 8, 8), 200.0)
        co = dct.fdct(block)
        q = dct.quantize_intra(co, 62)
        assert q[0, 0, 0] == 200  # 1600 / 8
        deq = dct.dequantize_intra(q, 62)
        assert deq[0, 0, 0] == 1600

    def test_non_intra_dead_zone(self):
        """Small coefficients truncate to zero (dead zone)."""
        co = np.zeros((1, 8, 8))
        co[0, 1, 1] = 15.0  # below one step at qscale 16 (step = 16)
        q = dct.quantize_non_intra(co, 16)
        assert q[0, 1, 1] == 0

    def test_non_intra_roundtrip(self):
        rng = np.random.default_rng(1)
        resid = rng.integers(-100, 100, (20, 8, 8)).astype(np.float64)
        co = dct.fdct(resid)
        q = dct.quantize_non_intra(co, 8)
        rec = dct.idct(dct.dequantize_non_intra(q, 8))
        # effective step is 8 per coefficient; spatial error accumulates
        # across 64 coefficients but stays near one step
        assert np.max(np.abs(rec - resid)) < 12

    def test_levels_fit_escape_range(self):
        """Extreme inputs must still produce escapable levels."""
        block = np.zeros((1, 8, 8))
        block[0] = 255.0
        block[0, ::2, ::2] = -255.0 + 255  # harsh checkerboard-ish
        co = dct.fdct(block * 8)  # exaggerate
        q = dct.quantize_non_intra(co, 2)
        assert np.abs(q).max() <= 2047

    def test_dequantize_saturates(self):
        q = np.zeros((1, 8, 8), dtype=np.int32)
        q[0, 0, 0] = 2047
        deq = dct.dequantize_intra(q, 62)
        assert deq.max() <= dct.COEFF_MAX

    def test_sign_symmetry_non_intra(self):
        co = np.zeros((1, 8, 8))
        co[0, 2, 3] = 100.0
        qp = dct.quantize_non_intra(co, 8)
        qn = dct.quantize_non_intra(-co, 8)
        assert (qp == -qn).all()
        assert (dct.dequantize_non_intra(qp, 8) == -dct.dequantize_non_intra(qn, 8)).all()


def _toward_zero(a: int, b: int) -> int:
    """ISO 13818-2's ``/``: integer division truncating toward zero."""
    return -(-a // b) if a < 0 else a // b


# (level, weight, qscale, coefficient): products of negative levels just
# inside and just outside the divisor, where flooring would give one more
# in magnitude -- worked by hand, and again by _toward_zero in the test.
INTRA_VECTORS = [  # level * W * qscale / 16
    (-1, 15, 1, 0),  # -15 / 16: floor -1
    (-1, 16, 1, -1),  # exact
    (-1, 17, 1, -1),  # -17 / 16: floor -2
    (-3, 11, 1, -2),  # -33 / 16: floor -3
    (-5, 3, 2, -1),  # -30 / 16: floor -2
    (1, 17, 1, 1),
]
NON_INTRA_VECTORS = [  # (2 level + sign) * W * qscale / 32
    (-1, 10, 1, 0),  # -30 / 32: floor -1
    (-1, 11, 1, -1),  # -33 / 32: floor -2
    (-1, 16, 2, -3),  # -96 / 32: exact
    (-2, 7, 1, -1),  # -35 / 32: floor -2
    (-1, 21, 1, -1),  # -63 / 32: floor -2
    (1, 11, 1, 1),
]


class TestDequantisersTruncateTowardZero:
    """§7.4.2.3: ``/`` truncates toward zero, ``-7 / 4`` is ``-1``."""

    @pytest.mark.parametrize("level,weight,qscale,coefficient", INTRA_VECTORS)
    def test_intra(self, level, weight, qscale, coefficient):
        assert _toward_zero(level * weight * qscale, 16) == coefficient
        matrix = np.full((8, 8), weight, dtype=np.int32)
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 0, 1] = level
        assert dct.dequantize_intra(levels, qscale, matrix)[0, 0, 1] == coefficient
        sparse = dct.dequantize_intra_sparse(
            np.array([level], np.int16), np.array([1], np.uint8), np.array([qscale]),
            np.full(64, weight, dtype=np.int64),
        )
        assert sparse.tolist() == [coefficient]

    @pytest.mark.parametrize("level,weight,qscale,coefficient", NON_INTRA_VECTORS)
    def test_non_intra(self, level, weight, qscale, coefficient):
        sign = 1 if level > 0 else -1
        assert _toward_zero((2 * level + sign) * weight * qscale, 32) == coefficient
        matrix = np.full((8, 8), weight, dtype=np.int32)
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 2, 3] = level
        assert dct.dequantize_non_intra(levels, qscale, matrix)[0, 2, 3] == coefficient
        sparse = dct.dequantize_non_intra_sparse(
            np.array([level], np.int16), np.array([9], np.uint8), np.array([qscale]),
            np.full(64, weight, dtype=np.int64),
        )
        assert sparse.tolist() == [coefficient]


class TestScanOrder:
    def test_scan_block_roundtrip(self):
        rng = np.random.default_rng(0)
        block = rng.integers(-100, 100, (4, 8, 8))
        assert (dct.scan_to_block(dct.block_to_scan(block)) == block).all()

    def test_dc_first_in_scan(self):
        block = np.zeros((8, 8), dtype=np.int32)
        block[0, 0] = 42
        scan = dct.block_to_scan(block)
        assert scan[0] == 42
        assert (scan[1:] == 0).all()

    def test_low_frequencies_early(self):
        """Zigzag puts (0,1) and (1,0) right after DC."""
        block = np.zeros((8, 8), dtype=np.int32)
        block[0, 1] = 7
        block[1, 0] = 9
        scan = dct.block_to_scan(block)
        assert set(scan[1:3].tolist()) == {7, 9}


class TestRunLevels:
    def test_empty_block(self):
        assert dct.run_levels_from_scan(np.zeros(64, dtype=np.int32), False) == []

    def test_skip_dc(self):
        scan = np.zeros(64, dtype=np.int32)
        scan[0] = 99
        scan[3] = -5
        assert dct.run_levels_from_scan(scan, skip_dc=True) == [(2, -5)]
        assert dct.run_levels_from_scan(scan, skip_dc=False) == [(0, 99), (2, -5)]

    def test_roundtrip_with_dc(self):
        rng = np.random.default_rng(3)
        scan = np.zeros(64, dtype=np.int32)
        idx = rng.choice(np.arange(1, 64), size=10, replace=False)
        scan[idx] = rng.integers(1, 50, size=10)
        rl = dct.run_levels_from_scan(scan, skip_dc=True)
        back = dct.scan_from_run_levels(rl, dc=0)
        assert (back == scan).all()

    def test_overrun_rejected(self):
        with pytest.raises(ValueError):
            dct.scan_from_run_levels([(63, 1), (0, 1)], dc=None)


@given(
    hnp.arrays(np.int32, (64,), elements=st.integers(-40, 40)),
)
@settings(max_examples=100)
def test_run_level_roundtrip_property(scan):
    rl = dct.run_levels_from_scan(scan, skip_dc=False)
    back = dct.scan_from_run_levels(rl, dc=None)
    assert (back == scan).all()
