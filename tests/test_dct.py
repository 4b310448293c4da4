"""Transform layer: DCT/IDCT, quantization, scan ordering."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.mpeg2 import dct


class TestTransform:
    def test_idct_inverts_fdct(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 256, (10, 8, 8)).astype(np.float64)
        back = dct.idct(dct.fdct(blocks))
        assert np.allclose(back, blocks, atol=1e-9)

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

    def test_idct_over_its_input_gives_the_same_bits(self):
        rng = np.random.default_rng(3)
        coeffs = rng.integers(-2048, 2048, (300, 8, 8)).astype(np.float64)
        kept = coeffs.copy()
        want = dct.idct(coeffs)
        assert np.array_equal(coeffs, kept)  # the default leaves its input alone
        assert np.array_equal(dct.idct(kept, overwrite=True), want)


def _single_coefficient_stacks():
    """All 64 positions x all 4 096 twelve-bit values, a position at a time."""
    values = np.arange(dct.COEFF_MIN, dct.COEFF_MAX + 1, dtype=np.float64)
    for position in range(64):
        stack = np.zeros((len(values), 64))
        stack[:, position] = values
        yield stack.reshape(-1, 8, 8)


def _random_stacks(n_blocks, density, seed):
    rng = np.random.default_rng(seed)
    for _ in range(0, n_blocks, 4096):
        levels = rng.integers(dct.COEFF_MIN, dct.COEFF_MAX + 1, (4096, 8, 8))
        yield np.where(rng.random((4096, 8, 8)) < density, levels, 0).astype(np.float64)


class TestTransformSplit:
    """The native execute phase (``repro.mpeg2.native_execute``) does not
    call ``dct.idct``: it runs scipy's 1-D IDCT down the block columns that
    hold a nonzero coefficient, scatters them into a zeroed stack and runs it
    along the rows.  That is ``dct.idct`` float for float -- as bit patterns,
    not to a tolerance -- only because pocketfft's ``idctn`` makes the same
    two passes in that order; a scipy that did otherwise must fail here, not
    as a wrong digest in the field."""

    @staticmethod
    def _columns_then_rows(stack):
        lines = stack.transpose(0, 2, 1)  # (block, column, row)
        held = lines.any(axis=-1)
        assert 0 < held.sum() <= held.size
        piece = np.zeros_like(stack)
        piece.transpose(0, 2, 1)[held] = scipy.fft.idct(
            np.ascontiguousarray(lines[held]), axis=-1, norm="ortho", overwrite_x=True
        )
        return scipy.fft.idct(piece, axis=-1, norm="ortho", overwrite_x=True)

    @staticmethod
    def _same_bits(a, b):
        return np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize(
        "stacks",
        [
            pytest.param(_single_coefficient_stacks, id="single-coefficient"),
            pytest.param(lambda: _random_stacks(400_000, 4 / 64, 11), id="sparse"),
            pytest.param(lambda: _random_stacks(100_000, 1.0, 12), id="dense"),
        ],
    )
    def test_compacted_column_pass_then_row_pass_is_idct_bit_for_bit(self, stacks):
        for stack in stacks():
            assert self._same_bits(self._columns_then_rows(stack), dct.idct(stack))

    def test_rows_then_columns_is_not(self):
        """Which is why the kernel compacts columns and not rows: the other
        order is the same transform to a tolerance and another one in the
        last place (about half the words of dense blocks), so it could move
        a sample that falls within an ulp of a half across the rounding."""
        differing = 0
        for stack in _random_stacks(20_000, 1.0, 12):
            swapped = scipy.fft.idct(
                scipy.fft.idct(stack, axis=-1, norm="ortho"), axis=-2, norm="ortho"
            )
            want = dct.idct(stack)
            assert np.allclose(swapped, want, atol=1e-9)
            differing += int((swapped.view(np.uint64) != want.view(np.uint64)).sum())
        assert differing > 0


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
