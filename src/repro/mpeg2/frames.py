"""YCbCr 4:2:0 frame container and pixel-domain utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpeg2.constants import MB_SIZE


@dataclass
class Frame:
    """One video frame in planar YCbCr 4:2:0.

    ``y`` is ``(height, width)`` uint8; ``cb``/``cr`` are
    ``(height // 2, width // 2)`` uint8.  Dimensions must be multiples of 16
    (the encoder pads content to macroblock alignment before coding).
    """

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray

    def __post_init__(self) -> None:
        h, w = self.y.shape
        if h % MB_SIZE or w % MB_SIZE:
            raise ValueError(f"frame size {w}x{h} not macroblock aligned")
        if self.cb.shape != (h // 2, w // 2) or self.cr.shape != (h // 2, w // 2):
            raise ValueError("chroma planes are not 4:2:0 subsampled")
        for plane in (self.y, self.cb, self.cr):
            if plane.dtype != np.uint8:
                raise ValueError("planes must be uint8")

    # ------------------------------------------------------------------ #

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def mb_width(self) -> int:
        return self.width // MB_SIZE

    @property
    def mb_height(self) -> int:
        return self.height // MB_SIZE

    @property
    def n_macroblocks(self) -> int:
        return self.mb_width * self.mb_height

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    # ------------------------------------------------------------------ #

    @classmethod
    def blank(cls, width: int, height: int, y: int = 16, c: int = 128) -> "Frame":
        """A uniform frame (defaults to black in video range)."""
        return cls(
            y=np.full((height, width), y, dtype=np.uint8),
            cb=np.full((height // 2, width // 2), c, dtype=np.uint8),
            cr=np.full((height // 2, width // 2), c, dtype=np.uint8),
        )

    @classmethod
    def uninitialised(cls, width: int, height: int) -> "Frame":
        """A frame of whatever the allocator returned, for a caller that
        will write every sample (and has checked that it will)."""
        return cls(
            y=np.empty((height, width), dtype=np.uint8),
            cb=np.empty((height // 2, width // 2), dtype=np.uint8),
            cr=np.empty((height // 2, width // 2), dtype=np.uint8),
        )

    @classmethod
    def from_planes(cls, y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> "Frame":
        return cls(
            y=np.ascontiguousarray(y, dtype=np.uint8),
            cb=np.ascontiguousarray(cb, dtype=np.uint8),
            cr=np.ascontiguousarray(cr, dtype=np.uint8),
        )

    def copy(self) -> "Frame":
        return Frame(self.y.copy(), self.cb.copy(), self.cr.copy())

    # ------------------------------------------------------------------ #
    # comparisons
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.cb, other.cb)
            and np.array_equal(self.cr, other.cr)
        )

    def max_abs_diff(self, other: "Frame") -> int:
        """Largest per-sample difference across all three planes."""
        return max(
            int(np.max(np.abs(self.y.astype(np.int16) - other.y.astype(np.int16)), initial=0)),
            int(np.max(np.abs(self.cb.astype(np.int16) - other.cb.astype(np.int16)), initial=0)),
            int(np.max(np.abs(self.cr.astype(np.int16) - other.cr.astype(np.int16)), initial=0)),
        )

    # ------------------------------------------------------------------ #
    # macroblock access
    # ------------------------------------------------------------------ #

    def mb_luma(self, mb_x: int, mb_y: int) -> np.ndarray:
        """View of the 16x16 luma samples of macroblock (mb_x, mb_y)."""
        return self.y[
            mb_y * MB_SIZE : (mb_y + 1) * MB_SIZE,
            mb_x * MB_SIZE : (mb_x + 1) * MB_SIZE,
        ]

    def mb_chroma(self, mb_x: int, mb_y: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the 8x8 Cb and Cr samples of macroblock (mb_x, mb_y)."""
        sl = (
            slice(mb_y * 8, (mb_y + 1) * 8),
            slice(mb_x * 8, (mb_x + 1) * 8),
        )
        return self.cb[sl], self.cr[sl]


def psnr(a: Frame, b: Frame) -> float:
    """Luma PSNR in dB between two frames (inf for identical planes)."""
    diff = a.y.astype(np.float64) - b.y.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)


def pad_to_macroblocks(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> Frame:
    """Edge-pad arbitrary-size planes up to macroblock-aligned dimensions."""
    h, w = y.shape
    ph = (MB_SIZE - h % MB_SIZE) % MB_SIZE
    pw = (MB_SIZE - w % MB_SIZE) % MB_SIZE
    if ph or pw:
        y = np.pad(y, ((0, ph), (0, pw)), mode="edge")
        cb = np.pad(cb, ((0, ph // 2), (0, pw // 2)), mode="edge")
        cr = np.pad(cr, ((0, ph // 2), (0, pw // 2)), mode="edge")
    return Frame.from_planes(y, cb, cr)
