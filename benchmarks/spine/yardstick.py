"""How fast is the box right now?  A fixed piece of work, timed.

The benchmark's box is two vCPUs of a shared host, and the host's mood
changes: for minutes at a time *everything* — the encoder in set-up, a
pure-Python loop, a numpy gather — runs 10 % to 120 % slower, wall and CPU
seconds alike, with no steal time reported.  Ten runs of the same code then
spread by half their median, and a 25 % bound means nothing.

So the timed intervals of a run are interleaved with yardstick samples:
a fixed amount of interpreter work plus a fixed amount of numpy work, in the
decoder's own mix (small objects built and walked in Python; gather, widen,
clip, narrow and 8x8 block products in numpy).  A sample's speed is the nominal sample time
over the measured one, 1.0 on the box this was written on in its calm
state; a run's speed is the median of its samples, and every timing of the
run is reported as the same work would have read at speed 1.0: seconds are
multiplied by the run's speed, rates divided by it.

The yardstick is the benchmark's own code.  It calls nothing under
``src/repro``, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

#: Seconds one sample takes on the reference box in its calm state.  A
#: constant of the benchmark: changing it rescales every timing ever taken.
NOMINAL_S = 0.0470

_PY_ROUNDS = 24
_PY_ITEMS = 2_500
_NP_ROUNDS = 24


class Yardstick:
    """``sample()`` between timed intervals; ``speed()`` is the median of
    the samples: the host's speed over the run they were spread over."""

    def __init__(self) -> None:
        # Fixed pseudo-random contents (a multiplicative hash of the index),
        # ~5 MB in all: small beside any workload's peak_rss_mb.
        scatter = np.arange(1 << 18, dtype=np.int64) * 2654435761
        self._pixels = np.resize((scatter >> 9).astype(np.uint8), 1 << 21)
        self._where = scatter % (1 << 21)
        self._coef = ((scatter[: 2048 * 64] >> 5) % 511 - 255).astype(np.float32).reshape(-1, 8, 8)
        self._basis = np.cos(np.arange(64, dtype=np.float32).reshape(8, 8))
        self.speeds: List[float] = []
        self.sample()  # page in the arrays, warm the interpreter
        self.speeds.clear()

    @staticmethod
    def _python_part() -> None:
        # many small objects built, then walked: what a parsed picture is
        for _ in range(_PY_ROUNDS):
            items = [(i, [i & 7, i >> 3], {"mb": i}) for i in range(_PY_ITEMS)]
            total = 0
            for address, pair, fields in items:
                total += address + pair[1] + fields["mb"]

    def _numpy_part(self) -> None:
        for _ in range(_NP_ROUNDS):
            g = self._pixels[self._where].astype(np.int16)
            g += 3
            np.clip(g, 0, 255, out=g)
            g.astype(np.uint8)
            self._basis @ self._coef @ self._basis.T

    def sample(self) -> None:
        """Each part twice, the faster of the two counts: one part is
        ~25 ms, short enough for a single interrupt to show.  Garbage
        collection is off meanwhile — where a collection falls depends on
        what the workload allocated before, and it triples the spread."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            seconds = 0.0
            for part in (self._python_part, self._numpy_part):
                best = float("inf")
                for _ in range(2):
                    t0 = time.perf_counter()
                    part()
                    best = min(best, time.perf_counter() - t0)
                seconds += best
        finally:
            if was_enabled:
                gc.enable()
        self.speeds.append(NOMINAL_S / seconds)

    def speed(self) -> float:
        return statistics.median(self.speeds)
