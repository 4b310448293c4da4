"""Shared fixtures: small synthetic clips and encoded streams.

Encoding is the slow part of the functional tests, so streams are encoded
once per session and shared; tests must treat them as immutable.
"""

from __future__ import annotations

import pytest

from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.workloads.synthetic import (
    fish_tank_frames,
    localized_detail_frames,
    moving_pattern_frames,
)


def make_frames(width=96, height=64, n=8, kind="pattern", seed=0):
    gen = {
        "pattern": moving_pattern_frames,
        "detail": localized_detail_frames,
        "fish": fish_tank_frames,
    }[kind]
    return gen(width, height, n, seed=seed) if kind != "detail" else gen(
        width, height, n, seed=seed
    )


@pytest.fixture(autouse=True)
def _fresh_channel_rollup():
    """The closed-channel stats rollup is process-global and cumulative by
    design; tests must not see the previous test's wire totals."""
    from repro.perf.telemetry import reset_closed_channels

    reset_closed_channels()
    yield
    reset_closed_channels()


@pytest.fixture
def parse_engine(request, monkeypatch):
    """Run the test on the parse engine its module names in ``PARSE_ENGINE``
    (``"native"`` or ``"python"``, see ``tests.oracles.use_parse_engine``).
    The parser suites opt in with ``usefixtures``; ``tests/
    test_python_engine.py`` collects the same cases under the other name."""
    from tests.oracles import use_parse_engine

    use_parse_engine(request.module.PARSE_ENGINE, monkeypatch)
    return request.module.PARSE_ENGINE


@pytest.fixture(scope="module")
def plan_engine(request):
    """Run the module's tests on the plan engine it names in ``PLAN_ENGINE``
    (``"native"`` or ``"python"``, see ``tests.oracles.use_plan_engine``).
    The plan suites opt in with ``usefixtures``; ``tests/
    test_python_engine.py`` collects the same cases under the other name.
    Module-scoped, so the suites' module-scoped fixtures (splitters and the
    plans they compile once) are built under it too."""
    from tests.oracles import use_plan_engine

    with pytest.MonkeyPatch.context() as patch:
        use_plan_engine(request.module.PLAN_ENGINE, patch)
        yield request.module.PLAN_ENGINE


@pytest.fixture
def execute_engine(request, monkeypatch):
    """Run the test on the execute phase its module names in
    ``EXECUTE_ENGINE`` (``"native"`` or ``"python"``, see
    ``tests.oracles.use_execute_engine``).  ``tests/test_batch_reconstruct.py``
    opts in with ``usefixtures``; ``tests/test_python_execute.py`` collects the
    same cases under the other name."""
    from tests.oracles import use_execute_engine

    use_execute_engine(request.module.EXECUTE_ENGINE, monkeypatch)
    return request.module.EXECUTE_ENGINE


@pytest.fixture(scope="session")
def small_frames():
    """8 frames of 96x64 panning content."""
    return make_frames()


@pytest.fixture(scope="session")
def small_stream(small_frames):
    """Encoded IBBP stream of the small clip."""
    enc = Encoder(EncoderConfig(gop_size=6, b_frames=2, search_range=7))
    return enc.encode(small_frames)


@pytest.fixture(scope="session")
def ip_stream(small_frames):
    """I/P-only stream (no B pictures)."""
    enc = Encoder(EncoderConfig(gop_size=4, b_frames=0, search_range=7))
    return enc.encode(small_frames)


@pytest.fixture(scope="session")
def i_only_stream(small_frames):
    """All-intra stream."""
    enc = Encoder(EncoderConfig(gop_size=1, b_frames=0))
    return enc.encode(small_frames[:4])


@pytest.fixture(scope="session")
def detail_frames():
    """Localized-detail content (Orion-like), 128x96."""
    return make_frames(128, 96, 7, kind="detail", seed=3)


@pytest.fixture(scope="session")
def detail_stream(detail_frames):
    enc = Encoder(EncoderConfig(gop_size=7, b_frames=2, search_range=7))
    return enc.encode(detail_frames)


@pytest.fixture(scope="session")
def flat_frame():
    return Frame.blank(64, 48, y=100, c=128)


def assert_frames_equal(a, b, context=""):
    __tracebackhide__ = True
    assert a.y.shape == b.y.shape, f"{context}: luma shapes differ"
    diff = a.max_abs_diff(b)
    assert diff == 0, f"{context}: frames differ by up to {diff}"
