"""The parser and plan suites again, on the Python engines.

``MacroblockParser.parse_picture`` parses with the native kernels (the slice
walk and the columns behind it, one foreign call) when this platform could
build them, and with ``fast_vlc.parse_slice_columns`` + numpy's
``expand_entries`` / ``_columns`` when not; plans are checked and assembled
by ``_columns.c`` or by numpy's ``_check_vectors`` / ``assemble_plan``
likewise.  ``src/`` has no switch between them.  ``tests/
test_columnar_parse.py``, ``tests/test_intra_vlc_format.py::TestEndToEnd``,
``tests/test_mb_splitter.py`` and ``tests/test_plan_codec.py`` name the
kernels; this module collects the same cases -- and the plan-building half of
``tests/test_batch_reconstruct.py`` -- and names the Python engines
(conftest's ``parse_engine`` / ``plan_engine`` read ``PARSE_ENGINE`` /
``PLAN_ENGINE`` from the collecting module), so both meet every differential
(object parser, ``compile_plans_reference``, ``PlanBuilder``), truncation,
bit flip and golden digest whichever one serves -- and the Python stays the
specification the kernels are held to, not a fallback that only a
compiler-less machine runs.
"""

import pytest

from tests.test_batch_reconstruct import (  # noqa: F401 - the cases that build plans
    test_batched_matches_reference_all_intra,
    test_batched_matches_reference_ibbp,
    test_batched_matches_reference_ip_only,
    test_batched_tiled_matches_sequential_reference,
    test_plans_decoded_from_the_wire_execute_as_read_only_views,
    test_random_gop_batched_identical,
    test_rect_plans_equal_the_whole_picture_inside_the_rect,
)
from tests.test_columnar_parse import *  # noqa: F401,F403 - its cases and fixtures
from tests.test_intra_vlc_format import TestEndToEnd  # noqa: F401
from tests.test_mb_splitter import *  # noqa: F401,F403
from tests.test_plan_codec import *  # noqa: F401,F403

PARSE_ENGINE = PLAN_ENGINE = "python"
pytestmark = pytest.mark.usefixtures("parse_engine", "plan_engine")
