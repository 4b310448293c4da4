"""The parser suites again, on the Python slice loop.

``MacroblockParser.parse_picture`` walks slices with the native kernel when
this platform could build it and with ``fast_vlc.parse_slice_columns`` when
not; ``src/`` has no switch between them.  ``tests/test_columnar_parse.py``
and ``tests/test_intra_vlc_format.py::TestEndToEnd`` name the kernel; this
module collects the same cases and names the loop (conftest's
``parse_engine`` reads ``PARSE_ENGINE`` from the collecting module), so
both engines meet every differential, truncation, bit flip and golden
digest whichever one serves -- and the loop stays the specification the
kernel is held to, not a fallback that only a compiler-less machine runs.
"""

from tests.test_columnar_parse import *  # noqa: F401,F403 - its cases and fixtures
from tests.test_intra_vlc_format import TestEndToEnd  # noqa: F401

PARSE_ENGINE = "python"
