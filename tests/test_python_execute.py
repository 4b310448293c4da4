"""The execute suite again, on the numpy body.

``batch_reconstruct.execute_plan`` reconstructs through the native kernel
when this platform could build it and through its numpy body when not;
``src/`` has no switch between them.  ``tests/test_batch_reconstruct.py``
names the kernel; this module collects the same cases and names the numpy
body (conftest's ``execute_engine`` reads ``EXECUTE_ENGINE`` from the
collecting module), so both engines meet every oracle, golden stream and
hypothesis sweep whichever one serves -- and the numpy body stays the
specification the kernel is held to, not a fallback that only a
compiler-less machine runs.
"""

from tests.test_batch_reconstruct import *  # noqa: F401,F403 - its cases and fixtures

EXECUTE_ENGINE = "python"
