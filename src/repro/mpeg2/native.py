"""Build, cache and load a C kernel that ships as source beside this file.

Two modules have one: :mod:`repro.mpeg2.native_walk` (``_walk.c``, the slice
walk) and :mod:`repro.mpeg2.native_execute` (``_execute.c``, the execute
phase).  :func:`load` tries to make a source file's library available, in
this order:

1. the library cached beside the source, under a name that carries the
   machine and the source's CRC-32 (so an edited source is never served by a
   stale build, and the file is never committed: ``.gitignore``);
2. on a miss, ``$CC`` or ``cc`` with ``-O2 -shared -fPIC`` (no Python
   headers), into that cache by an atomic rename -- or, when the package
   directory cannot be written, into a temporary directory that is removed
   once the library is mapped;
3. otherwise nothing: the caller gets ``None`` and why, and runs the Python
   it has a port of -- the specification the kernel is held to, and the only
   engine on such a platform.

There is no switch: which engine serves is what the process could observe.
A compiler that *fails* is reported once on stderr; nothing here raises.
"""

from __future__ import annotations

import ctypes
import os
import sys
from binascii import crc32
from typing import Optional, Tuple

_CFLAGS = ("-O2", "-shared", "-fPIC")


def _compile(source: str, target: str, instead: str) -> Optional[str]:
    """Build ``source`` into ``target`` (atomically: compile next to it,
    then rename).  Returns why not, or ``None``."""
    import shlex
    import subprocess
    import tempfile

    prefix = os.path.basename(target).split("-", 1)[0] + "-"
    fd, scratch = tempfile.mkstemp(suffix=".tmp", prefix=prefix, dir=os.path.dirname(target))
    os.close(fd)
    try:
        command = [*shlex.split(os.environ.get("CC") or "cc"), *_CFLAGS, "-o", scratch, source]
        try:
            done = subprocess.run(command, capture_output=True, text=True)
        except OSError:
            return "no compiler"
        if done.returncode:
            output = (done.stderr or done.stdout).strip()
            print(f"repro: {' '.join(command)} failed; {instead}\n{output}", file=sys.stderr)
            return f"compile failed: {command[0]} exited {done.returncode}"
        os.replace(scratch, target)
        return None
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def load(source: str, instead: str) -> Tuple[Optional[ctypes.CDLL], str]:
    """``(the library of C file ``source``, its path)``, or ``(None, why
    there is none)``; ``instead`` is what a failed compile's stderr report
    says the process does without it."""
    stem = os.path.splitext(os.path.basename(source))[0]
    try:
        with open(source, "rb") as text:
            name = f"{stem}-{os.uname().machine}-{crc32(text.read()):08x}.so"
    except (OSError, AttributeError) as exc:  # no package data; no ``os.uname``
        return None, f"load failed: {exc}"
    directory, scratch_dir = os.path.dirname(source), None
    try:
        if not os.path.exists(os.path.join(directory, name)):
            if not os.access(directory, os.W_OK):
                import tempfile

                directory = scratch_dir = tempfile.mkdtemp(prefix=f"repro{stem}-")
            failure = _compile(source, os.path.join(directory, name), instead)
            if failure:
                return None, failure
        path = os.path.join(directory, name)
        return ctypes.CDLL(path), path
    except OSError as exc:
        return None, f"load failed: {exc}"
    finally:
        if scratch_dir is not None:  # the mapping outlives the file
            import shutil

            shutil.rmtree(scratch_dir, ignore_errors=True)


def engine(library: Optional[ctypes.CDLL], status: str) -> str:
    """How a module names its engine for ``repro info`` and the cluster
    trace: ``native (<path>)`` or ``python (<reason>)``."""
    return f"native ({status})" if library is not None else f"python ({status})"
