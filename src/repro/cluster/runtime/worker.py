"""The worker process: one per cluster role.

:func:`main` is the worker's whole body.  It reads the run directory's
``cluster.json``, imports the one role it was named for, opens its own
JSONL trace stream, and runs the role; any uncaught exception is traced,
printed to stderr (``{name}.log``), and converted to a nonzero exit code —
the supervisor's authoritative failure signal.

The supervisor does not boot an interpreter per worker: it imports the
roles once and ``fork()``s, and the child enters through
:func:`run_forked`, which turns the copy of the supervisor into a process
of its own (stdio, descriptors, cwd, GC, signals), calls :func:`main` and
leaves through ``os._exit``.  ``python -m repro.cluster.runtime.worker`` runs
the same :func:`main` in a fresh interpreter — the hand-debug entry.  For
that entry this module still dispatches first and imports second: a root
never loads the splitter's plan compiler, neither loads the decoder's
transform (``dct`` and the execute kernel), and none of them loads the encoder, the
simulator or the supervisor (``tests/test_import_graph.py`` holds the
line).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, List, NoReturn, Optional

from repro.cluster.runtime.config import CONFIG_FILE, WallConfig
from repro.perf.trace import TRACE_SUFFIX, TraceWriter


def _pin(cfg: WallConfig, name: str) -> None:
    """Pin this worker to a core of its own, decoders first.

    Only where every worker gets one: with fewer cores than workers a
    hard pin stacks a decoder onto the splitter's core for the whole run
    (the lone splitter is the critical stage on almost every picture), so
    there placement is left to the scheduler — pinning must never *remove*
    parallelism, only stop two decoders sharing a core while another idles.
    """
    cores = sorted(os.sched_getaffinity(0))
    order = [f"dec{t}" for t in range(cfg.n_tiles)] + [
        "root"
    ] + [f"split{s}" for s in range(cfg.k)]
    if len(cores) < len(order) or name not in order:
        return
    os.sched_setaffinity(0, {cores[order.index(name)]})


def role_kind(name: str) -> str:
    """``"dec"`` for ``"dec3"``: a process name without its index."""
    return name.rstrip("0123456789")


def load_role(name: str) -> Callable[[WallConfig, Path, TraceWriter], None]:
    """Import the role process ``name`` runs — and nothing the others need —
    and return it as ``run(cfg, rundir, tracer)``."""
    kind = role_kind(name)
    index = name[len(kind):]
    if name == "root":
        from repro.cluster.runtime.root import run_root

        return run_root
    if kind == "split" and index:
        from repro.cluster.runtime.splitter import run_splitter

        return lambda cfg, rundir, tracer: run_splitter(cfg, rundir, int(index), tracer)
    if kind == "dec" and index:
        from repro.cluster.runtime.decoder import run_decoder

        return lambda cfg, rundir, tracer: run_decoder(cfg, rundir, int(index), tracer)
    raise ValueError(f"unknown worker name {name!r}")


def _process_age_s() -> Optional[float]:
    """Seconds since this process was created, or None where the kernel
    does not say (``/proc/self/stat`` field 22 against ``CLOCK_BOOTTIME``,
    so Linux only, in clock ticks — 10 ms)."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # the command name (field 2) may contain spaces: count from ")"
            start_ticks = int(fh.read().rsplit(b")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf(
            "SC_CLK_TCK"
        )
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def _extra_fds() -> Optional[List[int]]:
    """The descriptors this process holds beyond stdio, or None where the
    kernel does not list them (``/proc/self/fd``: Linux)."""
    try:
        fds = [int(fd) for fd in os.listdir("/proc/self/fd")]
    except OSError:
        return None
    # the listing's own descriptor was among them and is closed again
    return sorted(
        fd for fd in fds if fd > 2 and os.path.exists(f"/proc/self/fd/{fd}")
    )


def main(argv: Optional[List[str]] = None) -> int:
    inherited_fds = _extra_fds()  # before this process opens anything itself
    ap = argparse.ArgumentParser(prog="repro-cluster-worker")
    ap.add_argument("--dir", required=True, help="run directory (rendezvous root)")
    ap.add_argument("--name", required=True, help="process name, e.g. dec3")
    args = ap.parse_args(argv)

    rundir = Path(args.dir)
    name = args.name
    cfg = WallConfig.from_dict(
        json.loads((rundir / CONFIG_FILE).read_text())["config"]
    )
    if cfg.pin_cores and hasattr(os, "sched_setaffinity"):
        _pin(cfg, name)
    # Context manager: even if the role body raises (or the emit of the
    # error event itself fails), the file handle is closed and the last
    # buffered line flushed — a crashing worker cannot leak the handle.
    with TraceWriter(
        rundir / f"{name}{TRACE_SUFFIX}", name, spans=cfg.telemetry
    ) as tracer:
        try:
            run = load_role(name)
            # ``start`` means "role loaded and about to connect": the time
            # from the supervisor's ``spawn`` event to this one is the
            # worker's cold start, and ``import_s`` is this process's age —
            # a few ms after a fork, interpreter boot plus every import for
            # ``python -m``.  ``inherited_fds`` is what it was handed beyond
            # stdio: a leaked socket would keep a dead peer's connection
            # open, so the list must be empty.  ``parse_engine`` is the slice
            # walk this process parses with; ``columns_engine``, in the roles
            # that parse pictures and build or check plans, what turns its
            # records into columns and those into plans; ``execute_engine``,
            # in the role that executes plans, what it reconstructs with.
            from repro.mpeg2.native_walk import engine  # every role's parser loaded it

            started = {"pid": os.getpid(), "role": role_kind(name), "parse_engine": engine()}
            if role_kind(name) in ("split", "dec"):
                from repro.mpeg2 import native_columns  # its parser and plan loaded it

                started["columns_engine"] = native_columns.engine()
            if role_kind(name) == "dec":
                from repro.mpeg2 import native_execute  # its batch_reconstruct loaded it

                started["execute_engine"] = native_execute.engine()
            age = _process_age_s()
            if age is not None:
                started["import_s"] = round(age, 3)
            if inherited_fds is not None:
                started["inherited_fds"] = inherited_fds
            tracer.emit("start", **started)
            run(cfg, rundir, tracer)
            # what the harness must find again in RUSAGE_CHILDREN
            tracer.emit("exit", cpu_s=round(time.process_time(), 4))
        except Exception as exc:
            tracer.emit("error", error=repr(exc))
            traceback.print_exc(file=sys.stderr)
            return 1
    return 0


#: The parent's stdio objects, kept referenced in a forked child so that
#: none is finalised there (it would close a descriptor number the child
#: has reused).
_PARENT_STDIO: list = []


def _become_a_process(rundir: Path, name: str) -> None:
    """Make a fresh ``fork()`` of the supervisor a process of its own.

    The order matters.  Stdio first, so whatever fails later is in the
    log.  Then every other descriptor goes: an inherited collector
    listener, channel or trace file would keep a connection open after
    its real owner closed it (no EOF, no ``closed`` event), and a pytest
    capture file would take the worker's output.  ``gc.freeze`` comes
    after the close: the parent's objects still believe they own those
    descriptor numbers, the child is about to reuse them, so a collection
    must never finalise one.
    """
    stdin = os.open(os.devnull, os.O_RDONLY)
    log = os.open(
        rundir / f"{name}.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
    )
    os.dup2(stdin, 0)
    os.dup2(log, 1)
    os.dup2(log, 2)
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    _PARENT_STDIO.extend((sys.stdin, sys.stdout, sys.stderr))
    sys.stdin = open(0, closefd=False)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", closefd=False)
    os.chdir(rundir)
    gc.freeze()
    # The host program's signal handlers are not ours: ``terminate()`` must
    # terminate.  (The forking thread is this process's main thread now.)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def run_forked(rundir: Path, name: str) -> NoReturn:
    """The child side of the supervisor's ``fork()``: :func:`main`, then
    ``os._exit`` — whatever happens.  The child shares the caller's stack,
    ``atexit`` list and (under pytest) test session; returning or raising
    here would run all of them a second time."""
    rc = 1
    try:
        _become_a_process(rundir, name)
        rc = main(["--dir", str(rundir), "--name", name])
    except BaseException:  # noqa: BLE001 - nothing may unwind past the fork
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(rc)


if __name__ == "__main__":
    sys.exit(main())
