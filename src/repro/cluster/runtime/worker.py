"""Worker process entrypoint: ``python -m repro.cluster.runtime.worker``.

The supervisor spawns one of these per cluster role.  The worker reads
the run directory's ``cluster.json``, imports the one role it was named
for, opens its own JSONL trace stream, and runs the role; any uncaught
exception is traced, printed to stderr (which the supervisor captures to
``{name}.log``), and converted to a nonzero exit code — the supervisor's
authoritative failure signal.

A one-GOP job is mostly cold start, and cold start is mostly imports, so
this module dispatches first and imports second: what it needs before it
knows its role is the standard library, the config and the trace writer.
A root never loads the splitter's plan compiler, neither loads the
decoder's transform (``scipy.fft``), and none of them loads the encoder,
the simulator or the supervisor (``tests/test_import_graph.py`` holds the
line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, List, Optional

from repro.cluster.runtime.config import CONFIG_FILE, WallConfig
from repro.perf.trace import TRACE_SUFFIX, TraceWriter


def _pin(cfg: WallConfig, name: str) -> None:
    """Pin this worker to one core, round-robin over the affinity mask.

    Decoders are the hot processes, so they claim cores first (one each,
    wrapping); root and the splitters share the remaining slots.  On a
    box with fewer cores than workers this degrades to plain sharing —
    pinning never *removes* parallelism, it only stops the scheduler from
    stacking two decoders on one core while another sits idle.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return
    order = [f"dec{t}" for t in range(cfg.n_tiles)] + [
        "root"
    ] + [f"split{s}" for s in range(cfg.k)]
    try:
        idx = order.index(name)
    except ValueError:
        return
    os.sched_setaffinity(0, {cores[idx % len(cores)]})


def load_role(name: str) -> Callable[[WallConfig, Path, TraceWriter], None]:
    """Import the role process ``name`` runs — and nothing the others need —
    and return it as ``run(cfg, rundir, tracer)``."""
    kind = name.rstrip("0123456789")
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


def main(argv: Optional[List[str]] = None) -> int:
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
            # ``start`` means "imported and about to connect": the time from
            # the supervisor's ``spawn`` event to this one is the worker's
            # cold start, and ``import_s`` is how much of it this process
            # can account for itself (interpreter boot + every import).
            started = {"pid": os.getpid(), "role": name.rstrip("0123456789")}
            age = _process_age_s()
            if age is not None:
                started["import_s"] = round(age, 3)
            tracer.emit("start", **started)
            run(cfg, rundir, tracer)
            tracer.emit("exit")
        except Exception as exc:
            tracer.emit("error", error=repr(exc))
            traceback.print_exc(file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
