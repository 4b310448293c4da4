"""Child-process entry point of the measurement spine.

``run.py`` starts one child per fixture build and one per workload run, so
allocator state and ``peak_rss_mb`` are per workload and the BLAS thread
pins in the child's environment take effect before numpy loads.  Each
command prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    b = sub.add_parser("build")
    b.add_argument("--fixture", required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--dir", type=Path, required=True)
    b.add_argument("--quick", action="store_true")
    for name in ("run", "ablate"):
        r = sub.add_parser(name)
        r.add_argument("--workload", required=True)
        r.add_argument("--dir", type=Path, required=True, help="built fixtures")
        r.add_argument("--work", type=Path, required=True, help="scratch directory")
        r.add_argument("--seconds", type=float, required=True)
        r.add_argument("--repeats", type=int)
        r.add_argument("--trace", type=int, choices=(0, 1), default=0)
        r.add_argument("--spans", type=Path)
    args = ap.parse_args()

    from yardstick import Yardstick

    # One sample before and one after whatever this process times; the
    # workloads add one between their jobs.  Every timing is reported as it
    # would read at host speed 1.0 (see yardstick.py).
    yardstick = Yardstick()
    yardstick.sample()

    if args.cmd == "build":
        from fixtures import build_fixture

        fx = build_fixture(args.fixture, args.seed, args.quick)
        yardstick.sample()
        fx.save(args.dir)
        speed = yardstick.speed()
        print(json.dumps(
            {"setup_s": fx.setup_s * speed, "host_speed": speed, "profile": fx.profile}
        ))
        return 0

    import workloads
    from fixtures import Fixture
    from names import WORKLOAD_FIXTURE

    ctx = workloads.Context(
        fixture=Fixture.load(args.dir.resolve(), WORKLOAD_FIXTURE[args.workload]),
        workdir=args.work.resolve(),
        seconds=args.seconds,
        repeats=args.repeats,
        cores=len(os.sched_getaffinity(0)),
        yardstick=yardstick,
        spans_out=args.spans,
    )
    if args.cmd == "ablate":
        print(json.dumps(workloads.run_ablations(ctx)))
        return 0
    res = workloads.RUNNERS[args.workload][args.trace](ctx)
    yardstick.sample()
    speed = yardstick.speed()
    if args.trace:
        res.layer["host.speed"] = speed  # per-layer timings are as measured
    print(
        json.dumps(
            {
                "samples": res.at_nominal_speed(speed),
                "host_speed": speed,
                "layer": res.layer,
                "attempted": res.attempted,
                "failed": res.failed,
                "peak_rss_mb": workloads.peak_rss_mb(),
                "cores": ctx.cores,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
