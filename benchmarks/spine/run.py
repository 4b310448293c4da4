"""The measurement spine: one command, five workloads, every metric by name.

Two ways to run it, both from the root of a checkout:

``python3 benchmarks/spine/run.py --seed 0 --out spine.json``
    The full benchmark: builds the four fixtures, runs the five workloads
    (one warm-up + 5 timed repeats each, medians and quartiles), then one
    traced pass per workload for the per-layer metrics, prints every metric
    with its unit, verifies every output against the sequential decoder's
    digest and exits non-zero if anything failed.  ``--quick`` shrinks it
    to under a minute; ``--ablations`` adds the pool / plans / telemetry
    pairs on ``cluster-1080p``.

``python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, the form ``BENCHMARK.json`` declares: prints one JSON
    object as the last line of stdout — the end-to-end metrics with
    ``--trace 0``, the per-layer metrics with ``--trace 1``.

This process only orchestrates: fixtures are built and workloads run in
child processes (``child.py``) with the BLAS thread pins below, so that
"sequential" means one thread and cluster workers do not each bring a
BLAS pool.  Everything it writes goes under ``.spine/`` in the checkout
and is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from names import MOVES, WORKLOAD_FIXTURE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Contracted run: setup_s is the median of this many builds (the driver's
#: contract asks for several set-ups per run, so that setup_s is steady; a
#: third would take the 1080p runs past the 30 s each the driver allows).
SETUP_REPEATS = 2
FULL_REPEATS = 5
QUICK_SECONDS = 2.0
CHILD_TIMEOUT_S = 170.0
#: AF_UNIX paths are limited to ~107 bytes; the longest name the program
#: binds under the scratch directory is ``c99/collector.sock``.
UNIX_PATH_BUDGET = 107 - len("/c99/collector.sock")

class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def run_child(args: List[str], workdir: Path) -> dict:
    """Run ``child.py`` in its own process group; whatever happens, no
    process of that group outlives this call."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        env=child_env(workdir),
        cwd=str(ROOT),
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args[:3])} ran past {CHILD_TIMEOUT_S:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of a failed run
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out or not out.strip():
        raise BenchError(f"child {' '.join(args[:3])} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def build(fixture: str, seed: int, fxdir: Path, workdir: Path, quick: bool) -> dict:
    args = ["build", "--fixture", fixture, "--seed", str(seed), "--dir", str(fxdir)]
    return run_child(args + (["--quick"] if quick else []), workdir)


def run_workload(
    name: str, fxdir: Path, workdir: Path, seconds: float, trace: int,
    repeats: Optional[int] = None, spans: Optional[Path] = None, cmd: str = "run",
) -> dict:
    args = [
        cmd, "--workload", name, "--dir", str(fxdir), "--work", str(workdir),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if repeats is not None:
        args += ["--repeats", str(repeats)]
    if spans is not None:
        args += ["--spans", str(spans)]
    return run_child(args, workdir)


def make_workdir() -> Path:
    workdir = ROOT / ".spine" / str(os.getpid())
    if len(str(workdir)) > UNIX_PATH_BUDGET:
        raise BenchError(
            f"checkout path too long for unix sockets: {workdir} "
            f"(limit {UNIX_PATH_BUDGET} characters)"
        )
    workdir.mkdir(parents=True)
    return workdir


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # .spine/, unless another run is using it
    except OSError:
        pass


# --------------------------------------------------------------------- #
# the contracted form: one workload, one JSON line
# --------------------------------------------------------------------- #


def contracted(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; have {names}")
    workdir = make_workdir()
    try:
        fxdir = workdir / "fx"
        fixture = WORKLOAD_FIXTURE[args.workload]
        builds = [
            build(fixture, args.seed, fxdir, workdir, args.quick)
            for _ in range(SETUP_REPEATS)
        ]
        out = run_workload(args.workload, fxdir, workdir, args.seconds, args.trace)
    finally:
        remove_workdir(workdir)

    print(
        f"spine: host speed {out['host_speed']:.3f} during the workload, "
        f"{statistics.median(b['host_speed'] for b in builds):.3f} during set-up "
        "(timings are reported as at 1.0, see yardstick.py)",
        file=sys.stderr,
    )
    if args.trace:
        values = {m["name"]: 0.0 for m in spec["per_layer"]}  # 0: layer not on this path
        unknown = set(out["layer"]) - set(values)
        if unknown:
            raise BenchError(f"undeclared per-layer metrics: {sorted(unknown)}")
        values.update(out["layer"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(b["setup_s"] for b in builds),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        for key, samples in out["samples"].items():
            values[key] = statistics.median(samples)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise BenchError(f"end-to-end metrics {sorted(values)} != declared {sorted(units)}")
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


# --------------------------------------------------------------------- #
# the full benchmark
# --------------------------------------------------------------------- #


def summarise(values: List[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values), "q1": q[0], "q3": q[2],
        "n": len(values), "samples": values,
    }


def full(args: argparse.Namespace, spec: dict) -> int:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    repeats = 1 if args.quick else FULL_REPEATS
    report: dict = {
        "claim": None,  # this benchmark is the ruler, it claims no gain
        "seed": args.seed,
        "quick": args.quick,
        "repeats": repeats,
        "fixtures": {},
        "workloads": {},
    }
    spans_dir = None
    if args.out:
        spans_dir = args.out.resolve().with_name(args.out.name + ".spans")
        spans_dir.mkdir(parents=True, exist_ok=True)
    workdir = make_workdir()
    try:
        fxdir = workdir / "fx"
        for fixture in sorted(set(WORKLOAD_FIXTURE.values())):
            report["fixtures"][fixture] = build(fixture, args.seed, fxdir, workdir, args.quick)
            print(f"built {fixture} in {report['fixtures'][fixture]['setup_s']:.2f} s", flush=True)
        for w in spec["workloads"]:
            name = w["name"]
            timed = run_workload(name, fxdir, workdir, seconds, 0, repeats)
            spans = spans_dir / f"{name}.jsonl" if spans_dir else None
            traced = run_workload(name, fxdir, workdir, seconds, 1, spans=spans)
            row = {key: summarise(samples) for key, samples in timed["samples"].items()}
            row["setup_s"] = summarise([report["fixtures"][WORKLOAD_FIXTURE[name]]["setup_s"]])
            row["peak_rss_mb"] = summarise([timed["peak_rss_mb"]])
            if set(row) != set(e2e) or set(traced["layer"]) - set(per_layer):
                raise BenchError(
                    f"{name}: emitted {sorted(row)} + {sorted(traced['layer'])}, "
                    "which is not what BENCHMARK.json declares"
                )
            report["cores"] = timed["cores"]
            report["workloads"][name] = {
                "host_speed": timed["host_speed"],  # every timing below is x this
                "end_to_end": row,
                "per_layer": traced["layer"],
                "attempted": timed["attempted"] + traced["attempted"],
                "failed": timed["failed"] + traced["failed"],
            }
            print(f"ran {name}", flush=True)
        if args.ablations:
            report["ablations"] = run_workload(
                "cluster-1080p", fxdir, workdir, seconds, 0, cmd="ablate"
            )
    finally:
        remove_workdir(workdir)

    print_report(report, e2e, per_layer)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(w["failed"] for w in report["workloads"].values())
    failed += report.get("ablations", {}).get("failed", 0)
    if failed:
        print(f"FAILED: {failed} operations did not match the sequential reference")
        return 1
    return 0


def print_report(report: dict, e2e: dict, per_layer: dict) -> None:
    print(f"\ncores={report['cores']} seed={report['seed']} repeats={report['repeats']}")
    for name, w in report["workloads"].items():
        print(f"\n== {name}: failed {w['failed']} of {w['attempted']} "
              f"(failed_frac {w['failed'] / w['attempted']:.4f})")
        for key, s in w["end_to_end"].items():
            print(f"  {key:<28} {s['median']:>14.4f} {e2e[key]['unit']:<10} "
                  f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']}]")
        for key, v in w["per_layer"].items():
            moves = ", ".join(f"{m}@{wl}" for m, wl in MOVES[key.split(".")[0]])
            print(f"  {key:<28} {v:>14.4f} {per_layer[key]['unit']:<10} -> {moves or '-'}")
    for key, a in report.get("ablations", {}).items():
        if key != "failed":
            print(f"  {key:<28} {a['median']:>14.4f} ratio      "
                  f"[q1 {a['q1']:.4f}, q3 {a['q3']:.4f}, n={len(a['runs'])}]")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload and print one JSON line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="full benchmark: write the report here")
    ap.add_argument("--quick", action="store_true", help="quarter rasters, 1 repeat, < 60 s")
    ap.add_argument("--ablations", action="store_true", help="full benchmark: add the ablation pairs")
    args = ap.parse_args()
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        spec = load_spec()
        return contracted(args, spec) if args.workload else full(args, spec)
    except BenchError as exc:
        print(f"spine: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
