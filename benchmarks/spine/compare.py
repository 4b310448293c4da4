"""Compare two reports of ``run.py --out``: ``compare.py A.json B.json``.

Prints one row per workload x end-to-end metric with a verdict for B
against A, by the rules of the choosing-metrics guide:

- ``worse``       B's median is worse than A's by more than the metric's bound;
- ``unresolved``  the run-to-run spread (distance between the quartiles, as
                  a share of the median, of either side) is wider than the
                  bound, so "no regression" cannot be told from noise —
                  unless every sample of B beats every sample of A;
- ``better``      B's median is better by more than that spread (never said of
                  ``setup_s`` and ``peak_rss_mb``, which a report holds once);
- ``same``        otherwise.

Two per-layer values of the traced pass are gated too (``gated_layer``):
they are end-to-end quantities the driver's contract cannot carry, because
it wants every end-to-end metric from every workload and none that reads 0
or 1.0 on every run.  Work counts (``EXACT_COUNTS``) must be identical.
Exits 1 if any row is ``worse`` or ``unresolved``, failed operations rose
or a count differs.  To compare two commits, produce A and
B as alternating pairs (A, B, B, A, ...) and compare pair by pair: the
box's speed drifts by several per cent over minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Work counts: they must repeat exactly for a seed, and a change may rest
#: a claim on one only if the issue named it beforehand.  (Outcome counts —
#: drops, late frames, pool fallbacks — depend on timing; so do the bytes
#: the cluster's channels carried, which include heartbeats; `bcast.bytes`
#: includes a record carrying the sender's epoch as a JSON float, whose
#: printed length varies.)
EXACT_COUNTS = (
    "parser.coded_mb",
    "parser.skipped_mb",
    "reconstruct.blocks",
    "splitter.mei_instrs",
    "splitter.plan_bytes",
    "plan_codec.bytes",
    "pdecoder.exchange_bytes",
    "bcast.encodes_per_record",
)

ON_TIME_BOUND = 0.02  # absolute


def gated_layer(la: dict, lb: dict, e2e: dict) -> list:
    """``(metric, worsening, allowed)`` for the gated per-layer values two
    traced passes share.  One value per report, so no spread: the verdict
    is ``worse`` or ``same``."""
    rows = []
    key = "paced.on_time_frac"
    if key in la and key in lb:
        rows.append((key, la[key] - lb[key], ON_TIME_BOUND))
    key = "cluster.startup_s"  # what latency_p50_ms is on cluster-1080p
    if key in la and key in lb:
        rows.append((key, (lb[key] - la[key]) / la[key], e2e["latency_p50_ms"]["bound"]))
    return rows


def spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / abs(a["median"])
    noise = max(spread(a), spread(b))
    if worsening > bound:
        return "worse", worsening, noise
    if min(len(a["samples"]), len(b["samples"])) < 2:
        return "same", worsening, noise  # one value a side: no spread to call a gain by
    if noise > bound:
        a_best = min(a["samples"]) if better == "lower" else max(a["samples"])
        b_worst = max(b["samples"]) if better == "lower" else min(b["samples"])
        clean_win = sign * (b_worst - a_best) < 0
        return ("better" if clean_win else "unresolved"), worsening, noise
    if -worsening > noise:
        return "better", worsening, noise
    return "same", worsening, noise


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    exact = set(EXACT_COUNTS)
    bad = 0
    print(f"{'workload':<16} {'metric':<18} {'A':>12} {'B':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<16} missing from B")
            bad += 1
            continue
        for key, m in e2e.items():
            sa, sb = wa["end_to_end"][key], wb["end_to_end"][key]
            v, worsening, noise = verdict(sa, sb, m["better"], m["bound"])
            bad += v in ("worse", "unresolved")
            print(f"{name:<16} {key:<18} {sa['median']:>12.4f} {sb['median']:>12.4f} "
                  f"{worsening:>+8.1%} {noise:>7.1%} {m['bound']:>6.0%}  {v}")
        if wb["failed"] > wa["failed"]:
            print(f"{name:<16} failed operations rose {wa['failed']} -> {wb['failed']}")
            bad += 1
        la, lb = wa["per_layer"], wb["per_layer"]
        for key, worsening, allowed in gated_layer(la, lb, e2e):
            v = "worse" if worsening > allowed else "same"
            bad += v == "worse"
            print(f"{name:<16} {key:<18} {la[key]:>12.4f} {lb[key]:>12.4f} "
                  f"{worsening:>+8.3f} {'':>7} {allowed:>6.2f}  {v}")
        for key in sorted(exact & set(la) & set(lb)):
            if la[key] != lb[key]:
                print(f"{name:<16} {key:<18} {la[key]:>12} {lb[key]:>12}  count differs")
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
