"""Tests of the measurement spine itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/spine -q`` (about
two minutes: the module runs the ``--quick`` benchmark twice).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import workloads  # noqa: E402
from fixtures import QUICK_FIXTURES, build_fixture  # noqa: E402
from names import MOVES, WORKLOAD_FIXTURE  # noqa: E402
from repro.mpeg2.decoder import Decoder  # noqa: E402
from repro.wall.layout import TileLayout  # noqa: E402
from repro.wall.receiver import tile_decode_digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, str(HERE / "run.py")]


# ------------------------------ the contract ------------------------------ #


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.RUNNERS)
    assert set(workloads.RUNNERS) == set(WORKLOAD_FIXTURE)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_layer_says_what_it_should_move():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert {m["name"].split(".")[0] for m in SPEC["per_layer"]} == set(MOVES)
    for pairs in MOVES.values():
        assert all(m in e2e and w in WORKLOAD_FIXTURE for m, w in pairs)


# ------------------------------- fixtures --------------------------------- #


@pytest.mark.parametrize("name", sorted(QUICK_FIXTURES))
def test_fixture_decodes_to_base_frames_tiled_and_repeated(name):
    fx = build_fixture(name, seed=3, quick=True)
    dec = Decoder()
    assert dec.decode(fx.repeated(2)) == fx.frames * 2
    assert fx.frames[0].width == QUICK_FIXTURES[name].width
    # the profile's macroblock counts are those of the mosaic, twice over
    assert sum(dec.stats.coded_macroblocks) == 2 * fx.profile["coded_mb"]
    assert sum(dec.stats.skipped_macroblocks) == 2 * fx.profile["skipped_mb"]
    assert sum(dec.stats.picture_bytes) == 2 * fx.profile["coded_bytes"]
    assert abs(sum(fx.profile["byte_share"].values()) - 1.0) < 1e-9


def test_fixture_is_a_function_of_the_seed():
    a, b, c = (build_fixture("studio-320", s, quick=True) for s in (1, 1, 2))
    assert a.stream == b.stream and a.stream != c.stream


def test_crop_digest_matches_the_receivers_oracle():
    fx = build_fixture("fish-640", seed=3, quick=True)
    layout = TileLayout(fx.spec.width, fx.spec.height, *workloads.WALL_GRID)
    for tid in range(layout.n_tiles):
        assert workloads.crop_digest(fx.frames * 2, layout, tid) == tile_decode_digest(
            fx.repeated(2), layout, tid
        )


# ------------------------------ statistics -------------------------------- #


def test_gop_latency_is_the_median_of_per_gop_medians():
    lat = {("a", p): 0.010 for p in range(6)}  # GOP 0 of stream a: 10 ms
    lat.update({("a", p): 0.020 for p in range(6, 12)})
    lat.update({("b", p): 0.900 if p == 0 else 0.030 for p in range(6)})  # one stall: still 30 ms
    assert workloads.gop_latency_ms(lat) == pytest.approx(20.0)


def test_timings_are_reported_at_nominal_host_speed():
    res = workloads.Result(paced=("fps",))
    res.add(fps=24.0, cpu_s_per_frame=0.010, latency_p50_ms=8.0)
    slow_box = res.at_nominal_speed(0.5)  # the box ran at half its nominal speed
    assert slow_box == {"fps": [24.0], "cpu_s_per_frame": [0.005], "latency_p50_ms": [4.0]}
    res = workloads.Result()
    res.add(fps=10.0)
    assert res.at_nominal_speed(0.5) == {"fps": [20.0]}


def test_yardstick_reads_the_same_work_the_same():
    from yardstick import Yardstick

    y = Yardstick()
    for _ in range(5):
        y.sample()
    assert len(y.speeds) == 5 and 0.2 < y.speed() < 5.0
    assert max(y.speeds) / min(y.speeds) < 1.5


def test_compare_verdicts():
    def s(*xs):
        return {**{k: v for k, v in zip(("q1", "median", "q3"), sorted(xs))}, "samples": list(xs)}

    assert compare.verdict(s(99, 100, 101), s(129, 130, 131), "lower", 0.10)[0] == "worse"
    assert compare.verdict(s(99, 100, 101), s(100, 101, 102), "lower", 0.10)[0] == "same"
    assert compare.verdict(s(99, 100, 101), s(79, 80, 81), "lower", 0.10)[0] == "better"
    assert compare.verdict(s(80, 100, 120), s(85, 104, 125), "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(s(80, 100, 120), s(140, 150, 160), "higher", 0.10)[0] == "better"


def _report(on_time: float, coded_mb: int, startup_s: float = 2.0) -> dict:
    row = {"median": 1.0, "q1": 1.0, "q3": 1.0, "samples": [1.0]}
    layer = {
        "paced.on_time_frac": on_time, "parser.coded_mb": coded_mb,
        "cluster.startup_s": startup_s,
    }
    work = {"end_to_end": {m["name"]: row for m in SPEC["end_to_end"]},
            "per_layer": layer, "attempted": 6, "failed": 0}
    return {"workloads": {"wall-paced": work}}


@pytest.mark.parametrize(
    "b,code",
    [
        (_report(1.0, 100), 0),
        (_report(0.99, 100), 0),
        (_report(0.97, 100), 1),  # on time fell by more than 0.02
        (_report(1.0, 101), 1),  # a work count differs
        (_report(1.0, 100, startup_s=3.0), 1),
    ],
)
def test_compare_gates_on_time_startup_and_counts(tmp_path, monkeypatch, b, code):
    (tmp_path / "a.json").write_text(json.dumps(_report(1.0, 100)))
    (tmp_path / "b.json").write_text(json.dumps(b))
    monkeypatch.setattr(sys, "argv", ["compare.py", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert compare.main() == code


# --------------------------- the whole benchmark -------------------------- #


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("spine")
    reports = []
    for i in range(2):
        path = out / f"quick{i}.json"
        proc = subprocess.run(
            RUN + ["--quick", "--seed", "7", "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append((json.loads(path.read_text()), Path(str(path) + ".spans"), proc.stdout))
    return reports


def test_every_declared_metric_is_emitted_and_vice_versa(quick_reports):
    report, _, stdout = quick_reports[0]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert report["claim"] is None
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    emitted = set()
    for name, w in report["workloads"].items():
        assert set(w["end_to_end"]) == e2e, name
        assert w["failed"] == 0 and w["attempted"] > 0, name
        assert all(s["median"] != 0 for s in w["end_to_end"].values()), name
        emitted |= set(w["per_layer"])
    assert emitted == per_layer
    for metric in e2e | per_layer:  # printed by name, with its unit
        assert metric in stdout


def test_layers_separate_the_workloads(quick_reports):
    layer = {n: set(w["per_layer"]) for n, w in quick_reports[0][0]["workloads"].items()}

    def prefixes(name):
        return {m.split(".")[0] for m in layer[name]}

    assert not prefixes("seq-1080p") & {"channel", "pool", "plan_codec", "splitter", "pdecoder"}
    assert not prefixes("threaded-detail") & {"channel", "pool", "cluster"}
    assert {"channel", "pool", "plan_codec", "splitter", "pdecoder", "cluster"} <= prefixes(
        "cluster-1080p"
    )
    for name in ("cluster-1080p", "threaded-detail"):
        assert {"model.residual_pct", "model.cores"} <= layer[name]
    assert "bcast" in prefixes("wall-paced") and "service" in prefixes("service-paced")


def test_exact_counts_repeat_for_a_seed(quick_reports):
    exact = set(compare.EXACT_COUNTS)
    assert exact <= {m["name"] for m in SPEC["per_layer"]}
    (a, _, _), (b, _, _) = quick_reports
    checked = 0
    for name in a["workloads"]:
        la, lb = a["workloads"][name]["per_layer"], b["workloads"][name]["per_layer"]
        for key in exact & set(la):
            assert la[key] == lb[key], (name, key)
            checked += 1
    assert checked >= len(exact)
    assert a["fixtures"]["pan-1080p"]["profile"] == b["fixtures"]["pan-1080p"]["profile"]


def test_paced_workloads_are_on_time_and_the_generator_is_not_late(quick_reports):
    w = quick_reports[0][0]["workloads"]
    assert w["wall-paced"]["per_layer"]["paced.on_time_frac"] >= 0.97
    assert w["service-paced"]["per_layer"]["paced.on_time_frac"] >= 0.97
    assert w["wall-paced"]["per_layer"]["loadgen.late_p95_ms"] < 5.0
    assert w["wall-paced"]["per_layer"]["bcast.encodes_per_record"] == 1.0


def test_waterfall_covers_the_sequential_decode(quick_reports):
    layer = quick_reports[0][0]["workloads"]["seq-1080p"]["per_layer"]
    # [95, 105] on the full rasters; quarter rasters are a few 100 ms per
    # decode, so scheduling noise gets a wider berth here
    assert 85.0 <= layer["waterfall.coverage_pct"] <= 115.0
    assert "trace.overhead_pct" in layer


def test_spans_nest_and_share_a_picture_id(quick_reports):
    spans_dir = quick_reports[0][1]
    files = sorted(spans_dir.glob("*.jsonl"))
    assert {f.stem for f in files} == {w["name"] for w in SPEC["workloads"]}
    for f in files:
        spans = [json.loads(line) for line in f.read_text().splitlines()]
        assert spans, f
        for s in spans:
            assert s["end"] >= s["start"]
            if s["parent"] >= 0:
                parent = spans[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (f, s)
                if parent["picture"] >= 0:
                    assert s["picture"] == parent["picture"], (f, s)


# --------------------------- the contracted form -------------------------- #


def _contracted(trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "seq-1080p", "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_contracted_run_prints_exactly_the_declared_metrics(trace, group):
    proc = _contracted(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_contracted_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _contracted(0, cwd=tmp_path, script=tmp_path / "benchmarks" / "spine" / "run.py")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
