"""Command-line interface: every subcommand end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import SYNTHETIC_CHOICES, main
from repro.mpeg2.video_io import read_y4m


@pytest.fixture()
def encoded(tmp_path):
    out = tmp_path / "clip.m2v"
    rc = main(
        [
            "encode",
            "-o",
            str(out),
            "--frames",
            "8",
            "--width",
            "96",
            "--height",
            "64",
            "--gop",
            "4",
            "--b-frames",
            "1",
        ]
    )
    assert rc == 0
    return out


class TestHelp:
    def test_help_imports_neither_numpy_nor_the_codec(self):
        """Each subcommand imports what it runs, so ``--help`` answers
        without loading numpy (asserted as membership, not as a timing)."""
        probe = (
            "import sys\n"
            "from repro.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n"
            "heavy = [m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]\n"
            "heavy += [m for m in sys.modules if m.startswith('repro.mpeg2.')]\n"
            "print('LOADED', heavy)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert "run-cluster" in out and "trace-report" in out
        assert out.splitlines()[-1] == "LOADED []"

    def test_synthetic_choices_are_the_generators(self):
        from repro.workloads.synthetic import GENERATORS

        assert list(SYNTHETIC_CHOICES) == sorted(GENERATORS)


class TestEncode:
    def test_produces_stream(self, encoded):
        data = encoded.read_bytes()
        assert data.startswith(b"\x00\x00\x01\xb3")

    def test_rate_controlled(self, tmp_path):
        out = tmp_path / "rc.m2v"
        rc = main(
            [
                "encode",
                "-o",
                str(out),
                "--frames",
                "12",
                "--width",
                "128",
                "--height",
                "96",
                "--bpp",
                "0.3",
                "--synthetic",
                "fish",
            ]
        )
        assert rc == 0
        bpp = 8 * len(out.read_bytes()) / (128 * 96 * 12)
        assert 0.1 < bpp < 0.7

    def test_from_y4m_input(self, tmp_path, encoded):
        y4m = tmp_path / "in.y4m"
        assert main(["decode", "-i", str(encoded), "-o", str(y4m)]) == 0
        out = tmp_path / "re.m2v"
        assert main(["encode", "-i", str(y4m), "-o", str(out)]) == 0
        assert out.read_bytes().startswith(b"\x00\x00\x01\xb3")


class TestDecode:
    def test_decode_to_y4m(self, tmp_path, encoded):
        out = tmp_path / "out.y4m"
        assert main(["decode", "-i", str(encoded), "-o", str(out)]) == 0
        assert len(read_y4m(out)) == 8


class TestWall:
    def test_wall_verifies_bit_exact(self, tmp_path, encoded, capsys):
        rc = main(
            ["wall", "-i", str(encoded), "-m", "2", "-n", "2", "-k", "2",
             "--overlap", "8"]
        )
        assert rc == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_wall_writes_output(self, tmp_path, encoded):
        out = tmp_path / "wall.y4m"
        rc = main(
            ["wall", "-i", str(encoded), "-m", "2", "-n", "1", "-o", str(out)]
        )
        assert rc == 0
        assert len(read_y4m(out)) == 8


class TestRunCluster:
    @pytest.mark.integration
    def test_run_cluster_verifies_bit_exact(self, tmp_path, encoded, capsys):
        trace_dir = tmp_path / "run"
        rc = main(
            ["run-cluster", "-i", str(encoded), "-m", "2", "-n", "1", "-k", "1",
             "--trace-dir", str(trace_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out
        assert "merged trace" in out
        assert (trace_dir / "merged.trace.jsonl").exists()

    @pytest.mark.integration
    def test_run_cluster_writes_output(self, tmp_path, encoded):
        out = tmp_path / "wall.y4m"
        rc = main(
            ["run-cluster", "-i", str(encoded), "-m", "2", "-n", "1",
             "--no-verify", "-o", str(out)]
        )
        assert rc == 0
        assert len(read_y4m(out)) == 8


    @pytest.mark.integration
    def test_run_cluster_forks_single_threaded(self, tmp_path, encoded):
        """The supervisor forks its workers, and a fork only carries the
        forking thread: anything another thread held is lost in the child
        (Python 3.12 warns).  ``run-cluster`` must have started none."""
        script = (
            "import os, sys, threading\n"
            "fork, seen = os.fork, []\n"
            "def counting_fork():\n"
            "    seen.append(threading.active_count())\n"
            "    return fork()\n"
            "os.fork = counting_fork\n"
            "from repro.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print('forks', seen)\n"
            "sys.exit(rc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", script,
             "run-cluster", "-i", str(encoded), "-m", "2", "-n", "1",
             "--trace-dir", str(tmp_path / "run")],
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "forks [1, 1, 1, 1]" in out.stdout


class TestSimulate:
    def test_simulate_stream(self, capsys):
        rc = main(
            ["simulate", "--stream", "8", "-m", "2", "-n", "2", "-k", "1",
             "--frames", "12", "--bandwidth"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fps" in out and "decoder0" in out


class TestProgramStreamInput:
    def test_cli_demuxes_transparently(self, tmp_path, encoded):
        from repro.mpeg2.systems import mux_program_stream

        ps = tmp_path / "clip.mpg"
        ps.write_bytes(mux_program_stream(encoded.read_bytes()))
        out = tmp_path / "out.y4m"
        assert main(["decode", "-i", str(ps), "-o", str(out)]) == 0
        assert len(read_y4m(out)) == 8

    def test_wall_accepts_program_stream(self, tmp_path, encoded, capsys):
        from repro.mpeg2.systems import mux_program_stream

        ps = tmp_path / "clip.mpg"
        ps.write_bytes(mux_program_stream(encoded.read_bytes()))
        assert main(["wall", "-i", str(ps), "-m", "2", "-n", "1"]) == 0
        assert "bit-exact" in capsys.readouterr().out


class TestInfoAndStreams:
    def test_info(self, encoded, capsys):
        assert main(["info", "-i", str(encoded), "--pictures"]) == 0
        out = capsys.readouterr().out
        assert "8 coded pictures" in out
        assert " I " in out
        # which slice walk, which execute phase and which columns-and-plans
        # kernel serve, and from where or why not
        from repro.mpeg2 import native_columns, native_execute, native_walk

        assert (
            f"parse engine: {native_walk.engine()}\n"
            f"execute engine: {native_execute.engine()}\n"
            f"columns engine: {native_columns.engine()}\n"
        ) in out
        for engine in (native_walk.engine(), native_execute.engine(), native_columns.engine()):
            assert engine.split(" ")[0] in ("native", "python")

    def test_streams_listing(self, capsys):
        assert main(["streams"]) == 0
        out = capsys.readouterr().out
        assert "orion4" in out and "3840x2800" in out
