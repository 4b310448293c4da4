"""What a process imports is a function of the role it runs.

A cluster job's workers are forks of the supervisor, so what it preloads
is what every one of them carries, and ``python -m
repro.cluster.runtime.worker`` still boots one role by hand; these tests
hold the import graph to *membership and count* (never a timing): each
role is imported in a fresh interpreter that then prints ``sys.modules``.
The other half — laziness must not change what the packages export — is
checked in-process.

The fresh interpreter starts with ``-S`` and the parent's ``sys.path`` on
``PYTHONPATH``: it imports what this process can, but runs no site hooks.
A ``.pth`` file in site-packages is code that runs at start-up -- one that
imports ``certifi`` loads ``pathlib``, ``shutil`` and ``tempfile``
(through ``importlib.resources``) before the first statement, and an
editable install's finder loads ``pathlib`` -- so membership and counts
would describe the site configuration, not the package.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

# The packages whose ``__init__`` re-exports lazily (repro._lazy).
LAZY_PACKAGES = [
    "repro",
    "repro.mpeg2",
    "repro.parallel",
    "repro.cluster",
    "repro.cluster.runtime",
    "repro.perf",
    "repro.net",
    "repro.wall",
    "repro.workloads",
]

# What no worker of the process cluster has any business loading.
NEVER_IN_A_WORKER = (
    "repro.mpeg2.encoder",
    "repro.parallel.pipeline",
    "repro.parallel.threaded",
    "repro.parallel.system",
    "repro.perf.costmodel",
    "repro.perf.experiments",
    "repro.perf.export",
    "repro.workloads",
    "repro.cluster.runtime.supervisor",
    "repro.cluster.node",
    "repro.net.gm",
    "repro.net.simtime",
)


def fresh_interpreter(script: str) -> str:
    """The last line a fresh interpreter printed running ``script``.

    It starts with ``-S`` so that no site hook runs, with ``SRC`` and then
    this process's ``sys.path`` directories on ``PYTHONPATH`` so that it
    still finds numpy, scipy and whatever a ``.pth`` file added: what is in
    its ``sys.modules`` was loaded by ``script``, not by a ``.pth`` file.
    """
    path = [SRC] + [d for d in sys.path if os.path.isdir(d)]
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={"PYTHONPATH": os.pathsep.join(path), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.splitlines()[-1]


def modules_after(statement: str) -> set:
    """``sys.modules`` of a fresh interpreter that ran ``statement``."""
    return set(
        json.loads(
            fresh_interpreter(
                f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
            )
        )
    )


def loaded(modules: set, prefix: str) -> list:
    return sorted(m for m in modules if m == prefix or m.startswith(prefix + "."))


@pytest.fixture(scope="module")
def role_modules() -> dict:
    """One subprocess per role, importing exactly what the worker would."""
    load = "from repro.cluster.runtime.worker import load_role; load_role({!r})"
    return {
        role: modules_after(load.format(name))
        for role, name in (("root", "root"), ("split", "split0"), ("dec", "dec3"))
    }


def test_bare_import_loads_neither_numpy_nor_scipy():
    modules = modules_after("import repro")
    assert not loaded(modules, "numpy") and not loaded(modules, "scipy")
    # nothing of the package beyond itself and the lazy-export helper
    assert loaded(modules, "repro") == ["repro", "repro._lazy"]


@pytest.mark.parametrize("role", ["root", "split", "dec"])
def test_no_worker_loads_what_only_the_driver_side_needs(role_modules, role):
    modules = role_modules[role]
    for forbidden in NEVER_IN_A_WORKER:
        assert not loaded(modules, forbidden), f"{role} loaded {forbidden}"
    # and it did load its own role, through the worker's dispatch
    own = {"root": "root", "split": "splitter", "dec": "decoder"}[role]
    assert f"repro.cluster.runtime.{own}" in modules
    others = {"root", "splitter", "decoder"} - {own}
    assert not any(f"repro.cluster.runtime.{o}" in modules for o in others)


@pytest.mark.parametrize("role", ["root", "split"])
def test_root_and_splitter_stay_off_scipy_and_small(role_modules, role):
    """Neither ever runs an IDCT: no ``scipy``, no execute side -- so its
    kernel is never built or mapped there, only the parser's two (the slice
    walk, and the columns and plans behind it), through the loader they
    share -- and about 250 modules where importing everything was 601."""
    modules = role_modules[role]
    assert not loaded(modules, "scipy"), loaded(modules, "scipy")[:5]
    assert "repro.mpeg2.dct" not in modules
    assert "repro.mpeg2.batch_reconstruct" not in modules
    assert "repro.mpeg2.native_execute" not in modules
    assert {
        "repro.mpeg2.native", "repro.mpeg2.native_walk", "repro.mpeg2.native_columns",
    } <= modules
    assert len(modules) <= 300, len(modules)


def test_the_splitter_maps_the_columns_kernel_and_not_the_execute_kernel():
    """A kernel is mapped by importing the module that calls it: the
    splitter's parser and plan side bring ``_walk`` and ``_columns``,
    nothing there brings ``_execute``."""
    from repro.mpeg2 import native_columns

    if native_columns.LIBRARY is None:
        pytest.skip(f"no native columns: {native_columns.STATUS}")
    mapped = fresh_interpreter(
        "from repro.cluster.runtime.worker import load_role; load_role('split0')\n"
        "import re\n"
        "print(sorted(set(re.findall(r'/(_[a-z]+)-[^/]*[.]so', open('/proc/self/maps').read()))))"
    )
    assert mapped == "['_columns', '_walk']"


def test_decoder_is_the_role_that_loads_the_transform(role_modules):
    assert "repro.mpeg2.batch_reconstruct" in role_modules["dec"]
    assert "repro.mpeg2.native_execute" in role_modules["dec"]  # and the kernel around it
    assert "scipy.fft" in role_modules["dec"]


def test_supervisor_preload_is_the_three_roles_and_no_more():
    """What the supervisor imports before it forks is the union of the
    roles — not the encoder, the simulator, the cost model or the workload
    generators, which every forked worker would then carry too."""
    modules = modules_after(
        "from repro.cluster.runtime.config import WallConfig\n"
        "from repro.cluster.runtime.supervisor import preload_roles\n"
        "cost = preload_roles(WallConfig().process_names)\n"
        "assert cost['roles'] == ['dec', 'root', 'split'] and cost['modules'] > 0, cost\n"
        "assert preload_roles(WallConfig(m=3, k=2).process_names) is None"
    )
    for role in ("root", "splitter", "decoder"):
        assert f"repro.cluster.runtime.{role}" in modules
    assert "scipy.fft" in modules
    for forbidden in (
        "repro.mpeg2.encoder",
        "repro.parallel.system",
        "repro.parallel.pipeline",
        "repro.parallel.threaded",
        "repro.net.simtime",
        "repro.net.gm",
        "repro.cluster.node",
        "repro.perf.costmodel",
        "repro.perf.experiments",
        "repro.workloads",
    ):
        assert not loaded(modules, forbidden), f"supervisor loaded {forbidden}"


def test_plan_side_needs_numpy_only():
    modules = modules_after(
        "import repro.mpeg2.plan, repro.mpeg2.plan_codec, repro.parallel.mb_splitter"
    )
    assert not loaded(modules, "scipy")
    assert "repro.mpeg2.dct" not in modules


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_is_the_submodules_object(package):
    pkg = importlib.import_module(package)
    exports = pkg._EXPORTS
    assert set(pkg.__all__) - {"__version__"} == set(exports)
    for name, home in exports.items():
        assert getattr(pkg, name) is getattr(importlib.import_module(home), name)
        assert name in dir(pkg)


def test_submodule_attribute_access_without_an_explicit_import():
    modules_after("import repro; repro.mpeg2.fast_vlc.parse_slice_columns")
    modules_after("import repro.perf; repro.perf.trace.TraceWriter")


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_thing"):
        repro.mpeg2.no_such_thing
    assert not hasattr(repro, "__wrapped__")
    with pytest.raises(ImportError):
        from repro.parallel import no_such_name  # noqa: F401


def test_documented_import_lines_run_unchanged():
    from repro import (  # noqa: F401
        Decoder,
        Encoder,
        EncoderConfig,
        ParallelDecoder,
        TileLayout,
        decode_stream,
        psnr,
    )

    assert repro.__version__
    readme = Path(SRC).parent / "README.md"
    lines = [
        ln.strip()
        for ln in readme.read_text().splitlines()
        if ln.strip().startswith(("from repro", "import repro"))
    ]
    assert lines, "README shows no import lines any more?"
    for line in lines:
        exec(line, {})


def test_only_the_encoder_imports_the_per_macroblock_reconstruction():
    """``mpeg2/reconstruct.py`` is the encoder's local reconstruction and the
    decoders' test oracle (``tests/oracles.py::reference_decode``); no
    decoder has a second pixel path to fall back on."""
    importers = set()
    for path in Path(SRC, "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{a.name}" for a in node.names
                ]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if "repro.mpeg2.reconstruct" in names:
                importers.add(path.relative_to(SRC).as_posix())
    assert importers == {"repro/mpeg2/encoder.py"}


def test_a_cached_kernel_is_loaded_without_the_machinery_that_builds_it():
    """``repro.mpeg2.parser`` loads the native slice walk and the native
    columns and plans when it is imported and ``repro.mpeg2.batch_reconstruct``
    the native execute phase (so a supervisor pays once, before it forks).
    Compiling is for the one cold start of a checkout: with the libraries
    cached -- this process just loaded them -- nothing that builds one is
    imported, and what would build one is there to be called and is not."""
    from repro.mpeg2 import native_columns, native_execute, native_walk

    for module in (native_walk, native_columns, native_execute):
        if module.LIBRARY is None:
            pytest.skip(f"no {module.__name__}: {module.STATUS}")
    at_start = modules_after("pass")
    for builder in ("subprocess", "tempfile", "hashlib", "shlex", "shutil", "pathlib"):
        assert builder not in at_start, f"the interpreter's start-up loaded {builder}"
    modules = modules_after(
        "from repro.mpeg2 import native_columns, native_walk, parser, plan\n"
        "assert native_walk.LIBRARY is not None, native_walk.STATUS\n"
        "assert native_columns.LIBRARY is not None, native_columns.STATUS\n"
        "assert parser._parse is parser._parse_native and plan._build is plan._build_native"
    )
    for builder in ("subprocess", "tempfile", "hashlib", "shlex", "shutil", "pathlib"):
        assert builder not in modules, builder
    # scipy.fft imports most of those for itself, so for the execute kernel:
    # what the loader would call is there to be called, and is not
    modules = modules_after(
        "import subprocess, tempfile\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('a cached kernel was rebuilt')\n"
        "subprocess.run = tempfile.mkstemp = tempfile.mkdtemp = refuse\n"
        "from repro.mpeg2 import batch_reconstruct, native_columns, native_execute\n"
        "assert native_columns.LIBRARY is not None, native_columns.STATUS\n"
        "assert native_execute.LIBRARY is not None, native_execute.STATUS\n"
        "assert batch_reconstruct._execute is batch_reconstruct._execute_native"
    )
    assert "shlex" not in modules


def test_the_coefficient_tables_are_not_built_window_by_window():
    """``fast_vlc`` builds two 65 536-window stride tables when imported,
    and flattens its single-symbol tables for the native walk.  Vectorised,
    that is a few thousand Python-level calls; a loop that did anything per
    window would be hundreds of thousands.  A count of profile events, so it
    reads the same on a slow host."""
    script = (
        "import sys\n"
        "import numpy, repro.bitstream, repro.mpeg2.vlc, repro.mpeg2.structures\n"
        "events = 0\n"
        "def count(frame, event, arg):\n"
        "    global events\n"
        "    events += 1\n"
        "sys.setprofile(count)\n"
        "import repro.mpeg2.fast_vlc\n"
        "sys.setprofile(None)\n"
        "print(events)"
    )
    assert 0 < int(fresh_interpreter(script)) < 10_000
