"""Import-graph tests: every module imports, and none imports too much.

A module that raises at import time (missing optional dep handled
wrong, circular import, syntax error on a rarely-exercised path) should
fail loudly here rather than the first time a user touches it. The
``__main__`` entry points are skipped — importing them would execute
their CLIs.

The second half is the import policy of DESIGN.md §2 as a contract: a
fresh process imports only what its subcommand runs. Each budget case
runs the real entry point in a new interpreter and checks the exact set
of loaded modules — no timing — so a start-up regression names the
module that caused it.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def _module_names() -> list[str]:
    names = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "__main__.py":
            continue
        rel = path.relative_to(PACKAGE_DIR.parent).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


@pytest.mark.parametrize("name", _module_names())
def test_module_imports(name):
    import_module(name)


def test_every_source_file_is_covered():
    # Guard the parametrization itself: if the rglob breaks, the suite
    # would silently pass with zero modules.
    assert len(_module_names()) > 60


# ----------------------------------------------------------------------
# Import budgets
# ----------------------------------------------------------------------
def _fresh_python(code: str, *argv: str) -> str:
    """Run ``code`` in a new interpreter on this source tree; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


_PRINT_MODULES = "\nimport sys; print('\\nMODULES ' + ' '.join(sorted(sys.modules)))"
_RUN_CLI = "import sys; from repro.cli import main; assert main(sys.argv[1:]) == 0"


def _modules_after(code: str, *argv: str) -> set[str]:
    last_line = _fresh_python(code + _PRINT_MODULES, *argv).splitlines()[-1]
    assert last_line.startswith("MODULES ")
    return set(last_line.split()[1:])


def _loaded(modules: set[str], package: str) -> list[str]:
    """``package`` and its submodules, as far as they are in ``modules``."""
    return sorted(
        name
        for name in modules
        if name == package or name.startswith(package + ".")
    )


def _assert_absent(modules: set[str], forbidden: list[str]) -> None:
    found = [name for package in forbidden for name in _loaded(modules, package)]
    assert not found


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A UCR file and the v3 index ``onex build`` makes of it."""
    from repro.cli import main
    from repro.data.loader import save_ucr_file
    from repro.data.synthetic import make_dataset

    root = tmp_path_factory.mktemp("import_budget")
    ucr = root / "tiny.ucr"
    save_ucr_file(make_dataset("ItalyPower", n_series=6, length=24, seed=3), ucr)
    index = root / "tiny.onex"
    assert main(["build", "--ucr-file", str(ucr), "--out", str(index)]) == 0
    return ucr, index


def test_import_repro_loads_only_the_lazy_helper():
    modules = _modules_after("import repro")
    assert _loaded(modules, "repro") == ["repro", "repro._lazy"]
    assert not _loaded(modules, "numpy")


_QUERY_FORBIDDEN = [
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "socket",
    "subprocess",
    "secrets",
    "repro.core.parallel",
    "repro.core.grouping",
    "repro.core.threshold",
    "repro.data.synthetic",
    "repro.serve",
    "repro.query",
    "repro.analysis",
    "repro.extensions",
    "repro.baselines",
    "repro.viz",
    "repro.bench",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "--series", "1", "--start", "2", "--length", "12"],
        ["query", "--series", "1", "--length", "12", "--within", "0.3"],
        ["info"],
        ["seasonal", "--length", "13"],
        ["recommend"],
    ],
    ids=["query", "query-within", "info", "seasonal", "recommend"],
)
def test_online_subcommands_skip_build_and_serve_stacks(tiny, argv):
    _, index = tiny
    modules = _modules_after(_RUN_CLI, argv[0], str(index), *argv[1:])
    _assert_absent(modules, _QUERY_FORBIDDEN)
    # A budget, not a census: raise it only for a module the online
    # path really needs.
    assert len(_loaded(modules, "repro")) <= 35


def test_sequential_build_never_loads_the_process_pool(tiny, tmp_path):
    ucr, _ = tiny
    out = str(tmp_path / "j1.onex")
    modules = _modules_after(
        _RUN_CLI, "build", "--ucr-file", str(ucr), "--jobs", "1", "--out", out
    )
    _assert_absent(
        modules,
        [
            "multiprocessing",
            "concurrent.futures.process",
            "repro.core.parallel",
            "repro.serve",
            "repro.query",
            "repro.data.synthetic",
        ],
    )
    assert "repro.core.grouping" in modules


def test_parallel_build_loads_the_process_pool(tiny, tmp_path):
    ucr, _ = tiny
    out = str(tmp_path / "j2.onex")
    modules = _modules_after(
        _RUN_CLI, "build", "--ucr-file", str(ucr), "--jobs", "2", "--out", out
    )
    assert {"repro.core.parallel", "multiprocessing"} <= modules
    _assert_absent(modules, ["repro.serve", "repro.query", "repro.data.synthetic"])


def test_cluster_worker_import_is_lean():
    modules = _modules_after("import repro.serve.cluster.worker")
    _assert_absent(
        modules,
        [
            "asyncio",
            "multiprocessing",
            "repro.core.parallel",
            "repro.core.grouping",
            "repro.query",
            "repro.data.synthetic",
        ],
    )


def test_cluster_router_import_skips_the_service_stack():
    modules = _modules_after("import repro.serve.cluster.router")
    _assert_absent(
        modules,
        [
            "repro.serve.service",
            "repro.serve.batch",
            "repro.core.parallel",
            "repro.data.synthetic",
        ],
    )


# ----------------------------------------------------------------------
# Lazy packages keep their public surface
# ----------------------------------------------------------------------
LAZY_PACKAGES = ["repro", "repro.core", "repro.serve"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_every_public_name(package):
    module = import_module(package)
    starred: dict = {}
    exec(f"from {package} import *", starred)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in dir(module)
        assert starred[name] is value
        assert module.__dict__[name] is value  # cached: resolved once
        if isinstance(value, type):
            # A class keeps its real home, so instances pickle.
            assert value.__module__ != package
            assert pickle.loads(pickle.dumps(value)) is value


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_rejects_unknown_names(package):
    module = import_module(package)
    unknown = "no_such_name"
    with pytest.raises(AttributeError, match=f"'{package}'.*'{unknown}'"):
        getattr(module, unknown)
    with pytest.raises(ImportError):
        exec(f"from {package} import {unknown}", {})


def test_distance_functions_are_not_shadowed_by_their_submodules():
    # `dtw`, `erp`, `euclidean` and `lcss` name both a function and the
    # submodule defining it. Importing the submodule binds it on the
    # package, after which a module `__getattr__` is never consulted —
    # the reason `repro.distances` exports eagerly.
    _fresh_python(
        "import repro.core.onex\n"
        "from repro import dtw, erp, euclidean\n"
        "from repro.distances import dtw as d, erp as e, euclidean as u, lcss\n"
        "functions = (dtw, erp, euclidean, d, e, u, lcss)\n"
        "assert all(callable(f) for f in functions), functions\n"
        "assert dtw([0.0, 1.0], [0.0, 1.0]) == 0.0\n"
    )


def test_concurrent_first_access_resolves_one_object():
    # The serving layer resolves exports off the main thread.
    _fresh_python(
        "import threading, repro, repro.core, repro.serve\n"
        "barrier = threading.Barrier(8)\n"
        "seen = []\n"
        "def resolve():\n"
        "    barrier.wait(timeout=30)\n"
        "    seen.append((repro.OnexIndex, repro.core.RSpace,\n"
        "                 repro.serve.OnexService, repro.dtw))\n"
        "threads = [threading.Thread(target=resolve) for _ in range(8)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join(timeout=60)\n"
        "assert len(seen) == 8, len(seen)\n"
        "for column in zip(*seen):\n"
        "    assert all(value is column[0] for value in column), column\n"
    )
