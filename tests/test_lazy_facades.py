"""Lazy package façades (:mod:`repro._lazy`) and the fork-import rule.

Every package ``__init__`` is a PEP 562 façade: importing a package
imports none of its submodules, and each ``__all__`` name is imported on
first access.  A forked worker must find everything it runs already
imported by its parent.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

#: Names a façade binds eagerly instead of through its lazy table.
EAGER = {"repro": {"__version__"}}


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout


def _facade(package):
    return package.__getattr__.__self__


def test_every_package_is_a_facade():
    assert len(PACKAGES) == 21
    for name in PACKAGES:
        package = importlib.import_module(name)
        assert callable(getattr(package, "__getattr__", None)), name
        assert _facade(package).package == name


@pytest.mark.parametrize("name", PACKAGES)
class TestFacadeContract:
    def test_all_equals_lazy_table(self, name):
        package = importlib.import_module(name)
        table = _facade(package).table
        assert len(package.__all__) == len(set(package.__all__))
        assert set(package.__all__) == set(table) | EAGER.get(name, set())

    def test_exports_come_from_their_submodule(self, name):
        package = importlib.import_module(name)
        for export, submodule in _facade(package).table.items():
            module = importlib.import_module(f"{name}.{submodule}")
            assert getattr(package, export) is getattr(module, export)

    def test_dir_covers_all(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_name(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_attribute_names_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            package.no_such_export  # noqa: B018


def test_importing_a_package_imports_no_submodule():
    """A façade import adds only façades (and the helper) to sys.modules."""
    script = (
        "import importlib, sys\n"
        "loaded = []\n"
        "for name in sys.argv[1:]:\n"
        "    before = set(sys.modules)\n"
        "    importlib.import_module(name)\n"
        "    loaded += [m for m in set(sys.modules) - before\n"
        "               if m.startswith('repro')\n"
        "               and not hasattr(sys.modules[m], '__path__')\n"
        "               and m != 'repro._lazy']\n"
        "print(sorted(loaded))\n"
    )
    assert _run(script, *PACKAGES).strip() == "[]"


def test_src_modules_import_submodules_not_facades():
    """Inside ``src/`` a ``from <package> import name`` names a submodule,
    never an export: the convention that keeps import cost explicit."""
    packages = set(PACKAGES)
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in packages:
                package_dir = SRC.joinpath(*node.module.split("."))
                offenders += [
                    f"{path.relative_to(SRC)}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not (package_dir / f"{alias.name}.py").exists()
                ]
    assert offenders == []


def test_duplicate_export_rejected():
    from repro._lazy import lazy_exports

    with pytest.raises(ValueError, match="'x' exported by both"):
        lazy_exports("repro", {"a": ("x",), "b": ("x",)})


#: Preamble of a fork-rule script: log every import a forked child makes.
CHILD_IMPORT_LOGGER = (
    "import importlib.abc, os, sys\n"
    "PARENT = os.getpid()\n"
    "LOG = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_APPEND)\n"
    "class ChildImportLogger(importlib.abc.MetaPathFinder):\n"
    "    def find_spec(self, fullname, path=None, target=None):\n"
    "        if os.getpid() != PARENT:\n"
    "            os.write(LOG, (fullname + '\\n').encode())\n"
    "        return None\n"
    "sys.meta_path.insert(0, ChildImportLogger())\n"
)


def _run_logging_child_imports(tmp_path, body: str, *args: str):
    """Run ``body`` after the logger; returns (stdout, child imports)."""
    log_path = tmp_path / "child_imports.log"
    out = _run(CHILD_IMPORT_LOGGER + body, str(log_path), *args)
    child = log_path.read_text().split() if log_path.exists() else []
    return out, child


def test_forked_frontend_worker_imports_nothing(tmp_path, fitted_pipeline,
                                                small_split):
    """A 1-worker frontend scores a row; its forked worker imports no
    module: everything it runs was imported by the parent first."""
    from repro.serve.registry import ModelRegistry

    registry_root = tmp_path / "registry"
    registry = ModelRegistry(registry_root)
    registry.save(fitted_pipeline, slot="champion")
    row_path = tmp_path / "row.npy"
    np.save(row_path, small_split.test.features[:1])
    body = (
        "import numpy as np\n"
        "from repro.serve.frontend import FrontendConfig, ScoringFrontend\n"
        "from repro.serve.registry import ModelRegistry\n"
        "model = ModelRegistry(sys.argv[2]).load('champion')\n"
        "row = np.load(sys.argv[3])[0]\n"
        "config = FrontendConfig(n_workers=1)\n"
        "with ScoringFrontend(model, config) as frontend:\n"
        "    result = frontend.submit(row).result(timeout=60)\n"
        "assert result.ok, result\n"
        "print(repr(result.score))\n"
    )
    out, child_imports = _run_logging_child_imports(
        tmp_path, body, str(registry_root), str(row_path)
    )
    expected = registry.load("champion").predict_proba(
        small_split.test.features[:1])[0]
    assert float(out) == expected
    assert child_imports == []


#: Training code: a process that loads and serves a model imports none
#: of it.
TRAINING = ("repro.train", "repro.pipeline", "repro.metrics", "repro.timing",
            "repro.gbdt.boosting", "repro.gbdt.histogram", "repro.gbdt.tree",
            "repro.gbdt.binning")


def test_serving_process_imports_no_training_code(tmp_path, fitted_pipeline,
                                                  small_split):
    """A fresh process loads the champion, scores rows and serves one
    through a 1-worker frontend without importing any training module."""
    from repro.serve.registry import ModelRegistry

    registry_root = tmp_path / "registry"
    ModelRegistry(registry_root).save(fitted_pipeline, slot="champion")
    rows_path = tmp_path / "rows.npy"
    np.save(rows_path, small_split.test.features[:64])
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.serve.frontend import FrontendConfig, ScoringFrontend\n"
        "from repro.serve.registry import ModelRegistry\n"
        "model = ModelRegistry(sys.argv[1]).load('champion')\n"
        "rows = np.load(sys.argv[2])\n"
        "scores = model.predict_proba(rows)\n"
        "with ScoringFrontend(model, FrontendConfig(n_workers=1)) as frontend:\n"
        "    result = frontend.submit(rows[0]).result(timeout=60)\n"
        "assert result.ok and result.score == scores[0], result\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    loaded = _run(script, str(registry_root), str(rows_path)).split()
    assert "repro.gbdt.scorer" in loaded
    assert [m for m in loaded
            if any(m == t or m.startswith(t + ".") for t in TRAINING)] == []


def test_forked_pool_worker_imports_nothing(tmp_path):
    """Two forked experiment workers fit and score trainers of every
    family without importing a ``repro`` module.  (NumPy imports its own
    submodules lazily, e.g. ``numpy.ma`` on a first ``np.unique``.)"""
    body = (
        "import numpy as np\n"
        "from repro.data.dataset import EnvironmentData\n"
        "from repro.parallel.engine import ParallelEngine\n"
        "from repro.parallel.shared import pack_train_test\n"
        "from repro.parallel.worker import (\n"
        "    FitTask, init_experiment_worker, run_fit_task)\n"
        "from repro.train.registry import TrainerSpec\n"
        "rng = np.random.default_rng(0)\n"
        "envs = [EnvironmentData(f'e{i}', rng.normal(size=(40, 3)),\n"
        "                        (rng.random(40) < 0.4).astype(float))\n"
        "        for i in range(3)]\n"
        "pack = pack_train_test(envs, envs)\n"
        "tasks = [FitTask(method=name, spec=TrainerSpec.of(name, n_epochs=2),\n"
        "                 seed=0, traced=False)\n"
        "         for name in ('ERM', 'LightMIRM', 'meta-IRM', 'V-REx')]\n"
        "try:\n"
        "    outcomes = ParallelEngine(n_jobs=2).map(\n"
        "        run_fit_task, tasks, initializer=init_experiment_worker,\n"
        "        initargs=(pack.spec,))\n"
        "finally:\n"
        "    pack.dispose()\n"
        "print(len(outcomes))\n"
    )
    out, child_imports = _run_logging_child_imports(tmp_path, body)
    assert out.strip() == "4"
    assert [m for m in child_imports if m.split(".")[0] == "repro"] == []
