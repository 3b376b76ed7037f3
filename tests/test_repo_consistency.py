"""Repository-consistency checks: docs, benchmarks and code stay in sync."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestExperimentIndex:
    def test_design_md_benchmarks_exist(self):
        """Every benchmark DESIGN.md references must exist on disk."""
        design = (REPO / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
        assert referenced, "DESIGN.md references no benchmarks"
        for name in referenced:
            assert (REPO / "benchmarks" / name).exists(), name

    def test_every_experiment_module_has_a_benchmark(self):
        """Each paper table/figure module is regenerated by some benchmark."""
        experiments_dir = REPO / "src" / "repro" / "experiments"
        modules = {
            p.stem
            for p in experiments_dir.glob("*.py")
            if p.stem not in ("__init__", "runner")
        }
        bench_sources = "\n".join(
            p.read_text() for p in (REPO / "benchmarks").glob("test_*.py")
        )
        missing = {m for m in modules if m not in bench_sources}
        assert not missing, f"experiment modules without benchmarks: {missing}"

    def test_cli_experiments_resolve(self):
        """Every experiment id points at real module attributes and a
        platform."""
        import importlib

        from repro.experiments.runner import EXPERIMENTS, PLATFORMS

        assert len(EXPERIMENTS) == 13
        for key, experiment in EXPERIMENTS.items():
            module = importlib.import_module(
                f"repro.experiments.{experiment.module}"
            )
            assert callable(getattr(module, experiment.run)), key
            assert callable(getattr(module, experiment.format)), key
            assert experiment.takes in ("context", "dataset"), key
            assert experiment.platform in PLATFORMS, key


class TestExamples:
    def test_examples_exist_and_have_mains(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        for example in examples:
            source = example.read_text()
            assert 'if __name__ == "__main__":' in source, example.name
            assert source.startswith('"""'), f"{example.name} lacks a docstring"

    def test_readme_mentions_every_example(self):
        readme = (REPO / "README.md").read_text()
        for example in (REPO / "examples").glob("*.py"):
            assert example.name in readme, example.name


class TestTrackedArtifacts:
    def test_tune_leaderboard_validates_clean(self):
        """The tracked leaderboard is schema-valid and reproducible: a
        ``-dirty`` git stamp means it was generated from a tree no commit
        records (regenerate after committing)."""
        import json

        from repro.tune import validate_leaderboard

        payload = json.loads((REPO / "TUNE_leaderboard.json").read_text())
        validate_leaderboard(payload)
        git = payload["git"]
        assert isinstance(git, str) and git
        assert not git.endswith("-dirty"), (
            f"tracked TUNE_leaderboard.json was stamped from a dirty "
            f"tree ({git})"
        )

    def test_bench_tune_validates(self):
        """The tracked joint-search benchmark validates, its cache hit
        (bit-identity, hits > 0), and its configuration actually gives
        the cache room to win (>= 4 trials per distinct extractor,
        >= 2x encode-work speedup)."""
        import json

        from repro.perfbench import TUNE_PAYLOAD

        payload = json.loads((REPO / "BENCH_tune.json").read_text())
        assert TUNE_PAYLOAD.validate(payload) == []
        joint = payload["benchmarks"]["joint_search"]
        assert joint["trials_per_extractor"] >= 4
        assert joint["encode_speedup"] >= 2.0

    @pytest.mark.parametrize("name", ["parallel", "scale"])
    def test_bench_file_validates(self, name):
        """Every other tracked BENCH file passes its schema too."""
        import json

        import repro.perfbench as perfbench

        schema = getattr(perfbench, f"{name.upper()}_PAYLOAD")
        payload = json.loads((REPO / f"BENCH_{name}.json").read_text())
        assert schema.validate(payload) == []


class TestPublicApi:
    def test_all_exports_resolve(self):
        """Every name in every package __all__ must be importable."""
        import importlib

        packages = (
            "repro",
            "repro.core",
            "repro.baselines",
            "repro.data",
            "repro.gbdt",
            "repro.metrics",
            "repro.models",
            "repro.train",
            "repro.pipeline",
            "repro.eval",
            "repro.persist",
            "repro.explain",
            "repro.monitor",
            "repro.tune",
            "repro.experiments",
            "repro.serve",
            "repro.perfbench",
            "repro.obs",
            "repro.obs.live",
        )
        for package_name in packages:
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", ()):
                assert hasattr(package, name), f"{package_name}.{name}"

    def test_public_functions_documented(self):
        """Every public callable exported at package level has a docstring."""
        import importlib

        for package_name in ("repro.core", "repro.metrics", "repro.persist",
                             "repro.explain", "repro.monitor", "repro.tune",
                             "repro.serve", "repro.obs", "repro.obs.live"):
            package = importlib.import_module(package_name)
            for name in package.__all__:
                obj = getattr(package, name)
                if callable(obj):
                    assert obj.__doc__, f"{package_name}.{name} undocumented"


class TestNoScipyAtRuntime:
    """Training and serving run on NumPy alone; scipy is only the tests'
    (the seed oracle, ``tests/seed_reference.py``)."""

    MODULES = (
        "repro",
        "repro.gbdt.packing",
        "repro.gbdt.leaf_encoder",
        "repro.core.lightmirm",
        "repro.metrics.fairness",
        "repro.pipeline.pipeline",
        "repro.data.splits",
        "repro.train.base",
        "repro.parallel.shared",
        "repro.parallel.worker",
        "repro.tune",
        "repro.serve.frontend",
        "repro.serve.registry",
        "repro.serve.service",
        "repro.serve.lifecycle",
    )

    #: Lazy façades whose every export is resolved too.
    FACADES = ("repro", "repro.baselines", "repro.core", "repro.gbdt",
               "repro.tune", "repro.serve")

    def test_runtime_imports_load_no_scipy(self):
        script = (
            "import importlib, sys\n"
            f"for name in {self.MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            f"for name in {self.FACADES!r}:\n"
            "    package = importlib.import_module(name)\n"
            "    for export in package.__all__:\n"
            "        getattr(package, export)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout
        assert out.strip() == "[]"

    def test_no_src_module_imports_scipy(self):
        pattern = re.compile(r"^\s*(import scipy|from scipy)", re.MULTILINE)
        importers = {
            path.relative_to(REPO / "src").as_posix()
            for path in (REPO / "src").rglob("*.py")
            if pattern.search(path.read_text())
        }
        assert importers == set()


class TestImportFootprint:
    """A training or serving process imports only the ``repro`` modules
    it runs: the package façades are lazy, so nothing pulls in the
    experiment, tuning, benchmark or report layers behind a workload's
    back.  Module names, not wall clock, keep this deterministic."""

    SERVING = ("repro.serve.frontend", "repro.serve.registry")

    #: Layers no benchmarked workload runs.
    NEVER = ("repro.baselines", "repro.eval", "repro.experiments",
             "repro.tune", "repro.perfbench", "repro.verify",
             "repro.explain", "repro.obs.report", "repro.cli")

    #: Layers a training process has no use for.
    NOT_IN_TRAINING = ("repro.serve", "repro.persist")

    #: Training code a serving process has no use for.
    NOT_IN_SERVING = ("repro.train", "repro.pipeline", "repro.metrics",
                      "repro.timing", "repro.gbdt.boosting",
                      "repro.gbdt.histogram", "repro.gbdt.tree",
                      "repro.gbdt.binning")

    @staticmethod
    def loaded(modules: tuple[str, ...]) -> list[str]:
        script = (
            "import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "print('\\n'.join(m for m in sys.modules\n"
            "                 if m.split('.')[0] == 'repro'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, "-c", script, *modules], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout.split()

    @staticmethod
    def under(loaded: list[str], layers: tuple[str, ...]) -> list[str]:
        return sorted(m for m in loaded
                      if any(m == layer or m.startswith(layer + ".")
                             for layer in layers))

    @pytest.mark.parametrize("workload", ["train_scale", "train_meta_head"])
    def test_training_set(self, workload):
        from bench.train import SETUP_IMPORTS

        loaded = self.loaded(SETUP_IMPORTS[workload])
        assert set(SETUP_IMPORTS[workload]) <= set(loaded)
        assert self.under(loaded, self.NEVER + self.NOT_IN_TRAINING) == []

    def test_serving_set(self):
        loaded = self.loaded(self.SERVING)
        assert set(self.SERVING) <= set(loaded)
        assert self.under(loaded, self.NEVER + self.NOT_IN_SERVING) == []

    def test_tracer_loads_no_metrics(self):
        # Every trainer imports the tracer; histograms are serving-only.
        loaded = self.loaded(("repro.obs.tracer",))
        assert "repro.obs.tracer" in loaded
        assert "repro.obs.metrics" not in loaded

    #: Both training paths, fit and evaluated at smoke size.
    TWO_FITS = """
import sys

from repro.core.config import LightMIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.data.generator import GeneratorConfig, LoanDataGenerator
from repro.data.splits import temporal_split
from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.leaf_encoder import leaf_encode_environments
from repro.gbdt.packing import pack_generated
from repro.metrics.fairness import evaluate_environments
from repro.pipeline.pipeline import LoanDefaultPipeline

config = GeneratorConfig(n_samples=3000, total_features=40, n_spurious=4)
split = temporal_split(LoanDataGenerator(config).generate())
pipeline = LoanDefaultPipeline(LightMIRMTrainer(LightMIRMConfig(n_epochs=2)))
pipeline.fit(split.train)
pipeline.evaluate(split.test)
with pack_generated(LoanDataGenerator(config), chunk_rows=1024) as packed:
    model = GBDTClassifier(GBDTParams(n_trees=3, dtype="float32")).fit_binned(
        packed.binned, packed.labels, packed.binner)
    environments = leaf_encode_environments(
        model, packed.binned, [(name, rows, packed.labels[rows])
                               for name, rows in packed.province_rows().items()])
    result = LightMIRMTrainer(LightMIRMConfig(n_epochs=2)).fit(environments)
    evaluate_environments({e.name: e.labels for e in environments},
                          {e.name: result.predict_proba(e.features)
                           for e in environments})
print("numpy.ma" in sys.modules)
"""

    def test_training_loads_no_numpy_ma(self):
        """numpy 2.4's plain ``np.unique`` (and interpolating
        ``np.quantile``) import numpy.ma, about 1.1 MB that stays for the
        rest of the process; neither training path may call them."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run(
            [sys.executable, "-c", self.TWO_FITS], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout
        assert out.strip() == "False"
