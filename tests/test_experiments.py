"""Integration tests for the experiment harness (tiny settings).

These check that every table/figure module runs end to end and produces
structurally valid output; the *shapes* against the paper are asserted in
the benchmark suite, which runs at full experiment scale.
"""

import numpy as np
import pytest

from repro.experiments.fig1_province_map import (
    format_fig1,
    relative_spread,
    run_fig1,
)
from repro.experiments.fig4_vehicle_mix import format_fig4, run_fig4
from repro.experiments.fig5_online import format_fig5, run_fig5
from repro.experiments.fig9_mrq_length import format_fig9, run_fig9
from repro.experiments.fig10_guangdong_share import (
    format_fig10,
    run_fig10,
    share_drop_ratio,
)
from repro.experiments.fig11_hubei import format_fig11, run_fig11
from repro.experiments.runner import ExperimentContext, ExperimentSettings
from repro.experiments.table1_main import format_table1, run_table1
from repro.experiments.table2_sampling import (
    format_curves,
    format_table2,
    run_table2,
    run_training_curves,
    sampling_levels,
)
from repro.experiments.table3_timing import (
    format_table3,
    run_table3,
    step_proportions,
)
from repro.experiments.table4_gamma import format_table4, run_table4
from repro.experiments.table5_guangdong import format_table5, run_table5
from repro.experiments.table6_iid import format_table6, run_table6


@pytest.fixture(scope="module")
def tiny_context():
    return ExperimentContext(
        ExperimentSettings(n_samples=5_000, data_seed=1, trainer_seeds=(0,))
    )


@pytest.fixture(scope="module")
def tiny_iid_context():
    return ExperimentContext(
        ExperimentSettings(n_samples=5_000, data_seed=1, trainer_seeds=(0,),
                           platform="iid")
    )


class TestRunnerPlumbing:
    def test_caches_dataset(self, tiny_context):
        assert tiny_context.dataset is tiny_context.dataset

    def test_environment_counts(self, tiny_context):
        assert len(tiny_context.train_environments) == 12
        assert len(tiny_context.test_environments) == 12

    def test_invalid_split_name(self):
        with pytest.raises(ValueError, match="platform must be one of"):
            ExperimentSettings(platform="bootstrap")

    def test_score_method_structure(self, tiny_context):
        from repro.train.registry import make_trainer

        scores = tiny_context.score_method(
            "ERM", lambda seed: make_trainer("ERM", seed=seed, n_epochs=5)
        )
        row = scores.as_row()
        assert set(row) == {"method", "mKS", "wKS", "mAUC", "wAUC"}
        assert 0 <= row["wKS"] <= row["mKS"] <= 1


class TestExperimentTable:
    def test_platforms(self):
        from repro.experiments.runner import EXPERIMENTS

        on = {key: e.platform for key, e in EXPERIMENTS.items()}
        assert on.pop("table6") == "iid"
        assert [on.pop(key) for key in ("table2", "table3", "fig8")] == [
            "extended"] * 3
        assert set(on.values()) == {"temporal"}

    def test_settings_take_platform_defaults_unless_given(self):
        extended = ExperimentSettings(platform="extended")
        assert (extended.n_samples, extended.trainer_seeds) == (50_000, (0,))
        assert ExperimentSettings() == ExperimentSettings(
            n_samples=40_000, trainer_seeds=(0, 1, 2), platform="temporal")
        given = ExperimentSettings(platform="extended", n_samples=3_000,
                                   trainer_seeds=(4, 5))
        assert (given.n_samples, given.trainer_seeds) == (3_000, (4, 5))
        context = ExperimentContext(given)
        assert len(context.generator_config.registry.names) == 26

    def test_reading_the_table_imports_no_artefact_module(self):
        import os
        import pathlib
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.experiments\n"
            "assert len(repro.experiments.EXPERIMENTS) == 13\n"
            "print(' '.join(m for m in sys.modules\n"
            "               if m.startswith('repro.experiments')))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        loaded = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        ).stdout.split()
        assert sorted(loaded) == ["repro.experiments",
                                  "repro.experiments.runner"]


class TestFig1:
    def test_runs_and_formats(self, tiny_context):
        cells = run_fig1(tiny_context)
        assert len(cells) >= 10
        assert cells[0].ks >= cells[-1].ks
        assert 0 < relative_spread(cells) < 1
        assert "Fig 1" in format_fig1(cells)


class TestFig4:
    def test_runs_and_formats(self, tiny_context):
        mixes = run_fig4(tiny_context.dataset)
        assert tuple(mixes) == (2016, 2017, 2018, 2019, 2020)
        for year_mix in mixes.values():
            assert sum(year_mix.values()) == pytest.approx(1.0)
        assert "Fig 4" in format_fig4(mixes)

    def test_unknown_year_raises(self, tiny_context):
        with pytest.raises(ValueError):
            run_fig4(tiny_context.dataset, years=(1999,))


class TestFig5:
    def test_runs_and_formats(self, tiny_context):
        replay = run_fig5(tiny_context, method="ERM")
        assert 0 <= replay.companion_bad_debt_rate <= 1
        assert "bad-debt" in format_fig5(replay)


class TestTable1:
    def test_two_method_subset(self, tiny_context):
        scores = run_table1(tiny_context, methods=("ERM", "LightMIRM"))
        assert [s.method for s in scores] == ["ERM", "LightMIRM"]
        out = format_table1(scores)
        assert "Table I" in out
        assert "best wKS" in out


class TestTable2:
    def test_sampling_levels_adapt(self):
        assert sampling_levels(26) == (20, 10, 5)
        small = sampling_levels(12)
        assert all(1 <= s <= 11 for s in small)
        assert sorted(small, reverse=True) == list(small)

    def test_curves_run(self, tiny_context):
        curves = run_training_curves(tiny_context, every=5, n_epochs=10)
        assert {c.method for c in curves} >= {"meta-IRM", "LightMIRM"}
        for curve in curves:
            assert len(curve.epochs) == len(curve.test_ks) == 2
        assert "Fig 6/8" in format_curves(curves)


class TestTable3:
    def test_timings_structure(self, tiny_context):
        timings = run_table3(tiny_context)
        assert [t.label for t in timings] == [
            "meta-IRM", "meta-IRM(5)", "LightMIRM",
        ]
        complete = timings[0]
        light = timings[2]
        # Complete meta-IRM's meta-loss step must dominate LightMIRM's.
        assert complete.step("calculating_meta_losses") > light.step(
            "calculating_meta_losses"
        )
        proportions = step_proportions(complete)
        assert sum(proportions.values()) == pytest.approx(1.0)
        assert "Table III" in format_table3(timings)


class TestFig9:
    def test_short_sweep(self, tiny_context):
        results = run_fig9(tiny_context, lengths=(1, 3))
        assert [r.length for r in results] == [1, 3]
        assert "Fig 9" in format_fig9(results)


class TestTable4:
    def test_short_sweep(self, tiny_context):
        scores = run_table4(tiny_context, gammas=(0.5, 1.0))
        assert [s.method for s in scores] == ["gamma=0.5", "gamma=1.0"]
        assert "Table IV" in format_table4(scores)


class TestFig10:
    def test_runs_and_formats(self, tiny_context):
        shares = run_fig10(tiny_context.dataset)
        assert set(shares) == {2016, 2017, 2018, 2019, 2020}
        assert 0.3 < share_drop_ratio(shares) < 0.8
        assert "Fig 10" in format_fig10(shares)


class TestTable5:
    def test_subset(self, tiny_context):
        scores = run_table5(tiny_context, methods=("ERM", "LightMIRM"))
        assert len(scores) == 2
        for s in scores:
            assert 0 <= s.ks <= 1
            assert 0 <= s.auc <= 1
        assert "Table V" in format_table5(scores)


class TestFig11:
    def test_subset(self, tiny_context):
        scores = run_fig11(tiny_context, methods=("ERM", "LightMIRM"))
        for s in scores:
            assert 0 <= s.ks_first_half <= 1
            assert 0 <= s.ks_second_half <= 1
            assert s.stability_gap >= 0
        assert "Fig 11" in format_fig11(scores)


class TestTable6:
    def test_requires_iid_context(self, tiny_context):
        with pytest.raises(ValueError):
            run_table6(tiny_context)

    def test_runs_on_iid_context(self, tiny_iid_context):
        scores = run_table6(tiny_iid_context)
        names = [s.method for s in scores]
        assert "meta-IRM(complete)" in names
        assert "LightMIRM" in names
        assert "Table VI" in format_table6(scores)
