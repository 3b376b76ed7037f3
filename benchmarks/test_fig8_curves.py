"""Benchmark regenerating Figures 6 and 8 (test KS during training)."""

from conftest import save_and_print

from repro.experiments.table2_sampling import (
    format_curves,
    run_training_curves,
)


def test_fig6_fig8_training_curves(benchmark, extended_context, results_dir):
    curves = benchmark.pedantic(
        lambda: run_training_curves(extended_context), rounds=1, iterations=1
    )
    rendered = format_curves(curves)
    save_and_print(results_dir, "fig6_fig8_curves", rendered)

    by_name = {c.method: c for c in curves}
    complete = by_name["meta-IRM"]
    light = by_name["LightMIRM"]
    s5 = by_name["meta-IRM(5)"]

    # Paper shape 1: every variant's test KS improves over training.
    for curve in curves:
        assert curve.final() > curve.test_ks[0]

    # Paper shape 2: LightMIRM ends at least on par with the aggressive
    # sampling variant and within reach of complete meta-IRM.
    assert light.final() >= s5.final() - 0.01
    assert light.best() >= complete.best() - 0.02

    # Paper shape 3 (Fig 6): complete meta-IRM converges fastest at the
    # start (more computation per epoch).
    assert complete.test_ks[0] >= min(c.test_ks[0] for c in curves)
