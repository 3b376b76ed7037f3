"""Benchmark regenerating Table III + Figure 7 (per-step time cost).

Absolute seconds differ from the paper's i7-11700 workstation, but the
*ratios* are what the complexity analysis predicts: complete meta-IRM's
meta-loss step costs O(M^2) per epoch vs LightMIRM's O(M), so with M = 26
environments the step ratio should be roughly an order of magnitude.
"""

from conftest import save_and_print

from repro.experiments.table3_timing import (
    format_table3,
    run_table3,
    step_proportions,
)


def test_table3_step_timing(benchmark, extended_context, results_dir):
    timings = benchmark.pedantic(
        lambda: run_table3(extended_context), rounds=1, iterations=1
    )
    rendered = format_table3(timings)
    save_and_print(results_dir, "table3_timing", rendered)

    by_name = {t.label: t for t in timings}
    complete = by_name["meta-IRM"]
    sampled = by_name["meta-IRM(5)"]
    light = by_name["LightMIRM"]

    meta_step = "calculating_meta_losses"

    # Paper shape 1 (headline): LightMIRM's meta-loss step is many times
    # faster than complete meta-IRM's (paper: ~30x on ~30 provinces; the
    # O(M^2) vs O(M) analysis predicts ~M/2 = 13x at M = 26).
    ratio = complete.step(meta_step) / light.step(meta_step)
    assert ratio > 5.0, f"meta-loss step speedup only {ratio:.1f}x"

    # Paper shape 2: the whole epoch is several times faster (paper: ~12x).
    epoch_ratio = complete.mean_epoch_seconds / light.mean_epoch_seconds
    assert epoch_ratio > 3.0, f"epoch speedup only {epoch_ratio:.1f}x"

    # Paper shape 3: sampled meta-IRM(5) sits between the two.
    assert light.mean_epoch_seconds <= sampled.mean_epoch_seconds
    assert sampled.mean_epoch_seconds < complete.mean_epoch_seconds

    # Paper shape 4 (Fig 7): the meta-loss step dominates complete
    # meta-IRM's epoch but not LightMIRM's.
    complete_share = step_proportions(complete)[meta_step]
    light_share = step_proportions(light)[meta_step]
    assert complete_share > 0.5
    assert light_share < complete_share

    # Cheap steps are method-independent: loading and format transforms
    # cost about the same everywhere (Table III's first two rows).
    for step in ("loading_data",):
        costs = [t.step(step) for t in timings]
        assert max(costs) - min(costs) < 0.05
