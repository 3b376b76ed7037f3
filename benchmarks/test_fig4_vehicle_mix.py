"""Benchmark regenerating Figure 4 (vehicle-type mix by year)."""

from conftest import save_and_print

from repro.experiments.fig4_vehicle_mix import (
    format_fig4,
    mix_shift_l1,
    run_fig4,
)


def test_fig4_vehicle_type_distribution(benchmark, main_context, results_dir):
    mixes = benchmark.pedantic(
        lambda: run_fig4(main_context.dataset), rounds=1, iterations=1
    )
    rendered = format_fig4(mixes)
    save_and_print(results_dir, "fig4_vehicle_mix", rendered)

    # Paper shape: the mix "changes from year to year" — material drift
    # between the first and last year.
    assert mix_shift_l1(mixes) > 0.05

    # Directional shapes: used cars shrink, trucks/SUVs grow over time.
    assert mixes[2020]["used_car"] < mixes[2016]["used_car"]
    assert mixes[2020]["trailer_truck"] > mixes[2016]["trailer_truck"]
    assert mixes[2020]["new_suv"] > mixes[2016]["new_suv"]

    # Each year's shares form a distribution.
    for year_mix in mixes.values():
        assert abs(sum(year_mix.values()) - 1.0) < 1e-9
