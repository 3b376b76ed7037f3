"""Training-cost study (the Table III / Fig 7 scenario).

Profiles the operation steps of complete meta-IRM, sampled meta-IRM(5) and
LightMIRM on the 26-province ``extended`` platform (the environment count
where the paper's S in {5, 10, 20} sampling sizes apply) at 30k rows and
prints the per-step costs, the step proportions, and the speedup ratios the
complexity analysis of Section III-F predicts (O(2M^2) vs O(4M) per epoch).

Run:  python examples/efficiency_study.py
"""

from repro.experiments import ExperimentContext, ExperimentSettings
from repro.experiments.table3_timing import format_table3, run_table3


def main() -> None:
    context = ExperimentContext(
        ExperimentSettings(platform="extended", n_samples=30_000)
    )
    n_environments = len(context.train_environments)
    print(
        f"{n_environments} environments; complexity analysis predicts a "
        f"~{n_environments / 2:.0f}x meta-loss step gap"
    )
    print(format_table3(run_table3(context)))


if __name__ == "__main__":
    main()
