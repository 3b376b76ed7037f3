"""Training-cost study (the Table III / Fig 7 scenario).

Profiles the operation steps of complete meta-IRM, sampled meta-IRM(5) and
LightMIRM on a 26-province platform (the environment count where the
paper's S in {5, 10, 20} sampling sizes apply) and prints the per-step
costs, the step proportions, and the speedup ratios the complexity analysis
of Section III-F predicts (O(2M^2) vs O(4M) per epoch).

Run:  python examples/efficiency_study.py
"""

from repro.core import (
    LightMIRMConfig,
    LightMIRMTrainer,
    MetaIRMConfig,
    MetaIRMTrainer,
)
from repro.data import GeneratorConfig, LoanDataGenerator, temporal_split
from repro.data.provinces import extended_registry
from repro.experiments.table3_timing import format_table3
from repro.obs.report import TimingTable
from repro.pipeline import GBDTFeatureExtractor
from repro.timing import StepTimer

PROFILE_EPOCHS = 10


def main() -> None:
    config = GeneratorConfig(
        n_samples=30_000, seed=7, registry=extended_registry()
    )
    dataset = LoanDataGenerator(config).generate()
    split = temporal_split(dataset)
    extractor = GBDTFeatureExtractor().fit(split.train)
    environments = extractor.encode_environments(split.train)
    print(
        f"{len(environments)} environments; complexity analysis predicts a "
        f"~{len(environments) / 2:.0f}x meta-loss step gap"
    )

    trainers = {
        "meta-IRM": MetaIRMTrainer(MetaIRMConfig(n_epochs=PROFILE_EPOCHS)),
        "meta-IRM(5)": MetaIRMTrainer(
            MetaIRMConfig(n_epochs=PROFILE_EPOCHS, n_sampled_envs=5)
        ),
        "LightMIRM": LightMIRMTrainer(
            LightMIRMConfig(n_epochs=PROFILE_EPOCHS)
        ),
    }

    tables = []
    for name, trainer in trainers.items():
        timer = StepTimer(enabled=True)
        trainer.fit(environments, timer=timer)
        tables.append(TimingTable.from_timer(name, timer, PROFILE_EPOCHS))
    print(format_table3(tables))


if __name__ == "__main__":
    main()
