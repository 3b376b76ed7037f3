"""Unit tests for the trainer registry."""

import pytest

from repro.baselines.erm import ERMTrainer
from repro.core.lightmirm import LightMIRMTrainer
from repro.core.meta_irm import MetaIRMTrainer
from repro.train.base import BaseTrainConfig, Trainer
from repro.train.registry import (
    available_trainers,
    make_trainer,
    penalty_parameter,
    resolve_trainer_name,
    trainer_info,
    trainer_names,
)


class TestMakeTrainer:
    def test_all_listed_names_constructible(self):
        for name in available_trainers():
            trainer = make_trainer(name, n_epochs=1)
            assert trainer.config.n_epochs == 1

    def test_names_cover_paper_table1(self):
        names = available_trainers()
        for required in (
            "ERM",
            "ERM + fine-tuning",
            "Up Sampling",
            "Group DRO",
            "V-REx",
            "IRMv1",
            "meta-IRM",
            "LightMIRM",
        ):
            assert required in names

    def test_types(self):
        assert isinstance(make_trainer("ERM"), ERMTrainer)
        assert isinstance(make_trainer("meta-IRM"), MetaIRMTrainer)
        assert isinstance(make_trainer("LightMIRM"), LightMIRMTrainer)

    def test_sampled_meta_irm_syntax(self):
        trainer = make_trainer("meta-IRM(5)")
        assert isinstance(trainer, MetaIRMTrainer)
        assert trainer.config.n_sampled_envs == 5
        assert trainer.name == "meta-IRM(5)"

    def test_config_overrides_forwarded(self):
        trainer = make_trainer("LightMIRM", queue_length=7, gamma=0.5)
        assert trainer.config.queue_length == 7
        assert trainer.config.gamma == 0.5

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_trainer("AdaBoost")

    def test_bad_sampled_syntax_raises(self):
        with pytest.raises(ValueError):
            make_trainer("meta-IRM(five)")


class TestNameResolution:
    def test_case_insensitive(self):
        assert resolve_trainer_name("lightmirm") == "LightMIRM"
        assert resolve_trainer_name("ERM") == "ERM"
        assert resolve_trainer_name("v-rex") == "V-REx"

    def test_separator_tolerant(self):
        assert resolve_trainer_name("meta_irm") == "meta-IRM"
        assert resolve_trainer_name("group dro") == "Group DRO"
        assert resolve_trainer_name("ERM + fine-tuning") == "ERM + fine-tuning"

    def test_aliases(self):
        assert resolve_trainer_name("finetune") == "ERM + fine-tuning"
        assert resolve_trainer_name("dro") == "Group DRO"
        assert resolve_trainer_name("irm") == "IRMv1"
        assert resolve_trainer_name("rex") == "V-REx"
        assert resolve_trainer_name("upsample") == "Up Sampling"
        assert resolve_trainer_name("light-mirm") == "LightMIRM"

    def test_sampled_syntax_any_casing(self):
        assert resolve_trainer_name("META-IRM(7)") == "meta-IRM(7)"
        assert resolve_trainer_name("meta irm(3)") == "meta-IRM(3)"

    def test_make_trainer_accepts_aliases(self):
        assert isinstance(make_trainer("lightmirm"), LightMIRMTrainer)
        assert isinstance(make_trainer("erm"), ERMTrainer)
        trainer = make_trainer("meta_irm(4)")
        assert isinstance(trainer, MetaIRMTrainer)
        assert trainer.config.n_sampled_envs == 4

    def test_did_you_mean_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'LightMIRM'"):
            resolve_trainer_name("LightMIRN")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            resolve_trainer_name("xgboost")


class TestMetadata:
    def test_trainer_names_cover_available(self):
        infos = trainer_names()
        assert [info.name for info in infos] == available_trainers()

    def test_every_info_has_config_class(self):
        for info in trainer_names():
            config_class = info.trainer_class.config_class
            assert issubclass(config_class, BaseTrainConfig)
            assert config_class.__name__.endswith("Config")
            assert issubclass(info.trainer_class, Trainer)
            trainer = make_trainer(info.name)
            assert type(trainer) is info.trainer_class
            assert type(trainer.config) is config_class
            assert info.trainer_class().config == config_class()
            assert trainer_info(info.name) is info

    def test_penalty_parameter_lookup(self):
        assert penalty_parameter("LightMIRM") == "lambda_penalty"
        assert penalty_parameter("LIGHTMIRM") == "lambda_penalty"
        assert penalty_parameter("irm") == "penalty_weight"
        assert penalty_parameter("rex") == "variance_weight"
        assert penalty_parameter("meta-IRM(5)") == "lambda_penalty"
        assert penalty_parameter("ERM") is None

    def test_penalty_parameter_unknown_raises(self):
        with pytest.raises(KeyError):
            penalty_parameter("AdaBoost")
