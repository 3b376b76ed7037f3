"""Unit tests for the typed HPSpace API and its parameter descriptors."""

import numpy as np
import pytest

from repro.train.registry import make_trainer, trainer_names
from repro.tune import (
    Choice,
    HPSpace,
    IntRange,
    LogUniform,
    SpaceError,
    Uniform,
    default_space,
)

ALL_TRAINERS = [info.name for info in trainer_names()]


class TestDescriptors:
    def test_uniform_bounds(self, rng):
        spec = Uniform(0.25, 0.75)
        values = [spec.sample(rng) for _ in range(50)]
        assert all(0.25 <= v <= 0.75 for v in values)
        assert all(isinstance(v, float) for v in values)

    def test_uniform_rejects_empty_interval(self):
        with pytest.raises(SpaceError, match="low < high"):
            Uniform(1.0, 1.0)

    def test_loguniform_bounds(self, rng):
        spec = LogUniform(1e-4, 1e-1)
        values = [spec.sample(rng) for _ in range(50)]
        assert all(1e-4 <= v <= 1e-1 for v in values)

    def test_loguniform_rejects_nonpositive_low(self):
        with pytest.raises(SpaceError, match="low > 0"):
            LogUniform(0.0, 1.0)

    def test_loguniform_spans_decades(self, rng):
        # The point of log sampling: both ends of a 3-decade range show up.
        spec = LogUniform(1e-3, 1.0)
        values = [spec.sample(rng) for _ in range(200)]
        assert min(values) < 1e-2 and max(values) > 1e-1

    def test_choice(self, rng):
        spec = Choice(("a", "b"))
        assert spec.sample(rng) in ("a", "b")
        assert spec.contains("a") and not spec.contains("c")
        assert spec.grid_values() == ("a", "b")

    def test_choice_coerces_sequences(self):
        assert Choice([1, 2]).values == (1, 2)

    def test_choice_rejects_empty(self):
        with pytest.raises(SpaceError, match="at least one"):
            Choice(())

    def test_intrange(self, rng):
        spec = IntRange(2, 5)
        values = [spec.sample(rng) for _ in range(50)]
        assert all(isinstance(v, int) and 2 <= v <= 5 for v in values)
        assert spec.grid_values() == (2, 3, 4, 5)
        assert spec.contains(3) and not spec.contains(6)
        assert not spec.contains(True)  # bools are not valid ints here

    def test_intrange_rejects_inverted(self):
        with pytest.raises(SpaceError, match="low <= high"):
            IntRange(5, 2)

    def test_continuous_has_no_grid(self):
        with pytest.raises(SpaceError, match="continuous"):
            Uniform(0.0, 1.0).grid_values()

    def test_to_json(self):
        assert Uniform(0.0, 1.0).to_json()["kind"] == "uniform"
        assert LogUniform(0.1, 1.0).to_json()["kind"] == "loguniform"
        assert Choice((1,)).to_json() == {"kind": "choice", "values": [1]}
        assert IntRange(1, 3).to_json()["kind"] == "intrange"


class TestHPSpace:
    def test_sample_in_sorted_order(self, rng):
        space = HPSpace("ERM", {
            "learning_rate": LogUniform(0.1, 1.0),
            "l2": LogUniform(1e-5, 1e-1),
        })
        params = space.sample(rng)
        assert list(params) == ["l2", "learning_rate"]
        assert space.contains(params)

    def test_sample_deterministic_per_stream(self):
        space = default_space("LightMIRM")
        a = space.sample(np.random.default_rng(42))
        b = space.sample(np.random.default_rng(42))
        assert a == b

    def test_unknown_param_lists_valid_fields(self):
        with pytest.raises(SpaceError, match="valid fields") as excinfo:
            HPSpace("ERM", {"leaning_rate": Uniform(0.0, 1.0)})
        assert "learning_rate" in str(excinfo.value)

    @pytest.mark.parametrize("trainer", ALL_TRAINERS)
    def test_unknown_param_rejected_for_every_trainer(self, trainer):
        with pytest.raises(SpaceError, match="unknown parameter"):
            HPSpace(trainer, {"definitely_not_a_field": Uniform(0.0, 1.0)})

    @pytest.mark.parametrize("reserved", ["seed", "n_epochs"])
    def test_reserved_fields_rejected(self, reserved):
        with pytest.raises(SpaceError, match="reserved"):
            HPSpace("ERM", {reserved: IntRange(1, 5)})

    def test_non_spec_value_rejected(self):
        with pytest.raises(SpaceError, match="ParamSpec"):
            HPSpace("ERM", {"learning_rate": [0.1, 0.2]})

    def test_empty_space_rejected(self):
        with pytest.raises(SpaceError, match="at least one"):
            HPSpace("ERM", {})

    def test_unknown_trainer_rejected(self):
        with pytest.raises(KeyError):
            HPSpace("LightFIRM", {"learning_rate": Uniform(0.0, 1.0)})

    def test_grid_classmethod_and_points(self):
        space = HPSpace.grid("ERM", {"learning_rate": [0.1, 0.5],
                                     "l2": [1e-4]})
        points = space.grid_points()
        assert points == [
            {"l2": 1e-4, "learning_rate": 0.1},
            {"l2": 1e-4, "learning_rate": 0.5},
        ]

    def test_contains_rejects_missing_and_out_of_range(self):
        space = HPSpace("ERM", {"learning_rate": Uniform(0.1, 0.5)})
        assert not space.contains({})
        assert not space.contains({"learning_rate": 0.9})
        assert space.contains({"learning_rate": 0.3})

    def test_to_json_round_trip_names(self):
        space = default_space("LightMIRM")
        payload = space.to_json()
        assert payload["trainer"] == "LightMIRM"
        assert list(payload["params"]) == space.names()


class TestDefaultSpaces:
    @pytest.mark.parametrize("trainer", ALL_TRAINERS)
    def test_registered_for_every_trainer(self, trainer):
        space = default_space(trainer)
        assert space.trainer == trainer

    @pytest.mark.parametrize("trainer", ALL_TRAINERS)
    def test_samples_build_real_trainers(self, trainer, rng):
        # Every sampled configuration must be constructible through the
        # registry — the contract run_asha relies on.
        params = default_space(trainer).sample(rng)
        trainer_obj = make_trainer(trainer, seed=0, n_epochs=2, **params)
        assert trainer_obj.name == trainer

    def test_alias_resolution(self):
        assert default_space("lightmirm").trainer == "LightMIRM"
        assert default_space("meta-IRM(5)").trainer == "meta-IRM"
