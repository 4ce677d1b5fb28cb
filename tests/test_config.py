import dataclasses
from pathlib import Path

import numpy as np
import pytest
import yaml

from roomwave.config import (_SCHEMA, ConfigError, apply_overrides,
                             load_config, parse_config)
from roomwave.experiments import ExperimentConfig

DEFAULT_YAML = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def assert_same_config(a, b):
    """Field-by-field equality; the room holds arrays, so `==` cannot."""
    for f in dataclasses.fields(ExperimentConfig):
        if f.name != "room":
            assert getattr(a, f.name) == getattr(b, f.name), f.name
    for f in dataclasses.fields(a.room):
        assert np.array_equal(getattr(a.room, f.name),
                              getattr(b.room, f.name)), f.name


class TestSchema:
    def test_empty_document_gives_defaults(self):
        assert_same_config(parse_config(None), ExperimentConfig())

    def test_default_yaml_lists_the_code_defaults(self):
        assert_same_config(load_config(DEFAULT_YAML), ExperimentConfig())

    def test_schema_keys_are_the_default_yaml_keys(self):
        document = yaml.safe_load(DEFAULT_YAML.read_text(encoding="utf-8"))
        keys = set()
        for name, body in document.items():
            keys |= ({f"{name}.{key}" for key in body}
                     if isinstance(body, dict) else {name})
        assert keys == set(_SCHEMA)     # `seed` is the one top-level key

    def test_cross_field_values_checked_after_every_key(self):
        config = parse_config({"array": {"mic_count": 3},
                               "lasso": {"folds": 2}})
        assert (config.mic_count, config.lasso_folds) == (3, 2)
        config = apply_overrides(parse_config(None),
                                 ["array.mic_count=3", "lasso.folds=2"])
        assert (config.mic_count, config.lasso_folds) == (3, 2)

    @pytest.mark.parametrize("document, name", [
        ({"array": {"mic_cuont": 5}}, "mic_cuont"),
        ({"simulaton": {"snr_db": 10.0}}, "simulaton")])
    def test_unknown_key_rejected_by_name(self, document, name):
        with pytest.raises(ConfigError, match=name):
            parse_config(document)

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="array.mic_count"):
            parse_config({"array": {"mic_count": "many"}})

    def test_value_out_of_range_is_config_error(self):
        with pytest.raises(ConfigError, match="lasso_folds"):
            parse_config({"lasso": {"folds": 1}})


class TestOverrides:
    def test_scalars_applied(self):
        config = apply_overrides(parse_config(None), [
            "seed=3", "array.mic_count=50", "lasso.mode=global",
            "simulation.snr_db=inf", "benchmark.shared_perturbation=true"])
        assert config.master_seed == 3
        assert config.mic_count == 50
        assert config.lasso_mode == "global"
        assert config.snr_db == float("inf")
        assert config.shared_perturbation is True

    def test_room_key_keeps_the_other_room_fields(self):
        base = parse_config({"room": {"dimensions": [6.0, 5.0, 4.0]}})
        config = apply_overrides(base, ["room.reflection_coefficient=0.5"])
        assert config.room.reflection_coefficient == 0.5
        assert np.array_equal(config.room.dimensions, [6.0, 5.0, 4.0])
        assert np.array_equal(config.room.source_position, [1.0, 2.0, 1.5])

    @pytest.mark.parametrize("override", [
        "benchmark.boundary_counts=5", "benchmark.boundary_counts=[1, 2]",
        "array.mic_count=[1, 2]"])
    def test_list_rejected(self, override):
        with pytest.raises(ConfigError, match="scalar"):
            apply_overrides(parse_config(None), [override])

    @pytest.mark.parametrize("override, name", [
        ("nosuch.key=1", "nosuch"), ("array.nosuch=1", "nosuch"),
        ("array=1", "section.key"), ("array.mic_count", "section.key=value")])
    def test_unknown_or_malformed_rejected(self, override, name):
        with pytest.raises(ConfigError, match=name):
            apply_overrides(parse_config(None), [override])
