import dataclasses
from pathlib import Path

import numpy as np
import pytest
import yaml

from roomwave.config import (_SCHEMA, ConfigError, apply_overrides,
                             load_config, parse_config)
from roomwave.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_YAML = ROOT / "configs" / "default.yaml"
SHIPPED = sorted([*ROOT.glob("configs/*.yaml"),
                  *ROOT.glob("perfbench/workloads/*.yaml"),
                  ROOT / "perfbench" / "tests" / "tiny.yaml"])


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

    @pytest.mark.parametrize("text, value", [
        ("1.0e3", 1000.0), ("1e3", 1000.0), ("2E1", 20.0), ("1e-300", 1e-300),
        ("-.5e-1", -0.05), ("1.0e+3", 1000.0)])
    def test_exponent_numbers_load(self, text, value):
        """YAML 1.1 reads 1e3 and 1.0e3 as strings (it needs a dot and a
        signed exponent); a number field takes them as numbers."""
        document = yaml.safe_load(f"simulation: {{snr_db: {text}}}")
        assert parse_config(document).snr_db == value

    def test_exponent_numbers_in_file_override_and_list(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("simulation: {frequency_hz: 1.0e3}\n"
                        "array: {mic_count: 1e2}\n"
                        "benchmark: {frequencies_hz: [1e2, 2.5E2]}\n",
                        encoding="utf-8")
        config = load_config(path)
        assert config.frequency_hz == 1000.0
        assert config.mic_count == 100 and isinstance(config.mic_count, int)
        assert config.frequencies_hz == (100.0, 250.0)
        config = apply_overrides(config, ["simulation.frequency_hz=1e-300",
                                          "seed=2e1"])
        assert config.frequency_hz == 1e-300
        assert config.master_seed == 20 and isinstance(config.master_seed, int)

    @pytest.mark.parametrize("document, match", [
        ({"array": {"mic_count": "1.25e1"}}, "expected an integer"),
        ({"array": {"mic_count": "1e400"}}, "expected an integer"),
        ({"simulation": {"frequency_hz": "e3"}}, "expected a number"),
        ({"simulation": {"frequency_hz": "1e"}}, "expected a number"),
        ({"simulation": {"frequency_hz": "one e3"}}, "expected a number"),
        ({"simulation": {"frequency_hz": "1e3 Hz"}}, "expected a number")])
    def test_exponent_strings_still_checked(self, document, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(document)

    def test_value_out_of_range_is_config_error(self):
        with pytest.raises(ConfigError, match="lasso_folds"):
            parse_config({"lasso": {"folds": 1}})


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_config_loads(path):
    """Every config file in the repository passes the schema, including
    the retired keys it may still set."""
    assert isinstance(load_config(path), ExperimentConfig)


class TestRetiredKeys:
    """`lasso.mode` and `benchmark.shared_perturbation` set no field; they
    load at their one implemented value and are rejected at any other."""

    def test_implemented_value_changes_nothing(self):
        config = parse_config({"lasso": {"mode": "per_run"},
                               "benchmark": {"shared_perturbation": False}})
        assert_same_config(config, ExperimentConfig())
        config = apply_overrides(parse_config(None), [
            "lasso.mode=per_run", "benchmark.shared_perturbation=false"])
        assert_same_config(config, ExperimentConfig())

    @pytest.mark.parametrize("document, key", [
        ({"lasso": {"mode": "global"}}, "lasso.mode"),
        ({"benchmark": {"shared_perturbation": True}},
         "benchmark.shared_perturbation"),
        ({"benchmark": {"shared_perturbation": 0}},
         "benchmark.shared_perturbation")])
    def test_other_value_rejected(self, document, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(document)


class TestOverrides:
    def test_scalars_applied(self):
        config = apply_overrides(parse_config(None), [
            "seed=3", "array.mic_count=50", "lasso.folds=4",
            "simulation.snr_db=inf"])
        assert config.master_seed == 3
        assert config.mic_count == 50
        assert config.lasso_folds == 4
        assert config.snr_db == float("inf")

    def test_room_key_keeps_the_other_room_fields(self):
        base = parse_config({"room": {"dimensions": [6.0, 5.0, 4.0]}})
        config = apply_overrides(base, ["room.reflection_coefficient=0.5"])
        assert config.room.reflection_coefficient == 0.5
        assert np.array_equal(config.room.dimensions, [6.0, 5.0, 4.0])
        assert np.array_equal(config.room.source_position, [1.0, 2.0, 1.5])

    def test_room_shrinks_the_exclusion_radius_limit(self):
        """The ball of `array.exclusion_radius` must fit the microphone
        half-room: at most min(Lx/4, Ly/2, Lz/2), 1.25 m in the default room
        and 1 m in a 4 m long one."""
        config = parse_config({"array": {"exclusion_radius": 1.25}})
        assert config.exclusion_radius == 1.25
        with pytest.raises(ConfigError, match="exclusion_radius"):
            apply_overrides(config, ["array.exclusion_radius=1.26"])
        with pytest.raises(ConfigError, match="exclusion_radius"):
            parse_config({"room": {"dimensions": [4.0, 4.0, 3.0]},
                          "array": {"exclusion_radius": 1.25}})

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
