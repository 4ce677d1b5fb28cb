import pytest

from roomwave.config import (AppConfig, ConfigError, apply_overrides,
                             parse_config)


class TestSchema:
    def test_empty_document_gives_defaults(self):
        assert parse_config(None) == AppConfig()

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
        assert config.seed == 3
        assert config.array.mic_count == 50
        assert config.lasso.mode == "global"
        assert config.simulation.snr_db == float("inf")
        assert config.benchmark.shared_perturbation is True

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
