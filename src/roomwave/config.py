"""Configuration file schema: one YAML document drives the CLI.

Every section and key is validated; unknown keys are rejected by name so a
typo cannot silently fall back to a default. Scalars can be overridden from
the command line with repeated `--set section.key=value` flags.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .experiments import METHODS, SWEEPS, ExperimentConfig
from .geometry import RoomSpec

__all__ = ["ConfigError", "AppConfig", "load_config", "apply_overrides"]


class ConfigError(ValueError):
    """Configuration file violates the schema."""


@dataclass
class RoomSection:
    dimensions: tuple = (5.0, 4.0, 3.0)
    reflection_coefficient: float = 0.95
    source_position: tuple = (1.0, 2.0, 1.5)


@dataclass
class MediumSection:
    speed_of_sound: float = 343.0


@dataclass
class SimulationSection:
    frequency_hz: float = 300.0
    snr_db: float = 20.0
    max_image_order: int = 80


@dataclass
class ArraySection:
    mic_count: int = 100
    validation_count: int = 20
    exclusion_radius: float = 0.5


@dataclass
class DictionarySection:
    plane_wave_count: int = 1000


@dataclass
class BoundarySection:
    count: int = 1000


@dataclass
class OptimizerSection:
    max_line_searches: int = 100


@dataclass
class LassoSection:
    grid_size: int = 20
    folds: int = 5
    mode: str = "per_run"


@dataclass
class BenchmarkSection:
    sweeps: tuple = SWEEPS
    monte_carlo_runs: int = 10
    methods: tuple = METHODS
    boundary_counts: tuple = (0, 10, 30, 100, 300, 1000)
    boundary_perturbations_m: tuple = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    mic_perturbations_m: tuple = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    frequencies_hz: tuple = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 800.0)
    shared_perturbation: bool = False


@dataclass
class ReconstructSection:
    points: str | None = None   # optional path with prediction points (x y z)


@dataclass
class AppConfig:
    seed: int = 20240901
    room: RoomSection = field(default_factory=RoomSection)
    medium: MediumSection = field(default_factory=MediumSection)
    simulation: SimulationSection = field(default_factory=SimulationSection)
    array: ArraySection = field(default_factory=ArraySection)
    dictionary: DictionarySection = field(default_factory=DictionarySection)
    boundary: BoundarySection = field(default_factory=BoundarySection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    lasso: LassoSection = field(default_factory=LassoSection)
    benchmark: BenchmarkSection = field(default_factory=BenchmarkSection)
    reconstruct: ReconstructSection = field(default_factory=ReconstructSection)

    def room_spec(self) -> RoomSpec:
        return RoomSpec(np.asarray(self.room.dimensions, dtype=float),
                        float(self.room.reflection_coefficient),
                        np.asarray(self.room.source_position, dtype=float))

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            room=self.room_spec(),
            speed_of_sound=self.medium.speed_of_sound,
            frequency_hz=self.simulation.frequency_hz,
            snr_db=self.simulation.snr_db,
            max_image_order=self.simulation.max_image_order,
            mic_count=self.array.mic_count,
            validation_count=self.array.validation_count,
            exclusion_radius=self.array.exclusion_radius,
            plane_wave_count=self.dictionary.plane_wave_count,
            boundary_count=self.boundary.count,
            boundary_counts=tuple(self.benchmark.boundary_counts),
            boundary_perturbations=tuple(self.benchmark.boundary_perturbations_m),
            mic_perturbations=tuple(self.benchmark.mic_perturbations_m),
            frequencies_hz=tuple(self.benchmark.frequencies_hz),
            monte_carlo_runs=self.benchmark.monte_carlo_runs,
            methods=tuple(self.benchmark.methods),
            master_seed=self.seed,
            max_line_searches=self.optimizer.max_line_searches,
            lasso_grid_size=self.lasso.grid_size,
            lasso_folds=self.lasso.folds,
            lasso_mode=self.lasso.mode,
            shared_perturbation=self.benchmark.shared_perturbation,
        )


def _coerce(value, target, where: str):
    """Coerce a parsed YAML value to the type of the dataclass default."""
    if isinstance(target, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected a boolean, got {value!r}")
        return value
    if isinstance(target, int) and not isinstance(target, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    if isinstance(target, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            if isinstance(value, str) and value.lower() in ("inf", ".inf"):
                return math.inf
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if isinstance(target, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if len(target):
            return tuple(_coerce(v, target[0], where) for v in value)
        return tuple(value)
    if target is None or isinstance(target, str):
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{where}: unsupported value {value!r}")  # pragma: no cover


def _fill_section(section, mapping, name: str):
    if mapping is None:
        return section
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    known = {f.name: f for f in dataclasses.fields(section)}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in section '{name}'")
        default = getattr(section, key)
        setattr(section, key, _coerce(value, default, f"{name}.{key}"))
    return section


def parse_config(document) -> AppConfig:
    """Validate a parsed YAML document against the schema."""
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ConfigError("config root must be a mapping")
    config = AppConfig()
    sections = {f.name: f for f in dataclasses.fields(config)}
    for key, value in document.items():
        if key not in sections:
            raise ConfigError(f"unknown key '{key}' at top level")
        if key == "seed":
            config.seed = _coerce(value, 0, "seed")
        else:
            _fill_section(getattr(config, key), value, key)
    return _validated(config)


def _validated(config: AppConfig) -> AppConfig:
    """Check the invariants that span fields (room geometry, counts, lasso
    folds, methods, sweeps); any violation is a ConfigError."""
    try:
        config.experiment_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    unknown_sweeps = set(config.benchmark.sweeps) - set(SWEEPS)
    if unknown_sweeps:
        raise ConfigError(f"unknown sweeps: {sorted(unknown_sweeps)}")
    return config


def load_config(path) -> AppConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(document)


def apply_overrides(config: AppConfig, overrides) -> AppConfig:
    """Apply `section.key=value` overrides to scalar fields."""
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override '{item}' must look like section.key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        value = yaml.safe_load(raw)
        if len(parts) == 1 and parts[0] == "seed":
            config.seed = _coerce(value, 0, "seed")
            continue
        if len(parts) != 2:
            raise ConfigError(f"override '{item}': expected section.key")
        section_name, key = parts
        if not hasattr(config, section_name) or section_name == "seed":
            raise ConfigError(f"unknown section '{section_name}'")
        section = getattr(config, section_name)
        known = {f.name for f in dataclasses.fields(section)}
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in section '{section_name}'")
        default = getattr(section, key)
        if isinstance(default, tuple) or isinstance(value, (list, dict)):
            raise ConfigError(f"override '{item}': only scalar fields can be "
                              "overridden from the command line")
        setattr(section, key, _coerce(value, default, dotted))
    return _validated(config)
