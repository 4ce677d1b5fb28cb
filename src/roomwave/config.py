"""Configuration file schema: one YAML document drives the CLI.

`_SCHEMA` is the one mapping from YAML to `ExperimentConfig`: it names the
field that each `section.key` of the file (and the top-level `seed`) sets.
That field's default, stated once on `ExperimentConfig` (on `RoomSpec` for
the `room` keys), is the value of an absent key and the type a given value
is coerced to. Unknown keys are rejected by name so a typo cannot silently
fall back to a default. Scalars can be overridden from the command line with
repeated `--set section.key=value` flags. Values are validated once, after
every key has been read, so the result does not depend on key order.
`_RETIRED` keys set no field: each is accepted only at the one value the
code implements, and any other value is a ConfigError.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import yaml

from .experiments import ExperimentConfig
from .geometry import RoomSpec

__all__ = ["ConfigError", "load_config", "apply_overrides"]


class ConfigError(ValueError):
    """Configuration file violates the schema."""


# YAML key -> ExperimentConfig field; "room.<name>" is a field of the room
_SCHEMA = {
    "seed": "master_seed",
    "room.dimensions": "room.dimensions",
    "room.reflection_coefficient": "room.reflection_coefficient",
    "room.source_position": "room.source_position",
    "medium.speed_of_sound": "speed_of_sound",
    "simulation.frequency_hz": "frequency_hz",
    "simulation.snr_db": "snr_db",
    "simulation.max_image_order": "max_image_order",
    "array.mic_count": "mic_count",
    "array.validation_count": "validation_count",
    "array.exclusion_radius": "exclusion_radius",
    "dictionary.plane_wave_count": "plane_wave_count",
    "boundary.count": "boundary_count",
    "optimizer.max_line_searches": "max_line_searches",
    "lasso.folds": "lasso_folds",
    "benchmark.sweeps": "sweeps",
    "benchmark.monte_carlo_runs": "monte_carlo_runs",
    "benchmark.methods": "methods",
    "benchmark.boundary_counts": "boundary_counts",
    "benchmark.boundary_perturbations_m": "boundary_perturbations",
    "benchmark.mic_perturbations_m": "mic_perturbations",
    "benchmark.frequencies_hz": "frequencies_hz",
    "reconstruct.points": "reconstruct_points",
}
# retired keys, accepted at their one implemented value so older files load
_RETIRED = {"lasso.mode": "per_run", "benchmark.shared_perturbation": False,
            "lasso.grid_size": 20}
_SECTIONS = {key.split(".")[0] for key in _SCHEMA if "." in key}
# a decimal number with an exponent, which YAML 1.1 reads as a string unless
# it has a dot and a signed exponent (1.0e+3 is a float, 1e3 and 1.0e3 are not)
_EXPONENT_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")
_DEFAULTS = {
    **{f.name: f.default for f in dataclasses.fields(ExperimentConfig)},
    **{f"room.{f.name}": f.default for f in dataclasses.fields(RoomSpec)}}


def _coerce(value, target, where: str):
    """Coerce a parsed YAML value to the type of the dataclass default: an
    int, a float, a string or None, or a non-empty tuple of one of these.
    A number field also takes a string such as `1e3`, and a float field
    `inf`."""
    if isinstance(target, (int, float)):
        if isinstance(value, str) and _EXPONENT_NUMBER.fullmatch(value):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            if (isinstance(target, float) and isinstance(value, str)
                    and value.lower() in ("inf", ".inf")):
                return math.inf
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if isinstance(target, float):
            return float(value)
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    if isinstance(target, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_coerce(v, target[0], where) for v in value)
    if target is None or isinstance(target, str):
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{where}: unsupported value {value!r}")  # pragma: no cover


def _build(config: ExperimentConfig, settings) -> ExperimentConfig:
    """`config` with every (YAML key, value) pair of `settings` applied.

    All values are looked up and coerced first; the one new ExperimentConfig
    then validates them together, and any ValueError becomes a ConfigError.
    """
    values = {}
    for key, value in settings:
        if key in _RETIRED:
            fixed = _RETIRED[key]
            if type(value) is not type(fixed) or value != fixed:
                raise ConfigError(f"{key}: only {fixed!r} is implemented, "
                                  f"got {value!r}")
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}' (expected seed or "
                              "section.key)")
        values[_SCHEMA[key]] = _coerce(value, _DEFAULTS[_SCHEMA[key]], key)
    room = {f.name: values.pop(f"room.{f.name}", getattr(config.room, f.name))
            for f in dataclasses.fields(RoomSpec)}
    try:
        return dataclasses.replace(config, room=RoomSpec(**room), **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(document) -> ExperimentConfig:
    """Validate a parsed YAML document against the schema."""
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ConfigError("config root must be a mapping")
    settings = []
    for name, body in document.items():
        if name not in _SECTIONS:
            settings.append((str(name), body))
        elif body is None or isinstance(body, dict):
            settings += [(f"{name}.{key}", value)
                         for key, value in (body or {}).items()]
        else:
            raise ConfigError(f"section '{name}' must be a mapping")
    return _build(ExperimentConfig(), settings)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(document)


def apply_overrides(config: ExperimentConfig, overrides) -> ExperimentConfig:
    """`config` with `section.key=value` overrides of scalar fields applied."""
    settings = []
    for item in overrides or ():
        key, equals, raw = item.partition("=")
        if not equals:
            raise ConfigError(f"override '{item}' must look like "
                              "section.key=value")
        value = yaml.safe_load(raw)
        if (isinstance(value, (list, dict))
                or isinstance(_DEFAULTS.get(_SCHEMA.get(key)), tuple)):
            raise ConfigError(f"override '{item}': only scalar fields can be "
                              "overridden from the command line")
        settings.append((key, value))
    return _build(config, settings)
