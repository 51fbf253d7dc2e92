"""Flat `key = value` config files.

One statement per line, `#` starts a whole-line comment, blank lines are
ignored. Keys not in the schema are errors (typo protection), as are
duplicates. Keys left out fall back to the dataclass defaults, so a config
only needs the values it changes.

Each setting is declared once, as a dataclass field: the keys are the
fields whose default is an int or a float, parsed with the default's
type. The dataclasses refuse values out of range, a non-finite float
included, and the error names the key. The run config (RUN_SCHEMA) holds
those of NetworkConfig and TrainConfig, whose defaults are the shipped
run config; the synthesis spec (SYNTH_SCHEMA) holds those of SynthSpec.
A field of another type, such as ``NetworkConfig.branch_kernels``, needs
a parser before it can be a key.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .data import SynthSpec
from .network import NetworkConfig
from .training import TrainConfig

__all__ = [
    "ConfigError",
    "RUN_SCHEMA",
    "SYNTH_SCHEMA",
    "parse_config_text",
    "load_run_config",
    "load_synth_spec",
]


class ConfigError(ValueError):
    """Malformed config text or values."""


def _schema(*classes):
    """key -> (owning dataclass, type) for each int or float field."""
    return {
        f.name: (cls, type(f.default))
        for cls in classes
        for f in fields(cls)
        if type(f.default) in (int, float)
    }


RUN_SCHEMA = _schema(NetworkConfig, TrainConfig)
SYNTH_SCHEMA = _schema(SynthSpec)


def parse_config_text(text, valid_keys):
    """Raw key -> string-value mapping, validated against valid_keys."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in valid_keys:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} (valid: {', '.join(sorted(valid_keys))})"
            )
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _load(text, schema, classes):
    """One instance per class in ``classes``, built from config text."""
    kwargs = {cls: {} for cls in classes}
    for key, value in parse_config_text(text, schema.keys()).items():
        cls, target_type = schema[key]
        try:
            parsed = target_type(value)
        except ValueError as exc:
            raise ConfigError(
                f"key {key!r}: cannot parse {value!r} as {target_type.__name__}"
            ) from exc
        kwargs[cls][key] = parsed
    try:
        return tuple(cls(**kwargs[cls]) for cls in classes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path=None):
    """(NetworkConfig, TrainConfig) from a run config file.

    path=None gives the shipped defaults, ``(NetworkConfig(), TrainConfig())``.
    """
    if path is None:
        return NetworkConfig(), TrainConfig()
    return _load(Path(path).read_text(), RUN_SCHEMA, (NetworkConfig, TrainConfig))


def load_synth_spec(path):
    """SynthSpec from a synthesis spec file."""
    (spec,) = _load(Path(path).read_text(), SYNTH_SCHEMA, (SynthSpec,))
    return spec
