"""Declarative run configuration: one JSON file, section per stage, with
dotted-path flag overrides. FORMATS.md documents every key and its
paper-scale versus desk-scale default.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields

from .corpus import MaskingConfig, MixtureConfig
from .datagen import WorldConfig
from .evaluate import EvalConfig
from .grammar import TransformConfig
from .manifest import stable_hash
from .model import ModelConfig, TrainConfig
from .stories import ValidationError, fields as read_fields, table_of
from .vocab import VocabConfig


def _section(cls, *unset: str, **overrides) -> dict:
    """One config section: the field defaults of a stage's config class,
    tuples as JSON lists, leaving out the fields in `unset`."""
    section = {f.name: list(f.default) if isinstance(f.default, tuple)
               else f.default for f in fields(cls) if f.name not in unset}
    return {**section, **overrides}


# Each section is read into its stage's config class.
STAGES = {"world": WorldConfig, "vocab": VocabConfig, "masking": MaskingConfig,
          "mixture": MixtureConfig, "model": ModelConfig, "train": TrainConfig,
          "eval": EvalConfig, "transform": TransformConfig}
# Each stage draws from its own seed. The world's epoch and the model's
# vocabulary size have no key; training cuts stories at model.context_length.
DEFAULTS: dict = {
    "world": _section(WorldConfig, "epoch", rng_seed=11),
    "vocab": _section(VocabConfig),
    "masking": _section(MaskingConfig, rng_seed=12),
    "mixture": _section(MixtureConfig, "context_length", rng_seed=13),
    "model": _section(ModelConfig, "vocab_size"),
    "train": _section(TrainConfig, rng_seed=14),
    "eval": _section(EvalConfig, rng_seed=15),
    "transform": _section(TransformConfig),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    raw: dict

    @property
    def hash(self) -> str:
        return stable_hash(self.raw)

    def _values(self, section: str) -> dict:
        """The section's values, read by `stories.fields` against its stage
        class's field table (a fault is refused as `section.key: expected
        ..., got ...`), lists as tuples."""
        values, table = self.raw[section], table_of(STAGES[section])
        try:
            read = read_fields(values, section, {k: table[k] for k in values})
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        return {k: tuple(v) if type(v) is list else v for k, v in zip(values, read)}

    def read(self, section: str, **given):
        """The section as its stage's config class, which holds each value
        to its range; `given` holds the class's fields that have no key. The
        mixture's context length is the model section's."""
        if section == "mixture":
            given["context_length"] = self._values("model")["context_length"]
        return STAGES[section](**given, **self._values(section))


def load_config(path: str | None = None, overrides: list[str] | None = None
                ) -> RunConfig:
    """Defaults, optionally overlaid with a JSON file, then with
    section.key=value override strings, each section checked by one loop.
    An override's value is read as the file's values are, as JSON, or is
    the text itself when the text is not JSON (`transform.view=item`)."""
    raw = copy.deepcopy(DEFAULTS)
    sections = []  # (section, {key: value}): the file's, then the flags'
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: not JSON: {exc}") \
                    from None
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path}: expected one JSON object")
        sections.extend(user.items())
    for item in overrides or []:
        dotted, eq, value = item.partition("=")
        section, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ConfigError(f"override {item!r} is not section.key=value")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        sections.append((section, {key: value}))
    for section, values in sections:
        if section not in raw:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in raw[section]:
                raise ConfigError(f"unknown config key '{section}.{key}'")
            raw[section][key] = value
    return RunConfig(raw)
