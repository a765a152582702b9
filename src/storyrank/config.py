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
from .grammar import ATTRIBUTE_SUBSETS, VIEWS
from .manifest import stable_hash
from .model import ModelConfig, TrainConfig
from .stories import ValidationError, check_range, fields as read_fields, table_of


def _section(cls, *unset: str, **overrides) -> dict:
    """One config section: the field defaults of a stage's config class,
    tuples as JSON lists, leaving out the fields in `unset`."""
    section = {f.name: list(f.default) if isinstance(f.default, tuple)
               else f.default for f in fields(cls) if f.name not in unset}
    return {**section, **overrides}


# Each stage draws from its own seed. The world's epoch and the model's
# vocabulary size have no key; training cuts stories at model.context_length.
DEFAULTS: dict = {
    "world": _section(WorldConfig, "epoch", rng_seed=11),
    "vocab": {"merges": 0},
    "masking": _section(MaskingConfig, rng_seed=12),
    "mixture": _section(MixtureConfig, "context_length", rng_seed=13),
    "model": _section(ModelConfig, "vocab_size"),
    "train": _section(TrainConfig, rng_seed=14),
    "eval": _section(EvalConfig, rng_seed=15),
    "transform": {"view": None, "strip_sessions": False,
                  "strip_attributes": None},
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    raw: dict

    @property
    def hash(self) -> str:
        return stable_hash(self.raw)

    def _read(self, section: str, table: dict) -> dict:
        """The section's values, read by `stories.fields` against `table`: a
        fault is refused as `section.key: expected ..., got ...`."""
        values = self.raw[section]
        try:
            read_fields(values, section, {key: table[key] for key in values})
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        return values

    def world(self) -> WorldConfig:
        return WorldConfig(**self._read("world", table_of(WorldConfig)))

    def masking(self) -> MaskingConfig:
        return MaskingConfig(**self._read("masking", table_of(MaskingConfig)))

    def mixture(self) -> MixtureConfig:
        model = self._read("model", table_of(ModelConfig))
        return MixtureConfig(context_length=model["context_length"],
                             **self._read("mixture", table_of(MixtureConfig)))

    def model(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size,
                           **self._read("model", table_of(ModelConfig)))

    def train(self) -> TrainConfig:
        return TrainConfig(**self._read("train", table_of(TrainConfig)))

    def eval(self) -> EvalConfig:
        section = dict(self._read("eval", table_of(EvalConfig)))
        section["cutoffs"] = tuple(section["cutoffs"])
        return EvalConfig(**section)

    def transform(self) -> dict:
        """`grammar.apply_transform`'s keywords; a view or attribute subset
        the transforms do not know is refused."""
        t = self._read("transform", {"view": (str, type(None)),
                                     "strip_sessions": bool,
                                     "strip_attributes": (str, type(None))})
        for key, allowed in (("view", VIEWS),
                             ("strip_attributes", ATTRIBUTE_SUBSETS)):
            if t[key] is not None and t[key] not in allowed:
                names = ", ".join(map(json.dumps, allowed[:-1]))
                raise ConfigError(f"transform.{key} must be null, {names} or "
                                  f"{json.dumps(allowed[-1])}, got {t[key]!r}")
        return {"view": t["view"], "drop_sessions": t["strip_sessions"],
                "drop_attributes": t["strip_attributes"]}

    def merges(self) -> int:
        merges = self._read("vocab", {"merges": int})["merges"]
        check_range("Size", "vocab.merges", merges, ConfigError)
        return merges


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
