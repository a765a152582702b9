"""Declarative run configuration: one JSON file, section per stage, with
dotted-path flag overrides. FORMATS.md documents every key and its
paper-scale versus desk-scale default.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass

from .corpus import MaskingConfig, MixtureConfig
from .datagen import WorldConfig
from .evaluate import EvalConfig
from .manifest import stable_hash
from .model import ModelConfig, TrainConfig

DEFAULTS: dict = {
    "world": {
        "n_users": 1000, "n_items": 400, "n_carousels": 40, "n_genres": 10,
        "rng_seed": 11, "mean_sessions_per_user": 24.0,
        "mean_events_per_user": 44.0, "rewatch_prob": 0.25,
        "search_before_watch_prob": 0.30, "keystroke_prefix_depth": 3,
        "genre_sharpness": 0.12, "zipf_exponent": 1.05,
        "mean_session_gap_hours": 10.0,
    },
    "vocab": {"merges": 0},
    "masking": {"p_carousel_mask": 0.1, "p_item_unk": 0.001, "rng_seed": 12},
    "mixture": {"story_weight": 20, "catalog_weight": 1, "context_length": 256,
                "rng_seed": 13, "truncate": "head"},
    "model": {"context_length": 256, "layers": 4, "heads": 4, "model_dim": 128,
              "mlp_hidden_dim": 0, "rope_base": 10000.0, "rms_eps": 1e-6,
              "dtype": "float32", "tie_embeddings": False},
    "train": {"learning_rate": 3e-4, "warmup_steps": 100, "weight_decay": 0.033,
              "grad_clip_norm": 1.0, "batch_size": 8, "macro_steps": 1000,
              "rng_seed": 14},
    "eval": {"cutoffs": [8, 50, 100], "holdout_fraction": 0.1, "rng_seed": 15,
             "max_eval_users": None, "max_positions_per_user": None},
    "transform": {"view": None, "strip_sessions": False,
                  "strip_attributes": None},
}


class ConfigError(ValueError):
    pass


def _coerce(text: str):
    lowered = text.lower()
    if lowered in ("null", "none"):
        return None
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.startswith("["):
        return json.loads(text)
    return text


@dataclass(frozen=True)
class RunConfig:
    raw: dict

    @property
    def hash(self) -> str:
        return stable_hash(self.raw)

    def world(self) -> WorldConfig:
        return WorldConfig(**self.raw["world"])

    def masking(self) -> MaskingConfig:
        return MaskingConfig(**self.raw["masking"])

    def mixture(self) -> MixtureConfig:
        return MixtureConfig(**self.raw["mixture"])

    def model(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, **self.raw["model"])

    def train(self) -> TrainConfig:
        return TrainConfig(**self.raw["train"])

    def eval(self) -> EvalConfig:
        section = dict(self.raw["eval"])
        section["cutoffs"] = tuple(section["cutoffs"])
        return EvalConfig(**section)

    def transform(self) -> dict:
        t = self.raw["transform"]
        out = {}
        if t.get("view"):
            out["view"] = t["view"]
        if t.get("strip_sessions"):
            out["drop_sessions"] = True
        if t.get("strip_attributes"):
            out["drop_attributes"] = t["strip_attributes"]
        return out

    def merges(self) -> int:
        return int(self.raw["vocab"]["merges"])


def load_config(path: str | None = None, overrides: list[str] | None = None
                ) -> RunConfig:
    """Defaults, optionally overlaid with a JSON file, then with
    section.key=value override strings."""
    raw = copy.deepcopy(DEFAULTS)
    if path:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
        for section, values in user.items():
            if section not in raw:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            for key, value in values.items():
                if key not in raw[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                raw[section][key] = value
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not section.key=value")
        dotted, _, value = item.partition("=")
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} is not section.key")
        section, _, key = dotted.partition(".")
        if section not in raw or key not in raw[section]:
            raise ConfigError(f"unknown config key {dotted!r}")
        raw[section][key] = _coerce(value)
    return RunConfig(raw)
