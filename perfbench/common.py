"""Shared set-up for the workloads: the desk world, vocabulary and model, plus
small statistics helpers."""
from __future__ import annotations

import hashlib
import json

from storyrank import corpus, datagen, grammar, serve
from storyrank import model as model_mod

# The desk config (configs/desk.json) for catalog and model shape.
DESK_WORLD = {"n_items": 400, "n_carousels": 40, "n_genres": 10}
DESK_MODEL = {"context_length": 256, "layers": 4, "heads": 4, "model_dim": 128}
MODEL_SEED = 0  # weights never depend on the workload seed


def make_world(seed: int, n_users: int):
    cfg = datagen.WorldConfig(n_users=n_users, rng_seed=seed, **DESK_WORLD)
    return datagen.generate_world(cfg)


def make_model(vocabulary, workdir, with_optimizer: bool = False):
    """init_model with a fixed seed, saved and reloaded through the
    checkpoint functions."""
    cfg = model_mod.ModelConfig(vocab_size=vocabulary.size, **DESK_MODEL)
    model = model_mod.init_model(cfg, seed=MODEL_SEED)
    opt = model_mod.AdamState.for_model(model) if with_optimizer else None
    path = workdir / "model.ckpt"
    model_mod.save_checkpoint(path, model, opt,
                              vocab_hash=vocabulary.vocab_hash())
    model, opt, _ = model_mod.load_checkpoint(
        path, expect_vocab_hash=vocabulary.vocab_hash())
    return model, opt


def corpus_pass(stories, vocabulary) -> tuple[float, list]:
    """The corpus build's story path (serialize, then tokenize_stories), as
    `storyrank build-corpus` runs it. Returns (serialized MB, examples)."""
    texts = [grammar.serialize(grammar.apply_transform(s), validate=False)
             for s in stories]
    examples = corpus.tokenize_stories(texts, vocabulary)
    return sum(len(t.encode("utf-8")) for t in texts) / 1e6, examples


def percentile(values, q: float) -> float:
    """Nearest-rank percentile by serve's own latency histogram; 0.0 when
    there are no values."""
    values = list(values)
    return serve.LatencyHistogram(values).percentile(q) if values else 0.0


def median(values) -> float:
    return percentile(values, 50)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]

