"""Batch assembly and the training loop over the story/catalog mixture."""
from __future__ import annotations

import resource
import sys
import time

import numpy as np

from .corpus import MaskingConfig, MixtureConfig, sample_mixture
from .model import AdamState, Model, TrainConfig, backward_and_step


def make_batch(sequences, dtype=np.float32):
    """Next-token batch from variable-length id sequences: right-padded
    (inputs, targets, weights); weights zero over padding."""
    usable = [s for s in sequences if len(s) >= 2]
    if not usable:
        raise ValueError("batch has no sequence with a prediction target")
    width = max(len(s) - 1 for s in usable)
    b = len(usable)
    inputs = np.zeros((b, width), dtype=np.int64)
    targets = np.zeros((b, width), dtype=np.int64)
    weights = np.zeros((b, width), dtype=dtype)
    for r, seq in enumerate(usable):
        n = len(seq) - 1
        arr = np.asarray(seq, dtype=np.int64)
        inputs[r, :n] = arr[:-1]
        targets[r, :n] = arr[1:]
        weights[r, :n] = 1.0
    return inputs, targets, weights


def peak_rss_mb() -> float:
    """The process's resident set high-water mark so far, in MB (2**20
    bytes). `ru_maxrss` counts KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def train(model: Model, opt: AdamState, story_examples, catalog_examples,
          mixture_cfg: MixtureConfig, masking_cfg: MaskingConfig,
          vocabulary, train_cfg: TrainConfig, log_every: int = 100,
          log=print) -> list[dict]:
    """Run macro_steps optimizer steps over the sampled mixture. Fully
    deterministic given the config seeds; returns per-log-point metrics:
    loss, grad_norm, lr, step, elapsed_s, the target tokens (nonzero
    weights) per second since the start and the process's peak_rss_mb."""
    stream = sample_mixture(story_examples, catalog_examples, mixture_cfg,
                            n=train_cfg.macro_steps * train_cfg.batch_size,
                            masking=masking_cfg, vocabulary=vocabulary)
    history = []
    tokens = 0
    started = time.perf_counter()
    for step in range(train_cfg.macro_steps):
        batch_seqs = [next(stream).token_ids for _ in range(train_cfg.batch_size)]
        batch = make_batch(batch_seqs, dtype=model.config.np_dtype)
        metrics = backward_and_step(model, opt, batch, train_cfg, batch_index=step)
        tokens += int(np.count_nonzero(batch[2]))
        if log_every and (step + 1) % log_every == 0:
            elapsed = time.perf_counter() - started
            metrics = dict(metrics, step=step + 1, elapsed_s=round(elapsed, 2),
                           tokens_per_s=round(tokens / elapsed, 1),
                           peak_rss_mb=round(peak_rss_mb(), 1))
            history.append(metrics)
            if log:
                log(f"step {metrics['step']}: loss {metrics['loss']:.4f} "
                    f"grad_norm {metrics['grad_norm']:.3f} lr {metrics['lr']:.2e} "
                    f"({metrics['elapsed_s']}s)")
    return history

