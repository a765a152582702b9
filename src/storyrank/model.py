"""From-scratch decoder-only causal language model in numpy.

Pre-norm RMS normalization, rotary query/key phase rotation, gated (SiLU)
MLP, untied output head by default. Forward, backward, and the Adam-style
update are hand-written; the only dependency is numpy's matrix multiply.

Numerics are float32 for training and float64 for gradient-check and
determinism work. Every matmul broadcasts per sequence (never flattening the
batch into the GEMM M dimension), which keeps a sequence's logits bitwise
identical whether it is scored alone or inside a batch; serving equivalence
and the prefix-consistency tests rely on this. Attention runs one sequence at
a time with its scale, mask, softmax and value mix done in place, which gives
the same bits as whole-batch ops without batch-sized temporaries.

Ranking needs the logits at one position per sequence (its slot).
`Model.forward(ids, slots)` runs each sequence over the whole 64-row tiles
up to its slot only, since under the causal mask the slot row depends on
no later row. Within that width it runs every layer but the last over all
rows, as keys and values need them, and the last layer's query, attention
row, MLP, final norm and output head over the slot row alone. Each
sequence is its own task: on a pool of one thread per usable core, with
OpenBLAS pinned to one thread meanwhile, or in the caller when the process
may use one core only or the BLAS thread count cannot be set. The bit
contract of slot mode has two levels: a slot row is bitwise independent of
the batch and the padding around it, and equal to the full forward's row at
that slot within float rounding (a one-row GEMM rounds differently).
"""
from __future__ import annotations

import ctypes
import json
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"SRCKPT1\n"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TILE_ROWS = 64  # slot mode runs a sequence over the whole tiles to its slot


class ModelError(ValueError):
    pass


class NonFiniteLossError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    context_length: int = 256
    layers: int = 4
    heads: int = 4
    model_dim: int = 128
    mlp_hidden_dim: int = 0  # 0 -> 4 * model_dim
    rope_base: float = 10000.0
    rms_eps: float = 1e-6
    dtype: str = "float32"
    tie_embeddings: bool = False

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ModelError(f"model_dim {self.model_dim} not divisible by "
                             f"heads {self.heads}")
        if self.context_length < 2:
            raise ModelError("context_length must be at least 2")
        if self.dtype not in ("float32", "float64"):
            raise ModelError(f"dtype must be float32 or float64, got {self.dtype}")

    @property
    def hidden_dim(self) -> int:
        return self.mlp_hidden_dim or 4 * self.model_dim

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    warmup_steps: int = 100
    weight_decay: float = 0.033
    grad_clip_norm: float = 1.0
    batch_size: int = 8
    macro_steps: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("warmup_steps", "grad_clip_norm", "batch_size", "macro_steps"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")
        # learning_rate 0 is allowed: it makes the update a provable no-op
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ModelError("learning_rate and weight_decay must be non-negative")
        if self.warmup_steps > self.macro_steps:
            raise ModelError("warmup_steps exceeds macro_steps")

    def lr_at(self, step: int) -> float:
        """Linear warmup to the peak rate, constant afterwards (step is 1-based)."""
        return self.learning_rate * min(1.0, step / self.warmup_steps)


def parameter_names(cfg: ModelConfig) -> list[str]:
    names = ["tok_emb"]
    for i in range(cfg.layers):
        names += [f"layers.{i}.ln1", f"layers.{i}.wq", f"layers.{i}.wk",
                  f"layers.{i}.wv", f"layers.{i}.wo", f"layers.{i}.ln2",
                  f"layers.{i}.wg", f"layers.{i}.wu", f"layers.{i}.wd"]
    names.append("ln_f")
    if not cfg.tie_embeddings:
        names.append("w_out")
    return names


def parameter_shape(name: str, cfg: ModelConfig) -> tuple[int, ...]:
    d, f, v = cfg.model_dim, cfg.hidden_dim, cfg.vocab_size
    base = name.rsplit(".", 1)[-1]
    return {
        "tok_emb": (v, d), "w_out": (d, v),
        "ln1": (d,), "ln2": (d,), "ln_f": (d,),
        "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
        "wg": (d, f), "wu": (d, f), "wd": (f, d),
    }[base]


class Model:
    """Parameter container plus a forward-call counter (used to assert the
    single-pass property of ranking). The causal mask and the RoPE tables
    are built once, at the full context length, and sliced per call."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 step: int = 0):
        self.config = config
        self.params = params
        self.step = step
        self.forward_calls = 0
        ctx = config.context_length
        self._cos, self._sin = _rope_tables(config, ctx)
        self._future = ~np.tril(np.ones((ctx, ctx), dtype=bool))

    def output_matrix(self) -> np.ndarray:
        if self.config.tie_embeddings:
            return self.params["tok_emb"].T
        return self.params["w_out"]

    def forward(self, token_ids, slots=None) -> np.ndarray:
        """Logits for one sequence (T,) -> (T, V) or a batch (B, T) -> (B, T, V).
        With `slots`, one position per sequence, only the logits at those
        positions: (V,) for one sequence, (B, V) for a batch. Counts as
        exactly one forward pass either way.

        Without slots, inference right-pads to the full context length
        internally and slices the padding back off. Under causal masking the
        pad tokens are exact no-ops for real positions, while the fixed GEMM
        shapes keep a sequence's logits bitwise identical across prefix
        lengths and batch sizes (BLAS kernel selection varies with the
        matrix M dimension).

        Slot mode runs each sequence as its own `_forward` task, at the
        width of the whole `TILE_ROWS` tiles that reach its slot (capped at
        the context length). The width depends on the slot alone, and
        softmax rows are summed as at the full context length. The last
        layer's query, attention row, MLP, final norm and output head run
        for the slot row alone (GEMM M=1). The tasks run on a thread pool
        with one worker per usable core, with OpenBLAS pinned to one thread
        until all have finished, a lone sequence's too; on a one-core
        process, or when the BLAS thread count cannot be set, they run in
        the caller with BLAS as it is. A slot row's logits are therefore
        bitwise independent of the batch and the padding, and equal to
        `forward(ids)[slot]` within float rounding, not bit for bit: a
        one-row GEMM rounds differently from the full-context one. While a
        pooled forward runs, a no-slot forward or training step on another
        thread also runs its GEMMs on one BLAS thread."""
        self.forward_calls += 1
        ids, squeeze = _as_batch(token_ids)
        _check_ids(ids, self.config)
        t = ids.shape[1]
        if slots is not None:
            slots = np.asarray(slots, dtype=np.int64).reshape(-1)
            if slots.shape != (ids.shape[0],):
                raise ModelError(f"{slots.size} slots for {ids.shape[0]} "
                                 "sequences")
            if slots.min() < 0 or slots.max() >= t:
                raise ModelError(f"slot outside the sequence length {t}")
        ctx = self.config.context_length
        if t < ctx:
            padded = np.zeros((ids.shape[0], ctx), dtype=ids.dtype)
            padded[:, :t] = ids
            ids = padded
        if slots is None:
            logits, _ = _forward(self, ids, need_cache=False)
            logits = logits[:, :t]
        else:
            widths = np.minimum(ctx, (slots // TILE_ROWS + 1) * TILE_ROWS)
            logits = np.stack(_run_tasks(
                _slot_logits, [(self, ids[r:r + 1, :w], slots[r:r + 1])
                               for r, w in enumerate(widths)]))
        return logits[0] if squeeze else logits


def _slot_logits(model: Model, ids: np.ndarray, slots: np.ndarray):
    """The (V,) logits at the slot of one sequence, ids (1, W)."""
    logits, _ = _forward(model, ids, need_cache=False, slots=slots)
    return logits[0, 0]


# --- slot-task pool -------------------------------------------------------
#
# Softmax, RoPE, SiLU and RMSNorm are single-threaded numpy, so a serial slot
# forward keeps one core busy; OpenBLAS threads help only its GEMMs. The pool
# runs one sequence per task instead, with OpenBLAS on one thread so that its
# spinning workers do not compete with the tasks.

_POOL_LOCK = threading.Lock()  # one pooled run owns the BLAS thread count
_pool = None  # (executor, get_threads, set_threads) or (), set on first use


_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_threads():
    """The get and set thread-count functions of the OpenBLAS mapped into
    this process, or None when there is none or it exports neither pair.
    (`openblas_set_num_threads_local` is not used: in a pthreads build it
    changes the count for the whole process too.)"""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _slot_pool():
    """Looked up once: a thread pool with one worker per usable core and the
    OpenBLAS thread-count functions, or () when the process may use one
    core only or the BLAS thread count cannot be set."""
    global _pool
    with _POOL_LOCK:
        if _pool is None:
            threads = _openblas_threads()
            workers = len(os.sched_getaffinity(0)) if threads else 1
            _pool = (ThreadPoolExecutor(workers, "storyrank-slot"), *threads) \
                if workers > 1 else ()
    return _pool


def _forget_pool_in_child():
    """A forked child has none of the parent's pool threads, and the lock
    may have been held by a thread that the child does not have either."""
    global _pool, _POOL_LOCK
    _pool, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _run_tasks(fn, tasks: list[tuple]) -> list:
    """[fn(*task) for task in tasks], on the slot-task pool with OpenBLAS
    pinned to one thread when the pool exists, otherwise in the caller with
    BLAS left as it is. A single task runs on the pool too: some OpenBLAS
    kernels (Haswell's float32 GEMM) round differently on one thread than on
    two, so every slot row of a process runs at one thread count. The count
    is restored after every task has finished, also when one raised; the
    first failing task's exception reaches the caller."""
    pool = _slot_pool()
    if not pool:
        return [fn(*task) for task in tasks]
    executor, get_threads, set_threads = pool
    with _POOL_LOCK:
        before = get_threads()
        set_threads(1)
        try:
            futures = [executor.submit(fn, *task) for task in tasks]
            wait(futures)
            return [future.result() for future in futures]
        finally:
            set_threads(before)


def init_model(cfg: ModelConfig, seed: int = 0) -> Model:
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    params: dict[str, np.ndarray] = {}
    for name in parameter_names(cfg):
        shape = parameter_shape(name, cfg)
        if len(shape) == 1:
            params[name] = np.ones(shape, dtype=cfg.np_dtype)
        else:
            params[name] = (0.02 * rng.standard_normal(shape)).astype(cfg.np_dtype)
    return Model(cfg, params)


def _as_batch(token_ids):
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim == 1:
        return ids[None, :], True
    if ids.ndim == 2:
        return ids, False
    raise ModelError(f"token ids must be 1-D or 2-D, got shape {ids.shape}")


def _check_ids(ids: np.ndarray, cfg: ModelConfig) -> None:
    if ids.shape[1] == 0:
        raise ModelError("empty token sequence")
    if ids.shape[1] > cfg.context_length:
        raise ModelError(f"sequence length {ids.shape[1]} exceeds context "
                         f"length {cfg.context_length}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        bad = int(ids.max() if ids.max() >= cfg.vocab_size else ids.min())
        raise ModelError(f"token id {bad} outside vocabulary of size {cfg.vocab_size}")


def _rmsnorm_fwd(x, gain, eps):
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x * inv * gain, inv


def _rmsnorm_bwd(dy, x, inv, gain):
    xhat = x * inv
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    dx = inv * (dxhat - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
    return dx, dgain


def _rope_tables(cfg: ModelConfig, t: int):
    half = cfg.head_dim // 2
    inv_freq = cfg.rope_base ** (-np.arange(half, dtype=np.float64) * 2.0
                                 / cfg.head_dim)
    angles = np.arange(t, dtype=np.float64)[:, None] * inv_freq[None, :]
    return (np.cos(angles).astype(cfg.np_dtype),
            np.sin(angles).astype(cfg.np_dtype))


def _rope_apply(x, cos, sin):
    # x: (B, H, T, head_dim); rotate (even, odd) pairs by the position phase
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _rope_backward(dy, cos, sin):
    de_r, do_r = dy[..., 0::2], dy[..., 1::2]
    out = np.empty_like(dy)
    out[..., 0::2] = de_r * cos + do_r * sin
    out[..., 1::2] = -de_r * sin + do_r * cos
    return out


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _padded_row_sum(s, n):
    """Sums over the last axis of `s`, of width w <= n, taken in the order of
    numpy's pairwise sum over the rows zero-padded to width n. Numpy splits
    a row longer than 128 at half its length rounded down to a multiple of
    8, and sums shorter blocks with eight interleaved accumulators, so
    trailing zeros leave a block's bits as they are when w is a multiple of
    8 (or w == n)."""
    w = s.shape[-1]
    if w == n or n <= 128:
        return s.sum(axis=-1, keepdims=True)
    half = n // 2 - n // 2 % 8
    if w <= half:
        return _padded_row_sum(s, half)
    return (_padded_row_sum(s[..., :half], half)
            + _padded_row_sum(s[..., half:], n - half))


def _attention(q, k, v, future, scale, keep_probs: bool, sum_width: int):
    """Causal softmax attention, one sequence at a time: each sequence's
    (H, M, T) scores are scaled, masked, normalized and mixed in place, so
    no op allocates a batch-sized temporary. q (B, H, M, hd); k, v
    (B, H, T, hd); future (B, M, T) marks the keys each query row may not
    see. Each softmax row is summed as if zero-padded to `sum_width` >= T
    (masked keys are exact zeros after the exp), so a row computed at a
    narrower width keeps the sum of the full-width row. Returns the merged
    context (B, M, H*hd) and the probabilities (B, H, M, T) when
    `keep_probs`, else None.

    With `sum_width` T the results equal the batched ops bit for bit:
    numpy's stacked matmul already makes one BLAS call per (sequence,
    head), and the element-wise ops and row reductions run in the same
    order over the same rows."""
    b, h, m, hd = q.shape
    neg = np.array(-np.inf, dtype=q.dtype)
    probs = np.empty((b, h, m, k.shape[2]), dtype=q.dtype) if keep_probs \
        else None
    ctx = np.empty((b, m, h, hd), dtype=q.dtype)
    for j in range(b):
        s = np.matmul(q[j], k[j].swapaxes(-1, -2),
                      out=None if probs is None else probs[j])
        np.divide(s, scale, out=s)
        np.copyto(s, neg, where=future[j])
        np.subtract(s, s.max(axis=-1, keepdims=True), out=s)
        np.exp(s, out=s)
        # the full-width sum stays inline: through the helper call it moved
        # training's peak RSS by 3 MB (allocator layout)
        np.divide(s, s.sum(axis=-1, keepdims=True) if s.shape[-1] == sum_width
                  else _padded_row_sum(s, sum_width), out=s)
        np.matmul(s, v[j], out=ctx[j].swapaxes(0, 1))
    return ctx.reshape(b, m, h * hd), probs


def _forward(model: Model, ids: np.ndarray, need_cache: bool, slots=None):
    """Logits (B, T, V) and, when `need_cache`, the activations backward
    needs. With `slots` (inference only) the logits are (B, 1, V) at one
    row per sequence: the last layer computes keys and values for every
    row and everything else for the slot row alone, and softmax rows are
    summed as at the full context length."""
    cfg = model.config
    p = model.params
    b, t = ids.shape
    sum_width = t if slots is None else cfg.context_length
    cos, sin = model._cos[:t], model._sin[:t]
    future = model._future[:t, :t]
    scale = np.sqrt(np.array(cfg.head_dim, dtype=cfg.np_dtype))

    x = p["tok_emb"][ids]
    q_cos, q_sin, masks = cos, sin, np.broadcast_to(future, (b, t, t))
    layer_caches = []
    for i in range(cfg.layers):
        x_in = x
        wq, wk, wv, wo = (p[f"layers.{i}.{n}"] for n in ("wq", "wk", "wv", "wo"))
        a, inv1 = _rmsnorm_fwd(x, p[f"layers.{i}.ln1"], cfg.rms_eps)
        k = _rope_apply(_split_heads(a @ wk, cfg.heads), cos, sin)
        v = _split_heads(a @ wv, cfg.heads)
        if slots is not None and i == cfg.layers - 1:
            # past the keys and values, only each sequence's slot row
            rows = np.arange(b)
            x, a = x[rows, slots][:, None], a[rows, slots][:, None]
            q_cos, q_sin = cos[slots][:, None, None], sin[slots][:, None, None]
            masks = future[slots][:, None]
        q = _rope_apply(_split_heads(a @ wq, cfg.heads), q_cos, q_sin)
        ctx, probs = _attention(q, k, v, masks, scale, need_cache, sum_width)
        x_mid = ctx @ wo
        x_mid += x

        bnorm, inv2 = _rmsnorm_fwd(x_mid, p[f"layers.{i}.ln2"], cfg.rms_eps)
        zg = bnorm @ p[f"layers.{i}.wg"]
        zu = bnorm @ p[f"layers.{i}.wu"]
        sig = np.exp(np.negative(zg))
        np.add(1.0, sig, out=sig)
        np.divide(1.0, sig, out=sig)
        if need_cache:
            h = zg * sig * zu
        else:  # nothing keeps sig: gate in its buffer
            h = np.multiply(zg, sig, out=sig)
            h *= zu
        x = h @ p[f"layers.{i}.wd"]
        x += x_mid
        if need_cache:
            layer_caches.append(dict(x_in=x_in, a=a, inv1=inv1, q=q, k=k, v=v,
                                     probs=probs, ctx=ctx, x_mid=x_mid,
                                     bnorm=bnorm, inv2=inv2, zg=zg, zu=zu,
                                     sig=sig, h=h))
    final, inv_f = _rmsnorm_fwd(x, p["ln_f"], cfg.rms_eps)
    logits = final @ model.output_matrix()
    cache = None
    if need_cache:
        cache = dict(ids=ids, layers=layer_caches, x_final=x, final=final,
                     inv_f=inv_f, cos=cos, sin=sin, future=future)
    return logits, cache


def _loss_and_dlogits(logits, targets, weights, dtype):
    b, t, v = logits.shape
    flat = logits.reshape(-1, v)
    tg = targets.reshape(-1)
    w = weights.reshape(-1).astype(dtype)
    m = flat.max(axis=-1, keepdims=True)
    e = np.exp(flat - m)
    z = e.sum(axis=-1, keepdims=True)
    probs = e / z
    lse = m[:, 0] + np.log(z[:, 0])
    nll = lse - flat[np.arange(tg.shape[0]), tg]
    total = w.sum()
    loss = float((nll * w).sum() / total)
    dflat = probs * (w / total)[:, None]
    dflat[np.arange(tg.shape[0]), tg] -= w / total
    return loss, dflat.reshape(b, t, v)


def _matmul_bwd(x, w, dy):
    """y = x @ w with x (B,T,D), w (D,E): returns (dx, dw)."""
    dw = np.tensordot(x, dy, axes=([0, 1], [0, 1]))
    dx = dy @ w.T
    return dx, dw


def forward_backward(model: Model, inputs, targets, weights=None):
    """Loss and gradients for a padded batch. inputs/targets (B, T); weights
    (B, T) with zeros over padding (None means everything counts)."""
    cfg = model.config
    p = model.params
    ids, _ = _as_batch(inputs)
    _check_ids(ids, cfg)
    tg = np.asarray(targets, dtype=np.int64)
    if tg.shape != ids.shape:
        raise ModelError(f"targets shape {tg.shape} != inputs shape {ids.shape}")
    w = np.ones(ids.shape, dtype=cfg.np_dtype) if weights is None \
        else np.asarray(weights).astype(cfg.np_dtype)
    model.forward_calls += 1
    logits, cache = _forward(model, ids, need_cache=True)
    safe_tg = np.where(w > 0, tg, 0)
    loss, dlogits = _loss_and_dlogits(logits, safe_tg, w, cfg.np_dtype)

    grads = {name: None for name in model.params}
    w_out = model.output_matrix()
    dfinal, dw_out = _matmul_bwd(cache["final"], w_out, dlogits)
    dx, grads["ln_f"] = _rmsnorm_bwd(dfinal, cache["x_final"], cache["inv_f"],
                                     p["ln_f"])
    if not cfg.tie_embeddings:
        grads["w_out"] = dw_out

    cos, sin, future = cache["cos"], cache["sin"], cache["future"]
    scale = np.sqrt(np.array(cfg.head_dim, dtype=cfg.np_dtype))
    for i in reversed(range(cfg.layers)):
        lc = cache["layers"][i]
        wd_ = p[f"layers.{i}.wd"]
        dh, grads[f"layers.{i}.wd"] = _matmul_bwd(lc["h"], wd_, dx)
        zg, zu, sig = lc["zg"], lc["zu"], lc["sig"]
        dzu = dh * zg * sig
        dzg = dh * zu * sig * (1.0 + zg * (1.0 - sig))
        db_u, grads[f"layers.{i}.wu"] = _matmul_bwd(lc["bnorm"],
                                                    p[f"layers.{i}.wu"], dzu)
        db_g, grads[f"layers.{i}.wg"] = _matmul_bwd(lc["bnorm"],
                                                    p[f"layers.{i}.wg"], dzg)
        dx_mid, grads[f"layers.{i}.ln2"] = _rmsnorm_bwd(
            db_u + db_g, lc["x_mid"], lc["inv2"], p[f"layers.{i}.ln2"])
        dx_mid = dx_mid + dx  # residual

        dctx, grads[f"layers.{i}.wo"] = _matmul_bwd(lc["ctx"],
                                                    p[f"layers.{i}.wo"], dx_mid)
        dctx = _split_heads(dctx, cfg.heads)
        probs = lc["probs"]
        dv = np.matmul(probs.swapaxes(-1, -2), dctx)
        # softmax, mask and scale backward in place in the dprobs buffer
        dscores = np.matmul(dctx, lc["v"].swapaxes(-1, -2))
        np.subtract(dscores, (dscores * probs).sum(axis=-1, keepdims=True),
                    out=dscores)
        np.multiply(probs, dscores, out=dscores)
        np.copyto(dscores, 0.0, where=future)
        np.divide(dscores, scale, out=dscores)
        dq = np.matmul(dscores, lc["k"])
        dk = np.matmul(dscores.swapaxes(-1, -2), lc["q"])
        dq = _merge_heads(_rope_backward(dq, cos, sin))
        dk = _merge_heads(_rope_backward(dk, cos, sin))
        dv = _merge_heads(dv)
        da_q, grads[f"layers.{i}.wq"] = _matmul_bwd(lc["a"], p[f"layers.{i}.wq"], dq)
        da_k, grads[f"layers.{i}.wk"] = _matmul_bwd(lc["a"], p[f"layers.{i}.wk"], dk)
        da_v, grads[f"layers.{i}.wv"] = _matmul_bwd(lc["a"], p[f"layers.{i}.wv"], dv)
        dx_attn, grads[f"layers.{i}.ln1"] = _rmsnorm_bwd(
            da_q + da_k + da_v, lc["x_in"], lc["inv1"], p[f"layers.{i}.ln1"])
        dx = dx_mid + dx_attn  # both residual branches reach the layer input

    d_emb = np.zeros_like(p["tok_emb"])
    np.add.at(d_emb, ids.reshape(-1), dx.reshape(-1, cfg.model_dim))
    if cfg.tie_embeddings:
        d_emb += dw_out.T
    grads["tok_emb"] = d_emb
    return loss, grads


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_model(cls, model: Model) -> "AdamState":
        zeros = lambda: {k: np.zeros_like(p) for k, p in model.params.items()}
        return cls(m=zeros(), v=zeros())


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for name in sorted(grads):
        g = grads[name]
        total += float((g.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def backward_and_step(model: Model, opt: AdamState, batch,
                      train_cfg: TrainConfig, batch_index: int = -1) -> dict:
    """One optimizer step on a (inputs, targets, weights) batch. Returns
    {loss, grad_norm, lr}. Decoupled weight decay applies to matrices only,
    never to norm gains."""
    inputs, targets, weights = batch
    loss, grads = forward_backward(model, inputs, targets, weights)
    if not np.isfinite(loss):
        raise NonFiniteLossError(
            f"non-finite loss {loss} at batch index {batch_index}")
    norm = global_grad_norm(grads)
    if np.isfinite(train_cfg.grad_clip_norm) and norm > train_cfg.grad_clip_norm:
        scale = train_cfg.grad_clip_norm / norm
        for g in grads.values():
            g *= scale
    opt.step += 1
    lr = train_cfg.lr_at(opt.step)
    bc1 = 1.0 - ADAM_BETA1 ** opt.step
    bc2 = 1.0 - ADAM_BETA2 ** opt.step
    for name, param in model.params.items():
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if param.ndim >= 2 and train_cfg.weight_decay > 0:
            update = update + train_cfg.weight_decay * param
        param -= lr * update
    model.step = opt.step
    return {"loss": loss, "grad_norm": norm, "lr": lr}


# --- checkpoint file --------------------------------------------------------
#
# magic, JSON meta line (config, step, optimizer hyperparameters, vocabulary
# hash), then per-tensor records: u16 name length, name, u8 dtype code, u8
# rank, u64-LE dims, raw little-endian data. Parameter tensors first, then
# optional adam.m.* / adam.v.* moment tensors.

_DTYPE_CODES = {"float32": 0, "float64": 1}
_DTYPE_NAMES = {0: "<f4", 1: "<f8"}


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    code = _DTYPE_CODES["float64" if arr.dtype == np.float64 else "float32"]
    fh.write(struct.pack("<H", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<BB", code, arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(arr.astype(_DTYPE_NAMES[code], copy=False).tobytes(order="C"))


def _read_tensor(fh):
    head = fh.read(2)
    if not head:
        return None
    if len(head) < 2:
        raise ModelError("truncated checkpoint: tensor name length")
    (nlen,) = struct.unpack("<H", head)
    name = fh.read(nlen).decode("utf-8")
    meta = fh.read(2)
    if len(meta) < 2:
        raise ModelError(f"truncated checkpoint: header of {name!r}")
    code, rank = struct.unpack("<BB", meta)
    dims = []
    for _ in range(rank):
        raw = fh.read(8)
        if len(raw) < 8:
            raise ModelError(f"truncated checkpoint: dims of {name!r}")
        dims.append(struct.unpack("<Q", raw)[0])
    dtype = np.dtype(_DTYPE_NAMES[code])
    count = int(np.prod(dims)) if dims else 1
    payload = fh.read(count * dtype.itemsize)
    if len(payload) < count * dtype.itemsize:
        raise ModelError(f"truncated checkpoint: data of {name!r}")
    return name, np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


def save_checkpoint(path, model: Model, opt: AdamState | None = None,
                    *, vocab_hash: str = "", manifest_hash: str = "",
                    extra: dict | None = None) -> None:
    cfg = model.config
    meta = {
        "config": {k: getattr(cfg, k) for k in (
            "vocab_size", "context_length", "layers", "heads", "model_dim",
            "mlp_hidden_dim", "rope_base", "rms_eps", "dtype", "tie_embeddings")},
        "step": model.step,
        "adam": {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS},
        "vocab_hash": vocab_hash,
        "manifest": manifest_hash,
    }
    if extra:
        meta["extra"] = extra
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
        for name in sorted(model.params):
            _write_tensor(fh, name, model.params[name])
        if opt is not None:
            fh.write(struct.pack("<H", 0))  # separator record
            fh.write(struct.pack("<Q", opt.step))
            for name in sorted(opt.m):
                _write_tensor(fh, "adam.m." + name, opt.m[name])
            for name in sorted(opt.v):
                _write_tensor(fh, "adam.v." + name, opt.v[name])


def load_checkpoint(path, *, expect_vocab_hash: str | None = None
                    ) -> tuple[Model, AdamState | None, dict]:
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ModelError(f"{path}: not a storyrank checkpoint")
        meta = json.loads(fh.readline().decode("utf-8"))
        if expect_vocab_hash and meta.get("vocab_hash") != expect_vocab_hash:
            raise ModelError(
                f"{path}: checkpoint was trained with vocabulary "
                f"{meta.get('vocab_hash') or '(none)'}, "
                f"expected {expect_vocab_hash}")
        cfg = ModelConfig(**meta["config"])
        expected = {name: parameter_shape(name, cfg)
                    for name in parameter_names(cfg)}
        params: dict[str, np.ndarray] = {}
        opt: AdamState | None = None
        opt_step = 0
        while True:
            pos = fh.tell()
            head = fh.read(2)
            if not head:
                break
            if len(head) == 2 and struct.unpack("<H", head)[0] == 0:
                raw = fh.read(8)
                if len(raw) < 8:
                    raise ModelError(f"{path}: truncated optimizer block")
                opt_step = struct.unpack("<Q", raw)[0]
                opt = AdamState(m={}, v={}, step=opt_step)
                continue
            fh.seek(pos)
            record = _read_tensor(fh)
            if record is None:
                break
            name, arr = record
            if name.startswith("adam.m."):
                opt.m[name[len("adam.m."):]] = arr
            elif name.startswith("adam.v."):
                opt.v[name[len("adam.v."):]] = arr
            else:
                params[name] = arr
        mismatches = []
        for name, shape in expected.items():
            if name not in params:
                mismatches.append(f"{name}: missing")
            elif params[name].shape != shape:
                mismatches.append(f"{name}: file has {params[name].shape}, "
                                  f"config implies {shape}")
        for name in params:
            if name not in expected:
                mismatches.append(f"{name}: unexpected tensor")
        if mismatches:
            raise ModelError(f"{path}: checkpoint/config shape mismatch: "
                             + "; ".join(mismatches))
    model = Model(cfg, params, step=meta.get("step", 0))
    return model, opt, meta
