"""From-scratch decoder-only causal language model in numpy.

Pre-norm RMS normalization, rotary query/key phase rotation, gated (SiLU)
MLP, untied output head by default. Forward, backward, and the Adam-style
update are hand-written; the only dependency is numpy's matrix multiply.

Numerics are float32 for training and float64 for gradient-check and
determinism work. `_forward` runs one sequence, ids (T,), so every GEMM's
M dimension is that sequence's rows and never the batch's: a sequence's
logits are bitwise identical whether it is scored alone or inside a batch,
which serving equivalence and the prefix-consistency tests rely on. Its
attention scales, masks, normalizes and mixes the (H, T, T) scores in place.

Ranking needs the logits at one position per sequence (its slot), and
`Model.forward(ids, slots, splits)` has one rule for every slot row: a head
pass after its story's keys and values. A row with split s (default 0) has
the story ids[:s] and the head ids[s:slot + 1]. The story pass runs every
layer over the story, its last layer computing keys and values only. The
head pass runs with RoPE and the mask offset by s, attends to the story's
keys and values before its own, and runs every layer but the last over all
its rows, as keys and values need them, and the last layer's query,
attention row, MLP, final norm and output head over the slot row alone:
under the causal mask the slot row depends on no later row. A split-0
row's story is empty, so its head pass is the row up to the slot. Rows
with equal nonempty stories share one story pass. A slot row's logits are
bitwise a function of (ids[:slot + 1], s) alone, so independent of the
batch, the padding, every token past the slot and the rows that share its
story, and equal to the full forward's row at that slot within float
rounding (narrower GEMMs round differently).

Each sequence is its own task in every forward: with slots, without them
(each row padded to the context length), and in training, where a task is
one sequence's forward, loss and backward. The tasks run on a pool of one
thread per usable core, with OpenBLAS pinned to one thread meanwhile, or in
the caller when the process may use one core only or the BLAS thread count
cannot be set. Either way the caller folds the results in task order, each
as soon as it is ready, and then drops it: `forward_backward` adds each
row's gradients into the running sum when that row finishes, in row order,
so a step holds the sum and the rows in flight, not B gradient sets.

A training task keeps, per layer, only what its backward reads and cannot
rebuild in one element-wise pass: the layer input x_in and its inverse RMS
inv1, q, k, v, the attention probabilities, ctx, x_mid and its inv2, and
the MLP's zg and zu (2.9 MB per layer at the desk shape, T=255, in float32).
The backward recomputes the normalized rows a and bnorm, the SiLU gate sig
and the gated product h from those with the forward's own functions, so
every gradient has the bits it had when they were cached (1.3 MB more per
layer). It frees as it goes: the logits once the NLL is taken, the logit
gradients after the head's backward, each layer's MLP arrays before its
attention backward, and the rest of the layer's cache when its backward
returns; no caller keeps a reference to any of them.

An inference forward (no training cache) writes each layer's largest
temporaries, the (H, T, T) attention scores and the (T, F) zg, zu and SiLU
gate, into flat buffers that the model keeps per thread: H*ctx*ctx + 3*ctx*F
values, about 2.5 MB at the desk shape in float32, for each thread that ran
one of its forwards, freed with the model or the thread. Freeing and
reallocating them on every call made the allocator return the pages to the
kernel and fault them back in. They only ever hold temporaries: nothing a
forward returns, logits included, is a view of them.
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import numpy as np

from .manifest import read_header
from .stories import Count, NonNegative, Positive, Size, ValidationError, \
    Width, check_ranges, fields, table_of

CHECKPOINT_MAGIC = b"SRCKPT1\n"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ModelError(ValueError):
    pass


class NonFiniteLossError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    context_length: Width = 256
    layers: Count = 4
    heads: Count = 4
    model_dim: Count = 128
    mlp_hidden_dim: Size = 0  # 0 -> 4 * model_dim
    rope_base: Positive = 10000.0
    rms_eps: Positive = 1e-6
    dtype: str = "float32"
    tie_embeddings: bool = False

    def __post_init__(self):
        check_ranges(self, ModelError)
        if self.model_dim % self.heads != 0:
            raise ModelError(f"model_dim {self.model_dim} not divisible by "
                             f"heads {self.heads}")
        if self.head_dim % 2:  # RoPE rotates pairs of dimensions
            raise ModelError(f"model_dim / heads must be even, got "
                             f"{self.model_dim} / {self.heads} = {self.head_dim}")
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
    learning_rate: NonNegative = 3e-4  # 0 makes the update a provable no-op
    warmup_steps: Count = 100
    weight_decay: NonNegative = 0.033
    grad_clip_norm: Positive = 1.0     # inf: no clipping
    batch_size: Count = 8
    macro_steps: Count = 1000
    rng_seed: int = 0

    def __post_init__(self):
        check_ranges(self, ModelError)
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
    are built once, at the full context length, and sliced per call;
    `_scratch` holds each thread's inference buffers."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 step: int = 0):
        self.config = config
        self.params = params
        self.step = step
        self.forward_calls = 0
        ctx = config.context_length
        self._cos, self._sin = _rope_tables(config, ctx)
        self._future = ~np.tril(np.ones((ctx, ctx), dtype=bool))
        self._scratch = threading.local()  # see _inference_buffers

    def output_matrix(self) -> np.ndarray:
        if self.config.tie_embeddings:
            return self.params["tok_emb"].T
        return self.params["w_out"]

    def forward(self, token_ids, slots=None, splits=None) -> np.ndarray:
        """Logits for one sequence (T,) -> (T, V) or a batch (B, T) -> (B, T, V).
        With `slots`, one position per sequence, only the logits at those
        positions: (V,) for one sequence, (B, V) for a batch. Counts as
        exactly one forward pass either way.

        Each sequence is its own `_forward` task for `_run_tasks`, a lone
        sequence's too. Without slots it is right-padded to the full context
        length and the padding sliced back off: under causal masking the pad
        tokens are exact no-ops for real positions, while the fixed GEMM
        shapes keep its logits bitwise identical across prefix lengths (BLAS
        kernel selection varies with the matrix M dimension).

        With slots, `splits` (one per slot, each in 0..slot, default all 0)
        gives each row's story length, and every row is one head pass after
        its story, as the module docstring sets out. Rows with equal
        nonempty stories form one task that runs their story pass once and
        their head passes in row order."""
        self.forward_calls += 1
        ids, squeeze = _as_batch(token_ids)
        _check_ids(ids, self.config)
        t = ids.shape[1]
        if slots is None:
            if splits is not None:
                raise ModelError("splits need slots")
            padded = np.pad(ids, ((0, 0), (0, self.config.context_length - t)))
            rows = []
            _run_tasks(_forward, [(self, row, False) for row in padded],
                       lambda result: rows.append(result[0]))
            logits = np.stack(rows)[:, :t]
            return logits[0] if squeeze else logits
        slots = np.asarray(slots, dtype=np.int64).reshape(-1)
        if slots.shape != (ids.shape[0],):
            raise ModelError(f"{slots.size} slots for {ids.shape[0]} sequences")
        if slots.min() < 0 or slots.max() >= t:
            raise ModelError(f"slot outside the sequence length {t}")
        splits = np.zeros_like(slots) if splits is None \
            else np.asarray(splits, dtype=np.int64).reshape(-1)
        if splits.shape != slots.shape:
            raise ModelError(f"{splits.size} splits for {slots.size} slots")
        if (splits < 0).any() or (splits > slots).any():
            raise ModelError("split outside 0..slot")
        rows = {}  # row -> its (V,) logits, from each task's list of pairs
        _run_tasks(_story_and_heads, _split_tasks(self, ids, slots, splits),
                   rows.update)
        logits = np.stack([rows[r] for r in range(len(slots))])
        return logits[0] if squeeze else logits


def _split_tasks(model: Model, ids, slots, splits) -> list[tuple]:
    """One task per distinct story ids[:s], keyed by its bytes, or by the
    row itself at split 0, in the order of each task's first row: (model,
    story ids, [(row, head ids), ...])."""
    tasks = {}
    for r, (slot, s) in enumerate(zip(slots.tolist(), splits.tolist())):
        key = ids[r, :s].tobytes() if s else r
        if key not in tasks:
            tasks[key] = (model, ids[r, :s], [])
        tasks[key][2].append((r, ids[r, s:slot + 1]))
    return list(tasks.values())


def _story_and_heads(model: Model, story: np.ndarray, heads: list):
    """[(row, (V,) logits at the head's last row)] for each head after the
    story ids; an empty story leaves the heads no keys and values before
    their own."""
    past = _forward(model, story, need_cache=False, story=True) \
        if len(story) else None
    return [(r, _forward(model, head, need_cache=False, last_row=True,
                         past=past)[0][0]) for r, head in heads]


# --- per-sequence task pool -----------------------------------------------
#
# Softmax, RoPE, SiLU and RMSNorm are single-threaded numpy, so a serial
# forward or training step keeps one core busy; OpenBLAS threads help only
# its GEMMs. The pool runs one sequence per task instead, with OpenBLAS on one
# thread so that its spinning workers do not compete with the tasks.

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


def _task_pool():
    """Looked up once: a thread pool with one worker per usable core and the
    OpenBLAS thread-count functions, or () when the process may use one
    core only or the BLAS thread count cannot be set."""
    global _pool
    with _POOL_LOCK:
        if _pool is None:
            threads = _openblas_threads()
            workers = len(os.sched_getaffinity(0)) if threads else 1
            _pool = (ThreadPoolExecutor(workers, "storyrank-task"), *threads) \
                if workers > 1 else ()
    return _pool


def _forget_pool_in_child():
    """A forked child has none of the parent's pool threads, and the lock
    may have been held by a thread that the child does not have either."""
    global _pool, _POOL_LOCK
    _pool, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _run_tasks(fn, tasks: list[tuple], fold) -> None:
    """fold(fn(*task)) for each task, in task order, on the task pool with
    OpenBLAS pinned to one thread when the pool exists, otherwise in the
    caller with BLAS left as it is. On the pool every task is submitted up
    front, and the caller folds task r's result as soon as it is ready,
    then drops it and its future before it waits for task r + 1: a result
    lives only until it is folded, not until the last task ends. A single
    task runs on the pool too: some OpenBLAS kernels (Haswell's float32
    GEMM) round differently on one thread than on two, so every forward
    task of a process runs at one thread count. When a task or a fold
    raises, the tasks not yet started are cancelled and the running ones
    waited for; the count is restored once no task runs, and the exception
    (of the first failing task in task order, or of the fold) reaches the
    caller."""
    pool = _task_pool()
    if not pool:
        for task in tasks:
            fold(fn(*task))
        return
    executor, get_threads, set_threads = pool
    with _POOL_LOCK:
        before = get_threads()
        set_threads(1)
        pending = []  # futures not yet folded, the next one last
        try:
            for task in tasks:
                pending.append(executor.submit(fn, *task))
            pending.reverse()
            while pending:
                fold(pending[-1].result())
                pending.pop()
        finally:
            for future in pending:
                future.cancel()
            wait(pending)
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
    return _rmsnorm_apply(x, inv, gain), inv


def _rmsnorm_apply(x, inv, gain):
    """The normalized rows from x and their kept inverse RMS."""
    return x * inv * gain


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)) in four passes, into `out` when given."""
    s = np.negative(z, out=out)
    np.exp(s, out=s)
    np.add(1.0, s, out=s)
    return np.divide(1.0, s, out=s)


def _gated(zg, zu, sig):
    """The SiLU-gated product zg * sig * zu, written over `sig`."""
    h = np.multiply(zg, sig, out=sig)
    h *= zu
    return h


def _rmsnorm_bwd(dy, x, inv, gain):
    xhat = x * inv
    dgain = (dy * xhat).sum(axis=0)
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
    # x: (H, T, head_dim); rotate (even, odd) pairs by the position phase
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _split_heads(x, heads):  # (T, D) -> (H, T, hd)
    return x.reshape(len(x), heads, -1).transpose(1, 0, 2)


def _merge_heads(x):  # (H, T, hd) -> (T, D)
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _attention(q, k, v, future, scale, keep_probs: bool, scores=None):
    """Causal softmax attention over one sequence: its (H, M, T) scores are
    scaled, masked, normalized and mixed in place, in `scores` when given,
    else in a new array. q (H, M, hd); k, v (H, T, hd); future (M, T) marks
    the keys each query row may not see. Returns the merged context
    (M, H*hd), always a new array, and the probabilities (H, M, T) when
    `keep_probs`, else None. The bits equal those of whole-batch ops:
    numpy's stacked matmul makes one BLAS call per (sequence, head) either
    way, and the element-wise ops and row reductions see the same rows."""
    h, m, hd = q.shape
    s = np.matmul(q, k.swapaxes(-1, -2), out=scores)
    np.divide(s, scale, out=s)
    np.copyto(s, -np.inf, where=future)
    np.subtract(s, s.max(axis=-1, keepdims=True), out=s)
    np.exp(s, out=s)
    np.divide(s, s.sum(axis=-1, keepdims=True), out=s)
    ctx = np.empty((m, h, hd), dtype=q.dtype)
    np.matmul(s, v, out=ctx.swapaxes(0, 1))
    return ctx.reshape(m, h * hd), s if keep_probs else None


def _inference_buffers(model: Model) -> tuple[np.ndarray, ...]:
    """This thread's scores, zg, zu and gate buffers for `model` (see the
    module docstring), allocated on the thread's first inference forward."""
    local = model._scratch
    if not hasattr(local, "buffers"):
        cfg = model.config
        ctx, dtype = cfg.context_length, cfg.np_dtype
        local.buffers = (np.empty(cfg.heads * ctx * ctx, dtype),
                         *(np.empty(ctx * cfg.hidden_dim, dtype)
                           for _ in range(3)))
    return local.buffers


def _view(flat, shape):
    """The first values of `flat` as a contiguous array of `shape`, or None
    (a new array) when there is no buffer."""
    return None if flat is None else flat[:math.prod(shape)].reshape(shape)


def _forward(model: Model, ids: np.ndarray, need_cache: bool,
             last_row: bool = False, past: list | None = None,
             story: bool = False):
    """One sequence's logits, ids (T,) -> (T, V), and, when `need_cache`,
    the activations backward needs. With `last_row` (inference only) the
    logits are (1, V) at the last row: the last layer computes keys and
    values for every row and everything else for the last row alone.
    Without the cache the temporaries go into `_inference_buffers`; the
    logits are a new array.

    Inference only: a story pass (`story`) returns, instead of logits, each
    layer's RoPE'd keys and values, (H, T, hd) each. A head pass passes
    them as `past`: its ids are then rows s.. of the sequence after the
    story's s rows, so RoPE and the mask are offset by s and every layer
    attends to the story's keys and values before its own."""
    cfg = model.config
    p = model.params
    s = past[0][0].shape[1] if past else 0
    t = s + len(ids)  # keys in attention
    cos, sin = model._cos[s:t], model._sin[s:t]
    future = model._future[s:t, :t]
    scale = np.sqrt(np.array(cfg.head_dim, dtype=cfg.np_dtype))
    scores_buf, zg_buf, zu_buf, gate_buf = \
        (None,) * 4 if need_cache else _inference_buffers(model)

    x = p["tok_emb"][ids]
    q_cos, q_sin, mask = cos, sin, future
    layer_caches, keys = [], []
    for i in range(cfg.layers):
        x_in = x
        wq, wk, wv, wo = (p[f"layers.{i}.{n}"] for n in ("wq", "wk", "wv", "wo"))
        a, inv1 = _rmsnorm_fwd(x, p[f"layers.{i}.ln1"], cfg.rms_eps)
        k = _rope_apply(_split_heads(a @ wk, cfg.heads), cos, sin)
        v = _split_heads(a @ wv, cfg.heads)
        if past:
            k = np.concatenate((past[i][0], k), axis=1)
            v = np.concatenate((past[i][1], v), axis=1)
        if story:
            keys.append((k, v))
            if i == cfg.layers - 1:
                return keys
        if last_row and i == cfg.layers - 1:
            # past the keys and values, only the last row
            x, a = x[-1:], a[-1:]
            q_cos, q_sin, mask = cos[-1:], sin[-1:], future[-1:]
        q = _rope_apply(_split_heads(a @ wq, cfg.heads), q_cos, q_sin)
        ctx, probs = _attention(q, k, v, mask, scale, need_cache,
                                _view(scores_buf, (cfg.heads, len(x), t)))
        x_mid = ctx @ wo
        x_mid += x

        bnorm, inv2 = _rmsnorm_fwd(x_mid, p[f"layers.{i}.ln2"], cfg.rms_eps)
        rows = (len(x), cfg.hidden_dim)
        zg = np.matmul(bnorm, p[f"layers.{i}.wg"], out=_view(zg_buf, rows))
        zu = np.matmul(bnorm, p[f"layers.{i}.wu"], out=_view(zu_buf, rows))
        h = _gated(zg, zu, _sigmoid(zg, out=_view(gate_buf, rows)))
        x = h @ p[f"layers.{i}.wd"]
        x += x_mid
        if need_cache:
            layer_caches.append(dict(x_in=x_in, inv1=inv1, q=q, k=k, v=v,
                                     probs=probs, ctx=ctx, x_mid=x_mid,
                                     inv2=inv2, zg=zg, zu=zu))
    final, inv_f = _rmsnorm_fwd(x, p["ln_f"], cfg.rms_eps)
    logits = final @ model.output_matrix()
    cache = None
    if need_cache:
        cache = dict(ids=ids, layers=layer_caches, x_final=x, final=final,
                     inv_f=inv_f, cos=cos, sin=sin, future=future)
    return logits, cache


def _matmul_bwd(x, w, dy):
    """y = x @ w with x (T, D), w (D, E), dy (T, E): returns dx (T, D) and
    dw (D, E), contracted over one sequence's T rows."""
    dw = np.tensordot(x, dy, axes=(0, 0))
    dx = dy @ w.T
    return dx, dw


def forward_backward(model: Model, inputs, targets, weights=None):
    """Loss and gradients for a padded batch. inputs/targets (B, T); weights
    (B, T) with zeros over padding (None means everything counts).

    Each sequence is one task for `_run_tasks`, on the pool that slot
    inference uses: its forward with cache, its weighted NLL and logit
    gradients, scaled by the batch's total target weight, and its backward.
    Each row's result is folded as soon as that row finishes, in row order
    0..B-1, and then dropped: its NLL row is kept, its gradients are added
    into row 0's, which hold the sum. The loss sums the NLL rows in batch
    order, so it has the bits of a loss over the whole batch at once. The
    gradient sum takes the same additions in the same order however the
    rows finish, so reruns give the same bits; they differ from a
    whole-batch backward's in the last bits, since each weight gradient is
    a sum of per-sequence contractions rather than one over B*T."""
    cfg = model.config
    ids, _ = _as_batch(inputs)
    _check_ids(ids, cfg)
    tg = np.asarray(targets, dtype=np.int64)
    if tg.shape != ids.shape:
        raise ModelError(f"targets shape {tg.shape} != inputs shape {ids.shape}")
    w = np.ones(ids.shape, dtype=cfg.np_dtype) if weights is None \
        else np.asarray(weights).astype(cfg.np_dtype)
    model.forward_calls += 1
    safe_tg = np.where(w > 0, tg, 0)
    total = w.reshape(-1).sum()
    nll_rows, grads = [], {}

    def fold(result):
        nll, more = result
        nll_rows.append(nll)
        if len(nll_rows) == 1:
            grads.update(more)  # row 0's gradients hold the sum
        else:
            for name, g in grads.items():
                g += more[name]

    _run_tasks(_sequence_forward_backward,
               [(model, ids[r], safe_tg[r], w[r], total)
                for r in range(ids.shape[0])], fold)
    loss = float(np.concatenate(nll_rows).sum() / total)
    return loss, grads


def _sequence_forward_backward(model: Model, ids, targets, weights, total):
    """One sequence's training task: ids, targets and weights (T,); total,
    the whole batch's target weight, scales its logit gradients. Returns its
    weighted NLL per row (T,) and its gradients. The logits are dropped once
    the NLL is taken; the logit gradients reach `_backward` inside the
    cache, which it empties as it goes, so this frame keeps neither alive."""
    logits, cache = _forward(model, ids, need_cache=True)
    nll, cache["dlogits"] = _nll_and_dlogits(logits, targets, weights / total)
    del logits
    return nll * weights, _backward(model, cache)


def _nll_and_dlogits(logits, targets, scale):
    """Each row's NLL of its target (T,), and the logit gradients (T, V) of
    the NLL rows weighted by `scale` (T,)."""
    rows = np.arange(targets.shape[0])
    m = logits.max(axis=-1, keepdims=True)
    e = np.subtract(logits, m)
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    nll = m[:, 0] + np.log(z[:, 0]) - logits[rows, targets]
    dlogits = np.divide(e, z, out=e)
    dlogits *= scale[:, None]
    dlogits[rows, targets] -= scale
    return nll, dlogits


def _backward(model: Model, cache: dict) -> dict:
    """One sequence's parameter gradients from `_forward`'s cache, holding
    its dlogits (T, V) under "dlogits". Empties the cache as it goes: the
    dlogits and the final norm's activations after the head's backward,
    each layer's entry when that layer's backward returns."""
    cfg = model.config
    p = model.params
    grads = {name: None for name in model.params}
    dfinal, dw_out = _matmul_bwd(cache.pop("final"), model.output_matrix(),
                                 cache.pop("dlogits"))
    dx, grads["ln_f"] = _rmsnorm_bwd(dfinal, cache.pop("x_final"),
                                     cache.pop("inv_f"), p["ln_f"])
    if not cfg.tie_embeddings:
        grads["w_out"] = dw_out

    layers = cache["layers"]
    for i in reversed(range(cfg.layers)):
        dx = _layer_backward(model, i, layers.pop(), dx, grads, cache)

    d_emb = np.zeros_like(p["tok_emb"])
    np.add.at(d_emb, cache["ids"], dx)
    if cfg.tie_embeddings:
        d_emb += dw_out.T
    grads["tok_emb"] = d_emb
    return grads


def _layer_backward(model: Model, i: int, lc: dict, dx, grads: dict,
                    cache: dict):
    """Layer i's backward from its cache entry `lc`: the gradient at its
    output, dx (T, D), to the one at its input; its weight gradients go
    into `grads`. The MLP half's arrays are freed before the attention
    half's backward starts, and the rest of the layer's on return."""
    cfg = model.config
    p, pre = model.params, f"layers.{i}."
    dx_mid = _mlp_backward(p, pre, lc.pop("x_mid"), lc.pop("inv2"),
                           lc.pop("zg"), lc.pop("zu"), dx, grads)
    dx_mid += dx  # residual

    cos, sin, future = cache["cos"], cache["sin"], cache["future"]
    scale = np.sqrt(np.array(cfg.head_dim, dtype=cfg.np_dtype))
    dctx, grads[pre + "wo"] = _matmul_bwd(lc["ctx"], p[pre + "wo"], dx_mid)
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
    # the rotation by -sin is the transpose of the forward's
    dq = _merge_heads(_rope_apply(dq, cos, -sin))
    dk = _merge_heads(_rope_apply(dk, cos, -sin))
    dv = _merge_heads(dv)
    a = _rmsnorm_apply(lc["x_in"], lc["inv1"], p[pre + "ln1"])
    da_q, grads[pre + "wq"] = _matmul_bwd(a, p[pre + "wq"], dq)
    da_k, grads[pre + "wk"] = _matmul_bwd(a, p[pre + "wk"], dk)
    da_v, grads[pre + "wv"] = _matmul_bwd(a, p[pre + "wv"], dv)
    dx_attn, grads[pre + "ln1"] = _rmsnorm_bwd(
        da_q + da_k + da_v, lc["x_in"], lc["inv1"], p[pre + "ln1"])
    return dx_mid + dx_attn  # both residual branches reach the layer input


def _mlp_backward(p: dict, pre: str, x_mid, inv2, zg, zu, dx, grads: dict):
    """The MLP half of a layer's backward: the gradient at the layer's
    output, dx, to the one at x_mid, before the residual. bnorm, the gate
    sig and the gated product h are recomputed from x_mid, inv2 and zg with
    the forward's own functions, so they have the forward's bits."""
    sig = _sigmoid(zg)
    dh, grads[pre + "wd"] = _matmul_bwd(_gated(zg, zu, sig.copy()),
                                        p[pre + "wd"], dx)
    # dzu = dh * zg * sig and dzg = dh * zu * sig * (1 + zg * (1 - sig)),
    # each product left to right; the last factor is built in sig's array
    dzu = np.multiply(dh, zg)
    dzu *= sig
    dzg = np.multiply(dh, zu)
    dzg *= sig
    np.subtract(1.0, sig, out=sig)
    np.multiply(zg, sig, out=sig)
    np.add(1.0, sig, out=sig)
    dzg *= sig
    bnorm = _rmsnorm_apply(x_mid, inv2, p[pre + "ln2"])
    db_u, grads[pre + "wu"] = _matmul_bwd(bnorm, p[pre + "wu"], dzu)
    db_g, grads[pre + "wg"] = _matmul_bwd(bnorm, p[pre + "wg"], dzg)
    dx_mid, grads[pre + "ln2"] = _rmsnorm_bwd(db_u + db_g, x_mid, inv2,
                                              p[pre + "ln2"])
    return dx_mid


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
# rank, u64-LE dims, raw little-endian data. The parameters come first, in
# name order; an optional optimizer block follows: a zero name length, the
# u64 step, then every adam.m.* and every adam.v.* record. The meta line's
# config and step fix every header byte after it, so the reader compares
# each header with the one save_checkpoint would write there.

_DTYPES = {"float32": (0, "<f4"), "float64": (1, "<f8")}  # code, layout


def _record_header(name: str, dtype: str, shape: tuple[int, ...]) -> bytes:
    nb = name.encode("utf-8")
    return struct.pack(f"<H{len(nb)}sBB{len(shape)}Q", len(nb), nb,
                       _DTYPES[dtype][0], len(shape), *shape)


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    dtype = "float64" if arr.dtype == np.float64 else "float32"
    fh.write(_record_header(name, dtype, arr.shape))
    fh.write(arr.astype(_DTYPES[dtype][1], copy=False).tobytes(order="C"))


def _read_tensor(fh, path, size: int, name: str, cfg: ModelConfig
                 ) -> np.ndarray:
    """The record `name` at the file position, in cfg's dtype and shape for
    it; a header other than that, or data past the end of the file, is an
    error before any data is read."""
    pos, shape = fh.tell(), parameter_shape(name, cfg)
    header = _record_header(name, cfg.dtype, shape)
    got = fh.read(len(header))
    if not got:
        raise ModelError(f"{path}: truncated checkpoint at byte {pos}: "
                         f"{name}: missing")
    if got != header:
        found = got[2:2 + int.from_bytes(got[:2], "little")]
        raise ModelError(f"{path}: corrupt checkpoint at byte {pos}: expected "
                         f"the record {name!r} ({cfg.dtype}, dims "
                         f"{list(shape)}), found "
                         f"{found.decode('utf-8', 'backslashreplace')!r}")
    need = math.prod(shape) * np.dtype(cfg.dtype).itemsize
    if need > size - fh.tell():
        raise ModelError(f"{path}: truncated checkpoint: data of {name!r} at "
                         f"byte {pos}: dims {list(shape)} need {need} bytes, "
                         f"{size - fh.tell()} left")
    arr = np.empty(shape, _DTYPES[cfg.dtype][1])
    fh.readinto(arr)
    return arr


def save_checkpoint(path, model: Model, opt: AdamState | None = None,
                    *, vocab_hash: str = "", manifest_hash: str = "") -> None:
    if opt is not None and opt.step != model.step:
        raise ModelError(f"optimizer step {opt.step} is not the model's step "
                         f"{model.step}, which the file's meta line records")
    meta = {
        "config": asdict(model.config),
        "step": model.step,
        "adam": {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS},
        "vocab_hash": vocab_hash,
        "manifest": manifest_hash,
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
        for name in sorted(model.params):
            _write_tensor(fh, name, model.params[name])
        if opt is not None:
            fh.write(struct.pack("<HQ", 0, opt.step))  # separator record
            for name in sorted(opt.m):
                _write_tensor(fh, "adam.m." + name, opt.m[name])
            for name in sorted(opt.v):
                _write_tensor(fh, "adam.v." + name, opt.v[name])


def _meta_config(meta: dict, path) -> tuple[ModelConfig, list[str]]:
    """The meta line's model config and its parameter names in file order.
    The step and every dim the config implies must be u64 values."""
    at = f"{path}: the metadata line at byte {len(CHECKPOINT_MAGIC)}"
    step = meta.get("step")
    if type(step) is not int or not 0 <= step < 2 ** 64:
        raise ModelError(f"{at} has step {step!r}, not an integer in [0, 2**64)")
    try:
        cfg = ModelConfig(*fields(meta.get("config"), "config",
                                  table_of(ModelConfig)))
        names = sorted(parameter_names(cfg))
        for name in names:
            _record_header(name, cfg.dtype, parameter_shape(name, cfg))
    except (ValidationError, ModelError, struct.error) as exc:  # key, value, dim
        raise ModelError(f"{at} has a bad model config: {exc}") from None
    return cfg, names


def load_checkpoint(path, *, expect_vocab_hash: str | None = None
                    ) -> tuple[Model, AdamState | None, dict]:
    """The model, its optimizer state (None when the file ends after the
    parameters) and the meta line. A file other than what save_checkpoint
    writes for that meta line, outside the tensor data, raises ModelError
    naming the byte offset."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        meta = read_header(fh, path, CHECKPOINT_MAGIC, "checkpoint",
                           ModelError, expect_vocab_hash)
        cfg, names = _meta_config(meta, path)
        read = lambda name: _read_tensor(fh, path, size, name, cfg)
        params = {name: read(name) for name in names}
        opt, pos = None, fh.tell()
        separator = struct.pack("<HQ", 0, meta["step"])
        if got := fh.read(len(separator)):
            if got != separator:
                raise ModelError(f"{path}: corrupt checkpoint at byte {pos}: "
                                 "expected the end of the file or the "
                                 f"optimizer block of step {meta['step']}")
            opt = AdamState(m={n: read("adam.m." + n) for n in names},
                            v={n: read("adam.v." + n) for n in names},
                            step=meta["step"])
            if fh.tell() != size:
                raise ModelError(f"{path}: corrupt checkpoint at byte "
                                 f"{fh.tell()}: {size - fh.tell()} bytes after "
                                 "the optimizer block")
    return Model(cfg, params, step=meta["step"]), opt, meta
