import math
import os
import signal
import struct
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from storyrank.model import (
    CHECKPOINT_MAGIC,
    _forward,
    _rmsnorm_fwd,
    _rope_apply,
    _rope_tables,
    AdamState,
    Model,
    ModelConfig,
    ModelError,
    NonFiniteLossError,
    TrainConfig,
    backward_and_step,
    forward_backward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from storyrank import model as model_module
from storyrank.training import make_batch

from oracles import _loss_and_dlogits, _merge_heads, _rope_backward, \
    _split_heads, batched_forward_backward, cross_entropy, \
    listed_forward_backward, padded_slot_forward


def tiny_model(layers=2, dim=8, heads=2, vocab=40, ctx=16, dtype="float64",
               seed=3, tie=False):
    cfg = ModelConfig(vocab_size=vocab, context_length=ctx, layers=layers,
                      heads=heads, model_dim=dim, dtype=dtype,
                      tie_embeddings=tie)
    return init_model(cfg, seed=seed)


# --- independent straight-line forward oracle --------------------------------
#
# Re-derives the forward pass with explicit per-position, per-head loops in
# float64. Shares no code with storyrank.model.

def oracle_forward(model, ids):
    cfg = model.config
    P = {k: v.astype(np.float64) for k, v in model.params.items()}
    D, H = cfg.model_dim, cfg.heads
    hd = D // H
    T = len(ids)
    eps = cfg.rms_eps

    def rmsnorm(vec, gain):
        ms = sum(float(x) * float(x) for x in vec) / len(vec)
        scale = 1.0 / math.sqrt(ms + eps)
        return np.array([float(x) * scale * float(g) for x, g in zip(vec, gain)])

    def rope(vec, pos):
        out = vec.copy()
        for pair in range(hd // 2):
            theta = pos * cfg.rope_base ** (-2.0 * pair / hd)
            c, s = math.cos(theta), math.sin(theta)
            e, o = vec[2 * pair], vec[2 * pair + 1]
            out[2 * pair] = e * c - o * s
            out[2 * pair + 1] = e * s + o * c
        return out

    x = [P["tok_emb"][t].copy() for t in ids]
    for layer in range(cfg.layers):
        pre = [rmsnorm(x[t], P[f"layers.{layer}.ln1"]) for t in range(T)]
        q = [pre[t] @ P[f"layers.{layer}.wq"] for t in range(T)]
        k = [pre[t] @ P[f"layers.{layer}.wk"] for t in range(T)]
        v = [pre[t] @ P[f"layers.{layer}.wv"] for t in range(T)]
        attn = []
        for t in range(T):
            merged = np.zeros(D)
            for h in range(H):
                sl = slice(h * hd, (h + 1) * hd)
                qt = rope(q[t][sl], t)
                scores = []
                for j in range(t + 1):
                    kj = rope(k[j][sl], j)
                    scores.append(float(qt @ kj) / math.sqrt(hd))
                m = max(scores)
                weights = [math.exp(s - m) for s in scores]
                z = sum(weights)
                out = np.zeros(hd)
                for j in range(t + 1):
                    out += (weights[j] / z) * v[j][sl]
                merged[sl] = out
            attn.append(merged @ P[f"layers.{layer}.wo"])
        x = [x[t] + attn[t] for t in range(T)]
        for t in range(T):
            b = rmsnorm(x[t], P[f"layers.{layer}.ln2"])
            zg = b @ P[f"layers.{layer}.wg"]
            zu = b @ P[f"layers.{layer}.wu"]
            gated = np.array([g / (1.0 + math.exp(-g)) * u
                              for g, u in zip(zg, zu)])
            x[t] = x[t] + gated @ P[f"layers.{layer}.wd"]
    head = P["tok_emb"].T if cfg.tie_embeddings else P["w_out"]
    logits = np.stack([rmsnorm(x[t], P["ln_f"]) @ head for t in range(T)])
    return logits


def test_forward_matches_straight_line_oracle():
    model = tiny_model()
    ids = [1, 17, 3]
    got = model.forward(ids)
    want = oracle_forward(model, ids)
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-30)
    assert rel.max() < 1e-10


def test_forward_matches_oracle_with_tied_embeddings():
    model = tiny_model(tie=True)
    got = model.forward([5, 2, 39, 0])
    want = oracle_forward(model, [5, 2, 39, 0])
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_single_token_input_shape():
    model = tiny_model()
    assert model.forward([7]).shape == (1, 40)


@pytest.mark.parametrize("layers", [1, 2, 4])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_prefix_consistency_exact(layers, heads):
    model = tiny_model(layers=layers, heads=heads, dim=8, vocab=30)
    rng = np.random.default_rng(layers * 10 + heads)
    ids = rng.integers(0, 30, size=12)
    full = model.forward(ids)
    for t in (1, 5, 9):
        prefix = model.forward(ids[:t])
        assert np.array_equal(full[:t], prefix)


# --- oracle: the batched attention ------------------------------------------
#
# The forward pass as it was before attention ran one sequence at a time: the
# mask and RoPE tables built per call at the input length, and scale, mask
# (np.where), softmax and value mix as whole-batch (B, H, T, T) ops.
# Model.forward and the training forward must equal it bit for bit.

def _softmax_rows(scores):
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    return e / e.sum(axis=-1, keepdims=True)


def batched_forward(model, ids):
    cfg = model.config
    p = model.params
    t = ids.shape[1]
    cos, sin = _rope_tables(cfg, t)
    neg = np.array(-np.inf, dtype=cfg.np_dtype)
    causal = np.tril(np.ones((t, t), dtype=bool))
    x = p["tok_emb"][ids]
    for i in range(cfg.layers):
        wq, wk, wv, wo = (p[f"layers.{i}.{n}"] for n in ("wq", "wk", "wv", "wo"))
        a, _ = _rmsnorm_fwd(x, p[f"layers.{i}.ln1"], cfg.rms_eps)
        q = _rope_apply(_split_heads(a @ wq, cfg.heads), cos, sin)
        k = _rope_apply(_split_heads(a @ wk, cfg.heads), cos, sin)
        v = _split_heads(a @ wv, cfg.heads)
        scores = np.matmul(q, k.swapaxes(-1, -2)) / np.sqrt(
            np.array(cfg.head_dim, dtype=cfg.np_dtype))
        scores = np.where(causal, scores, neg)
        x_mid = x + _merge_heads(np.matmul(_softmax_rows(scores), v)) @ wo
        bnorm, _ = _rmsnorm_fwd(x_mid, p[f"layers.{i}.ln2"], cfg.rms_eps)
        zg = bnorm @ p[f"layers.{i}.wg"]
        zu = bnorm @ p[f"layers.{i}.wu"]
        sig = 1.0 / (1.0 + np.exp(-zg))
        x = x_mid + (zg * sig * zu) @ p[f"layers.{i}.wd"]
    final, _ = _rmsnorm_fwd(x, p["ln_f"], cfg.rms_eps)
    return final @ model.output_matrix()


ORACLE_CTX = 48


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("t", [1, 2, 17, ORACLE_CTX])
@pytest.mark.parametrize("b", [1, 3, 10])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_equals_batched_attention_oracle(dtype, b, t, tie):
    model = tiny_model(layers=2, dim=32, heads=4, vocab=50, ctx=ORACLE_CTX,
                       dtype=dtype, tie=tie)
    ids = np.random.default_rng(b * 100 + t).integers(0, 50, size=(b, t))
    padded = np.pad(ids, ((0, 0), (0, ORACLE_CTX - t)))
    assert np.array_equal(model.forward(ids),
                          batched_forward(model, padded)[:, :t])
    # the training path (unpadded, with cache) runs the same layer code
    for seq, want in zip(ids, batched_forward(model, ids)):
        logits, cache = _forward(model, seq, need_cache=True)
        assert np.array_equal(logits, want)
        for layer in cache["layers"]:
            kept = [layer[n] for n in ("probs", "zg", "zu")]
            for i, one in enumerate(kept):
                assert not any(np.shares_memory(one, other)
                               for other in kept[i + 1:])


@pytest.mark.parametrize("t", [150, 200])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_forward_keeps_the_plain_softmax_sum(dtype, t):
    # past 128 keys numpy's pairwise sum splits a row in blocks; training
    # must sum each t-wide row as the batched oracle does
    model = tiny_model(layers=2, dim=32, heads=4, vocab=50, ctx=256,
                       dtype=dtype)
    rng = np.random.default_rng(t)
    ids = rng.integers(0, 50, size=(2, t))
    targets = rng.integers(0, 50, size=(2, t))
    want = batched_forward(model, ids)
    for seq, row in zip(ids, want):
        logits, _ = _forward(model, seq, need_cache=True)
        assert np.array_equal(logits, row)
    loss, _ = forward_backward(model, ids, targets)
    assert loss == _loss_and_dlogits(want, targets, np.ones(ids.shape),
                                     model.config.np_dtype)[0]


SLOT_CTX = 24
SLOT_MODELS = {(dtype, tie): tiny_model(layers=2, dim=16, heads=2, vocab=40,
                                        ctx=SLOT_CTX, dtype=dtype, tie=tie)
               for dtype in ("float32", "float64") for tie in (False, True)}


@st.composite
def _slot_batch(draw):
    seqs = draw(st.lists(st.lists(st.integers(0, 39), min_size=1,
                                  max_size=SLOT_CTX), min_size=1, max_size=6))
    width = draw(st.integers(max(map(len, seqs)), SLOT_CTX))
    ids = np.array([seq + draw(st.lists(st.integers(0, 39),
                                        min_size=width - len(seq),
                                        max_size=width - len(seq)))
                    for seq in seqs])
    slots = [draw(st.integers(0, len(seq) - 1)) for seq in seqs]
    return ids, slots


@given(key=st.sampled_from(sorted(SLOT_MODELS)), batch=_slot_batch())
@settings(max_examples=80, deadline=None)
def test_slot_logits_are_batch_independent_and_close_to_full(key, batch):
    model = SLOT_MODELS[key]
    ids, slots = batch
    before = model.forward_calls
    rows = model.forward(ids, slots)
    assert model.forward_calls == before + 1
    assert rows.shape == (len(slots), 40)
    rtol = 1e-5 if key[0] == "float32" else 1e-12
    for row, seq, slot in zip(rows, ids, slots):
        alone = model.forward(seq[:slot + 1], [slot])
        assert np.array_equal(row, alone)
        full = model.forward(seq)[slot]
        assert np.abs(row - full).max() <= rtol * np.abs(full).max()


@st.composite
def _split_batch(draw):
    """(ids, slots, splits) with each split in 0..slot; a row may copy an
    earlier row's story ids[:split] and split, and draw its own head."""
    tokens = st.integers(0, 39)
    width = draw(st.integers(1, SLOT_CTX))
    rows, slots, splits = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(tokens, min_size=width, max_size=width))
        if rows and draw(st.booleans()):
            source = draw(st.integers(0, len(rows) - 1))
            split = splits[source]
            row[:split] = rows[source][:split]
        else:
            split = draw(st.integers(0, width - 1))
        rows.append(row)
        slots.append(draw(st.integers(split, width - 1)))
        splits.append(split)
    return np.array(rows), slots, splits


@given(key=st.sampled_from(sorted(SLOT_MODELS)), batch=_split_batch(),
       companion=st.lists(st.integers(0, 39), min_size=SLOT_CTX,
                          max_size=SLOT_CTX))
@settings(max_examples=80, deadline=None)
def test_split_rows_depend_on_their_ids_and_split_alone(key, batch,
                                                        companion):
    model = SLOT_MODELS[key]
    ids, slots, splits = batch
    before = model.forward_calls
    rows = model.forward(ids, slots, splits)
    assert model.forward_calls == before + 1
    unsplit = model.forward(ids, slots)
    rtol = 1e-5 if key[0] == "float32" else 1e-12
    for r, (seq, slot, split) in enumerate(zip(ids, slots, splits)):
        row = rows[r]
        assert np.array_equal(row, model.forward(seq[:slot + 1], [slot],
                                                 [split]))
        # after a row that shares its story and has a head of its own
        other = np.array(companion[:len(seq)])
        other[:split] = seq[:split]
        shared = model.forward(np.stack([other, seq]), [len(seq) - 1, slot],
                               [split, split])
        assert np.array_equal(row, shared[1])
        if split == 0:
            assert np.array_equal(row, unsplit[r])
        else:
            assert np.abs(row - unsplit[r]).max() \
                <= rtol * np.abs(unsplit[r]).max()
        for bad in (-1, slot + 1):
            with pytest.raises(ModelError, match="split outside"):
                model.forward(ids, slots, splits[:r] + [bad] + splits[r + 1:])


DESK_SHAPE = ModelConfig(vocab_size=96, context_length=256, layers=4,
                         heads=4, model_dim=128)
# slot widths at and around multiples of 64, where BLAS kernels and numpy's
# pairwise sum change how they block a row
TILE_EDGES = (63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tiled_slot_rows_across_tile_edges(dtype):
    model = init_model(replace(DESK_SHAPE, dtype=dtype), seed=7)
    ctx = DESK_SHAPE.context_length
    rng = np.random.default_rng(11)
    # in one shuffled batch: each sequence length t with its slot at t - 1
    # and at a random earlier row; tokens past the slot are random
    lengths = np.repeat(TILE_EDGES, 2)
    slots = np.where(np.arange(len(lengths)) % 2 == 0, lengths - 1,
                     rng.integers(0, lengths))
    order = rng.permutation(len(slots))
    slots = slots[order]
    ids = rng.integers(0, 96, size=(len(slots), ctx))
    before = model.forward_calls
    rows = model.forward(ids, slots)
    assert model.forward_calls == before + 1
    full = padded_slot_forward(model, ids, slots)
    rtol = 1e-5 if dtype == "float32" else 1e-12
    for row, seq, slot, want in zip(rows, ids, slots, full):
        cut = seq[:slot + 1]
        assert np.array_equal(row, model.forward(cut, [slot]))
        assert np.array_equal(row, model.forward(
            np.pad(cut, (0, ctx - slot - 1)), [slot]))
        # the kernels of some BLAS builds round a narrower GEMM differently
        assert np.abs(row - want).max() <= rtol * np.abs(want).max()


# --- per-sequence task pool ---------------------------------------------------
#
# Every forward runs one task per sequence on a thread pool, with OpenBLAS
# pinned to one thread, when the process may use more than one core;
# otherwise the same tasks run in the caller.

POOLED = len(os.sched_getaffinity(0)) > 1
MIXED_SLOTS = (3, 70, 255, 130, 64, 200, 191)  # short to full width, shuffled


@pytest.fixture
def blas_threads():
    """The OpenBLAS (get, set) thread-count functions; the count is put
    back afterwards."""
    threads = model_module._openblas_threads()
    if threads is None:
        pytest.skip("the BLAS thread count cannot be read in this process")
    original = threads[0]()
    yield threads
    threads[1](original)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_pooled_slot_batch_equals_each_row_alone(dtype):
    model = init_model(replace(DESK_SHAPE, dtype=dtype), seed=5)
    ids = np.random.default_rng(3).integers(0, 96, size=(len(MIXED_SLOTS),
                                                         256))
    before = model.forward_calls
    rows = model.forward(ids, MIXED_SLOTS)
    assert model.forward_calls == before + 1
    for row, seq, slot in zip(rows, ids, MIXED_SLOTS):
        assert np.array_equal(row, model.forward(seq, [slot]))


def test_slot_tasks_run_exactly_to_their_slot(monkeypatch):
    real_forward = model_module._forward
    seen = []

    def recording_forward(model, ids, need_cache, **flags):
        seen.append((ids.shape[0], flags.get("last_row")))
        return real_forward(model, ids, need_cache, **flags)

    monkeypatch.setattr(model_module, "_forward", recording_forward)
    model = init_model(replace(DESK_SHAPE, layers=1), seed=5)
    ids = np.random.default_rng(3).integers(0, 96, size=(len(MIXED_SLOTS),
                                                         256))
    model.forward(ids, MIXED_SLOTS)
    assert sorted(seen) == sorted((slot + 1, True) for slot in MIXED_SLOTS)


def test_no_slot_forward_runs_one_task_per_sequence(monkeypatch,
                                                    blas_threads):
    get_threads, set_threads = blas_threads
    real_forward = model_module._forward
    seen = []

    def recording_forward(model, ids, need_cache, **flags):
        seen.append((ids.shape, get_threads()))
        return real_forward(model, ids, need_cache, **flags)

    monkeypatch.setattr(model_module, "_forward", recording_forward)
    model = tiny_model(ctx=SLOT_CTX)
    set_threads(2)
    assert model.forward(np.arange(15).reshape(3, 5)).shape == (3, 5, 40)
    assert get_threads() == 2
    # each sequence padded to the context length is its own task, on one
    # BLAS thread when pooled
    assert seen == [((SLOT_CTX,), 1 if POOLED else 2)] * 3


@pytest.mark.parametrize("count", [1, 2])
def test_slot_forward_restores_the_blas_thread_count(monkeypatch,
                                                     blas_threads, count):
    get_threads, set_threads = blas_threads
    real_forward = model_module._forward
    seen = []

    def recording_forward(*args, **kwargs):
        seen.append(get_threads())
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(model_module, "_forward", recording_forward)
    model = tiny_model(ctx=SLOT_CTX)
    set_threads(count)
    model.forward(np.arange(3 * SLOT_CTX).reshape(3, -1) % 40, [0, 9, 23])
    assert get_threads() == count
    model.forward(np.arange(5), [4])
    assert get_threads() == count
    # pooled tasks, a lone sequence's too, run on one BLAS thread; without
    # the pool the caller runs them with BLAS left as it is
    assert seen == [1 if POOLED else count] * 4


def test_failing_slot_task_reaches_the_caller_and_restores_blas(
        monkeypatch, blas_threads):
    get_threads, set_threads = blas_threads
    real_forward = model_module._forward

    def failing_forward(model, ids, need_cache, **flags):
        if ids.shape[0] == 6:  # the task of slot 5
            raise RuntimeError("slot task failed")
        return real_forward(model, ids, need_cache, **flags)

    monkeypatch.setattr(model_module, "_forward", failing_forward)
    model = tiny_model(ctx=SLOT_CTX)
    set_threads(2)
    with pytest.raises(RuntimeError, match="slot task failed"):
        model.forward(np.ones((3, 8), dtype=np.int64), [1, 5, 7])
    assert get_threads() == 2


def _ragged_training_batch(model, b, seed=0):
    """(inputs, targets, weights) of b rows with different target counts and
    non-unit weights, zero over each row's padding."""
    rng = np.random.default_rng(seed)
    v, t = model.config.vocab_size, model.config.context_length
    inputs = rng.integers(0, v, size=(b, t))
    targets = rng.integers(0, v, size=(b, t))
    weights = rng.uniform(0.5, 2.0, size=(b, t))
    for r, n in enumerate(rng.integers(1, t + 1, size=b)):
        weights[r, n:] = 0.0
    return inputs, targets, weights


@pytest.mark.parametrize("count", [1, 2])
def test_training_step_restores_the_blas_thread_count(monkeypatch,
                                                      blas_threads, count):
    get_threads, set_threads = blas_threads
    real_forward = model_module._forward
    seen = []

    def recording_forward(*args, **kwargs):
        seen.append(get_threads())
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(model_module, "_forward", recording_forward)
    model = tiny_model(ctx=SLOT_CTX)
    set_threads(count)
    forward_backward(model, *_ragged_training_batch(model, 3))
    assert get_threads() == count
    # one training task per sequence, on one BLAS thread when pooled
    assert seen == [1 if POOLED else count] * 3


def test_failing_training_task_reaches_the_caller_and_restores_blas(
        monkeypatch, blas_threads):
    get_threads, set_threads = blas_threads
    real_forward = model_module._forward

    def failing_forward(model, ids, need_cache, last_row=False):
        if ids[0] == 7:  # the task of the second sequence
            raise RuntimeError("training task failed")
        return real_forward(model, ids, need_cache, last_row)

    monkeypatch.setattr(model_module, "_forward", failing_forward)
    model = tiny_model(ctx=SLOT_CTX)
    set_threads(2)
    inputs = np.ones((3, 8), dtype=np.int64)
    inputs[1, 0] = 7
    with pytest.raises(RuntimeError, match="training task failed"):
        forward_backward(model, inputs, inputs)
    assert get_threads() == 2

@pytest.fixture(params=["pool", "caller"])
def task_branch(request, monkeypatch):
    """Runs the test with the tasks on the pool (where the process may use
    more than one core) and again with every task in the caller."""
    if request.param == "caller":
        monkeypatch.setattr(model_module, "_pool", ())
    return request.param


def _numbered_training_batch(model, b):
    """A ragged training batch whose row r starts with token r."""
    inputs, targets, weights = _ragged_training_batch(model, b)
    inputs[:, 0] = np.arange(b)
    return inputs, targets, weights


def _eventually(condition, seconds=5.0):
    """Whether `condition()` holds, polled for up to `seconds`."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


def test_training_rows_are_released_once_folded(monkeypatch, task_branch):
    real_task = model_module._sequence_forward_backward
    lock = threading.Lock()
    refs, alive_at_start, previous_released = {}, {}, {}  # by row

    def alive():
        with lock:
            return sorted(r for r, ref in refs.items() if ref() is not None)

    def released(row):
        with lock:
            return row in refs and refs[row]() is None

    def recording_task(model, ids, *rest):
        row = int(ids[0])
        alive_at_start[row] = alive()
        if row >= 2:
            # row r - 1 started first; on the pool it may still be running,
            # but the caller folds and drops it while this task waits
            previous_released[row] = _eventually(lambda: released(row - 1))
        nll, grads = real_task(model, ids, *rest)
        with lock:
            refs[row] = weakref.ref(grads["tok_emb"])
        return nll, grads

    monkeypatch.setattr(model_module, "_sequence_forward_backward",
                        recording_task)
    model = tiny_model(layers=2, dim=32, heads=4, vocab=50, ctx=40)
    _, grads = forward_backward(model, *_numbered_training_batch(model, 8))
    assert sorted(refs) == list(range(8))
    # row 0's gradients hold the sum; every later row's are dropped once
    # folded, before the caller waits for the next row
    assert previous_released == {r: True for r in range(2, 8)}
    if task_branch == "caller":
        assert alive_at_start == {0: [], **{r: [0] for r in range(1, 8)}}
    # a pool worker lets go of a finished task just after handing over its
    # result, so allow it a moment
    assert _eventually(lambda: alive() == [0])
    assert refs[0]() is grads["tok_emb"]


def test_failing_fold_reaches_the_caller_and_stops_the_pool(
        monkeypatch, blas_threads, task_branch):
    get_threads, set_threads = blas_threads
    real_task = model_module._sequence_forward_backward
    lock = threading.Lock()
    running, started = [0], []

    class Unfoldable(dict):
        def __getitem__(self, name):
            raise RuntimeError("fold failed")

    def counting_task(model, ids, *rest):
        with lock:
            running[0] += 1
            started.append(int(ids[0]))
        try:
            nll, grads = real_task(model, ids, *rest)
        finally:
            with lock:
                running[0] -= 1
        return nll, Unfoldable(grads) if ids[0] == 2 else grads

    monkeypatch.setattr(model_module, "_sequence_forward_backward",
                        counting_task)
    model = tiny_model(layers=2, dim=32, heads=4, vocab=50, ctx=40)
    batch = _numbered_training_batch(model, 8)
    set_threads(2)
    with pytest.raises(RuntimeError, match="fold failed"):
        forward_backward(model, *batch)
    assert get_threads() == 2
    assert running[0] == 0
    if task_branch == "caller":
        assert started == [0, 1, 2]
    # the tasks left unstarted were cancelled, not left queued
    ran = len(started)
    time.sleep(0.05)
    assert len(started) == ran
    monkeypatch.setattr(model_module, "_sequence_forward_backward", real_task)
    assert np.isfinite(forward_backward(model, *batch)[0])
    assert get_threads() == 2


def test_training_cache_keeps_only_what_the_backward_reads():
    model = tiny_model(layers=2, dim=32, heads=4, vocab=50, ctx=40)
    _, cache = _forward(model, np.arange(20), need_cache=True)
    assert set(cache) == {"ids", "layers", "x_final", "final", "inv_f", "cos",
                          "sin", "future"}
    assert [set(layer) for layer in cache["layers"]] == [
        {"x_in", "inv1", "q", "k", "v", "probs", "ctx", "x_mid", "inv2", "zg",
         "zu"}] * 2


def test_training_activations_are_freed_as_the_backward_goes(monkeypatch,
                                                             task_branch):
    real_forward = model_module._forward
    real_backward = model_module._backward
    real_layer_backward = model_module._layer_backward
    logits_refs, layer_refs = {}, {}  # by row; by (row, layer)
    alive_at = []  # what a check found still alive

    def recording_forward(model, ids, need_cache, **flags):
        logits, cache = real_forward(model, ids, need_cache, **flags)
        row = int(ids[0])
        logits_refs[row] = weakref.ref(logits)
        for i, layer in enumerate(cache["layers"]):
            layer_refs[row, i] = [weakref.ref(layer[name])
                                  for name in ("probs", "zg")]
        return logits, cache

    def checking_backward(model, cache):
        row = int(cache["ids"][0])
        if logits_refs[row]() is not None:
            alive_at.append(("logits at the backward's start", row))
        return real_backward(model, cache)

    def checking_layer_backward(model, i, lc, dx, grads, cache):
        dx = real_layer_backward(model, i, lc, dx, grads, cache)
        row = int(cache["ids"][0])
        if any(ref() is not None for ref in layer_refs.get((row, i + 1), ())):
            alive_at.append((f"layer {i + 1} after layer {i}'s backward", row))
        return dx

    monkeypatch.setattr(model_module, "_forward", recording_forward)
    monkeypatch.setattr(model_module, "_backward", checking_backward)
    monkeypatch.setattr(model_module, "_layer_backward",
                        checking_layer_backward)
    model = tiny_model(layers=3, dim=32, heads=4, vocab=50, ctx=40)
    forward_backward(model, *_numbered_training_batch(model, 4))
    assert sorted(logits_refs) == list(range(4))
    assert alive_at == []
    refs = [*logits_refs.values(),
            *(ref for refs in layer_refs.values() for ref in refs)]
    assert len(refs) == 4 + 4 * 3 * 2
    assert _eventually(lambda: all(ref() is None for ref in refs))


def test_concurrent_slot_forwards_equal_serial_calls(blas_threads):
    get_threads, set_threads = blas_threads
    set_threads(2)
    model = init_model(replace(DESK_SHAPE, dtype="float32"), seed=9)
    rng = np.random.default_rng(4)
    batches = [(rng.integers(0, 96, size=(b, 256)), rng.integers(0, 256, b))
               for b in (4, 5, 1)]
    want = [model.forward(ids, slots) for ids, slots in batches]
    got = [[] for _ in batches]

    def run(k):
        for _ in range(3):
            got[k].append(model.forward(*batches[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rows, expected in zip(got, want):
        assert len(rows) == 3
        for row in rows:
            assert np.array_equal(row, expected)
    assert get_threads() == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_slot_forward():
    model = tiny_model(ctx=SLOT_CTX)
    ids = np.arange(2 * SLOT_CTX).reshape(2, -1) % 40
    want = model.forward(ids, [3, 20])  # the parent's pool exists from here
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(model.forward(ids, [3, 20]), want) \
                else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's slot forward did not finish")
    assert os.waitstatus_to_exitcode(done[1]) == 0


# --- per-thread inference buffers ----------------------------------------------
#
# An inference forward writes each layer's scores, zg, zu and gate into flat
# buffers that its thread keeps for the model; nothing it returns is a view
# of them.

def test_forward_results_outlive_later_forwards(task_branch):
    model = init_model(replace(DESK_SHAPE, dtype="float32"), seed=2)
    other = tiny_model(layers=3, dim=16, heads=4, vocab=50, ctx=40)
    rng = np.random.default_rng(8)
    ids = rng.integers(0, 96, size=(3, 256))
    kept = [model.forward(ids, [255, 40, 128]), model.forward(ids[:, :200])]
    copies = [k.copy() for k in kept]
    for width in (256, 65, 7, 130):
        model.forward(rng.integers(0, 96, size=(2, width)), [width - 1, 0])
        model.forward(rng.integers(0, 96, size=(2, width)))
        other.forward(rng.integers(0, 50, size=(2, 40)), [39, 5])
        other.forward(rng.integers(0, 50, size=(2, 40)))
    for k, c in zip(kept, copies):
        assert np.array_equal(k, c)
    if task_branch == "caller":
        assert not any(np.shares_memory(k, buffer) for k in kept
                       for buffer in model_module._inference_buffers(model))


def test_a_second_slot_forward_reuses_the_threads_buffers(monkeypatch):
    monkeypatch.setattr(model_module, "_pool", ())
    cfg = replace(DESK_SHAPE, dtype="float32")
    model = init_model(cfg, seed=4)
    ctx = cfg.context_length
    ids = np.random.default_rng(5).integers(0, 96, size=(1, ctx))
    first = model.forward(ids, [ctx - 1])  # allocates the buffers
    tracemalloc.start()
    try:
        second = model.forward(ids, [ctx - 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, second)
    # below one layer's scores, zg, zu and gate, which are not allocated
    one_layer = (cfg.heads * ctx * ctx + 3 * ctx * cfg.hidden_dim) * 4
    assert peak < one_layer


def test_slots_validated():
    model = tiny_model(ctx=8)
    with pytest.raises(ModelError, match="slots for"):
        model.forward([[1, 2], [3, 4]], [1])
    with pytest.raises(ModelError, match="slot outside"):
        model.forward([1, 2, 3], [3])
    with pytest.raises(ModelError, match="splits for"):
        model.forward([[1, 2], [3, 4]], [1, 1], [0])
    with pytest.raises(ModelError, match="splits need slots"):
        model.forward([1, 2, 3], splits=[1])


def test_forward_input_validation():
    model = tiny_model(ctx=8)
    with pytest.raises(ModelError, match="exceeds context"):
        model.forward(list(range(9)))
    with pytest.raises(ModelError, match="outside vocabulary"):
        model.forward([41])


def test_forward_call_counter():
    model = tiny_model()
    assert model.forward_calls == 0
    model.forward([1, 2])
    model.forward([1])
    assert model.forward_calls == 2


# --- loss ---------------------------------------------------------------------

def test_uniform_logits_loss_is_log_vocab():
    logits = np.zeros((1, 5, 33))
    targets = np.array([[1, 2, 3, 4, 5]])
    assert cross_entropy(logits, targets) == pytest.approx(math.log(33), rel=1e-12)


def test_one_hot_logits_loss_approaches_zero():
    targets = np.array([[3, 1, 4]])
    logits = np.full((1, 3, 10), -50.0)
    for t, tok in enumerate(targets[0]):
        logits[0, t, tok] = 50.0
    assert cross_entropy(logits, targets) < 1e-12


def test_loss_matches_direct_oracle():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((2, 4, 12))
    targets = rng.integers(0, 12, size=(2, 4))
    weights = np.array([[1, 1, 0, 1], [1, 0, 1, 1]], dtype=float)
    # direct recomputation from the definition
    total = 0.0
    for b in range(2):
        for t in range(4):
            if weights[b, t]:
                row = logits[b, t]
                total += math.log(np.exp(row).sum()) - row[targets[b, t]]
    want = total / weights.sum()
    assert cross_entropy(logits, targets, weights) == pytest.approx(want, rel=1e-12)


def test_loss_shape_mismatch():
    with pytest.raises(ModelError, match="rows"):
        cross_entropy(np.zeros((2, 3, 5)), np.zeros((2, 2), dtype=int))


# --- gradients ----------------------------------------------------------------

@st.composite
def rope_operands(draw):
    """dy (H, T, hd) and the cos and sin tables (T, hd / 2), all of one
    dtype, with +-0.0 among their values. cos and sin lie in [-1, 1], so no
    sum of two products is inf - inf."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 8 * np.dtype(dtype).itemsize
    h, t, half = (draw(st.integers(1, n)) for n in (3, 6, 4))

    def values(shape, bound=None):
        finite = st.floats(None if bound is None else -bound, bound,
                           width=width, allow_nan=False, allow_infinity=False)
        return draw(arrays(dtype, shape, elements=st.one_of(
            st.sampled_from([0.0, -0.0]), finite)))

    return values((h, t, 2 * half)), values((t, half), 1), values((t, half), 1)


@given(operands=rope_operands())
@settings(max_examples=200, deadline=None)
def test_rope_backward_is_the_forward_rotation_by_minus_sin(operands):
    # a - b * (-s) rounds as a + b * s, and a * (-s) as (-a) * s, signed
    # zeros included, so the backward rotates with the forward's function
    dy, cos, sin = operands
    got, want = _rope_apply(dy, cos, -sin), _rope_backward(dy, cos, sin)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_gradients_match_central_finite_differences():
    model = tiny_model(layers=2, dim=8, heads=2, vocab=24, dtype="float64")
    rng = np.random.default_rng(11)
    inputs = rng.integers(0, 24, size=(2, 6))
    targets = rng.integers(0, 24, size=(2, 6))
    weights = np.ones((2, 6))
    weights[1, 5] = 0.0  # include a padded position

    loss, grads = forward_backward(model, inputs, targets, weights)
    eps = 1e-5
    worst = {}
    for name, param in model.params.items():
        g = grads[name]
        fd = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            up = _loss_only(model, inputs, targets, weights)
            param[idx] = orig - eps
            down = _loss_only(model, inputs, targets, weights)
            param[idx] = orig
            fd[idx] = (up - down) / (2 * eps)
            it.iternext()
        # the 1e-6 floor sits above central-difference roundoff (~1e-10 here)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-6)
        elementwise = float((np.abs(fd - g) / denom).max())
        normwise = float(np.abs(fd - g).max()
                         / max(np.abs(fd).max(), np.abs(g).max(), 1e-12))
        worst[name] = max(elementwise, normwise)
    assert max(worst.values()) < 1e-4, worst


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("b", [1, 3, 8])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_pooled_training_step_equals_batched_oracle(dtype, b, tie):
    # one task per sequence: the loss keeps the whole-batch bits; the
    # gradients sum per sequence in row order, so they match within rounding
    # and repeat bit for bit
    model = tiny_model(layers=2, dim=32, heads=4, vocab=50, ctx=40,
                       dtype=dtype, tie=tie)
    batch = _ragged_training_batch(model, b, seed=b)
    want_loss, want = batched_forward_backward(model, *batch)
    loss, grads = forward_backward(model, *batch)
    assert loss == want_loss
    rtol = 1e-5 if dtype == "float32" else 1e-12
    assert grads.keys() == want.keys()
    for name, g in grads.items():
        assert g.dtype == want[name].dtype
        assert np.abs(g - want[name]).max() <= rtol * np.abs(want[name]).max(), name
    _, again = forward_backward(model, *batch)
    for name, g in grads.items():
        assert np.array_equal(g, again[name]), name

@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("b", [1, 3, 8, 9])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_folded_training_step_equals_listed_oracle(task_branch, dtype, b, tie):
    # rows folded as they finish take the same additions in the same order
    # as rows collected first and summed afterwards
    model = tiny_model(layers=2, dim=32, heads=4, vocab=50, ctx=40,
                       dtype=dtype, tie=tie)
    batch = _ragged_training_batch(model, b, seed=b)
    want_loss, want = listed_forward_backward(model, *batch)
    loss, grads = forward_backward(model, *batch)
    assert loss == want_loss
    assert grads.keys() == want.keys()
    for name, g in grads.items():
        assert g.dtype == want[name].dtype
        assert g.tobytes() == want[name].tobytes(), name


def _loss_only(model, inputs, targets, weights):
    logits = np.stack([_forward(model, seq, need_cache=False)[0]
                       for seq in np.asarray(inputs)])
    return cross_entropy(logits, targets, weights)


def test_tied_embedding_gradients_match_finite_differences():
    model = tiny_model(layers=1, dim=8, heads=2, vocab=16, dtype="float64", tie=True)
    rng = np.random.default_rng(5)
    inputs = rng.integers(0, 16, size=(1, 5))
    targets = rng.integers(0, 16, size=(1, 5))
    loss, grads = forward_backward(model, inputs, targets)
    eps = 1e-5
    param = model.params["tok_emb"]
    g = grads["tok_emb"]
    for idx in [(0, 0), (3, 4), (15, 7), (int(inputs[0, 0]), 2)]:
        orig = param[idx]
        param[idx] = orig + eps
        up = _loss_only(model, inputs, targets, None)
        param[idx] = orig - eps
        down = _loss_only(model, inputs, targets, None)
        param[idx] = orig
        fd = (up - down) / (2 * eps)
        assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8) < 1e-4


# --- optimizer ------------------------------------------------------------------

def _toy_batch(model, seed=0):
    rng = np.random.default_rng(seed)
    v = model.config.vocab_size
    seqs = [rng.integers(0, v, size=10) for _ in range(4)]
    return make_batch(seqs, dtype=model.config.np_dtype)


def test_zero_learning_rate_is_a_no_op():
    model = tiny_model()
    before = {k: v.copy() for k, v in model.params.items()}
    cfg = TrainConfig(learning_rate=0.0, warmup_steps=1, macro_steps=1,
                      weight_decay=0.0, grad_clip_norm=float("inf"))
    backward_and_step(model, AdamState.for_model(model), _toy_batch(model), cfg)
    for name, param in model.params.items():
        assert np.array_equal(param, before[name]), name


def test_warmup_schedule_then_constant():
    cfg = TrainConfig(learning_rate=1e-3, warmup_steps=4, macro_steps=10)
    assert [cfg.lr_at(s) for s in (1, 2, 4, 7)] == \
        [2.5e-4, 5e-4, 1e-3, 1e-3]


def test_gradient_clipping_bounds_update_norm():
    model = tiny_model(dtype="float64")
    batch = _toy_batch(model)
    cfg = TrainConfig(learning_rate=1e-3, warmup_steps=1, macro_steps=1,
                      grad_clip_norm=0.01, weight_decay=0.0)
    metrics = backward_and_step(model, AdamState.for_model(model), batch, cfg)
    assert metrics["grad_norm"] > 0.01  # raw norm reported, before clipping


def test_weight_decay_skips_norm_gains():
    # identical single step with and without decay: matrices must differ by
    # exactly the decay pull, norm gains must be bitwise identical
    runs = {}
    for wd in (0.0, 0.5):
        model = tiny_model(dtype="float64", seed=4)
        cfg = TrainConfig(learning_rate=1e-2, warmup_steps=1, macro_steps=1,
                          weight_decay=wd, grad_clip_norm=float("inf"))
        backward_and_step(model, AdamState.for_model(model), _toy_batch(model), cfg)
        runs[wd] = model.params
    for name in runs[0.0]:
        a, b = runs[0.0][name], runs[0.5][name]
        if a.ndim >= 2:
            assert not np.array_equal(a, b), name
        else:
            assert np.array_equal(a, b), name


def test_non_finite_loss_names_batch():
    model = tiny_model()
    model.params["tok_emb"][:] = np.inf
    cfg = TrainConfig(learning_rate=1e-3, warmup_steps=1, macro_steps=1)
    with pytest.raises(NonFiniteLossError, match="batch index 7"):
        backward_and_step(model, AdamState.for_model(model), _toy_batch(model),
                          cfg, batch_index=7)


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        model = tiny_model(dtype="float64", seed=9)
        opt = AdamState.for_model(model)
        cfg = TrainConfig(learning_rate=3e-3, warmup_steps=2, macro_steps=5)
        for step in range(5):
            backward_and_step(model, opt, _toy_batch(model, seed=step), cfg)
        runs.append({k: v.copy() for k, v in model.params.items()})
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name]), name


def test_item_permutation_leaves_loss_unchanged():
    model = tiny_model(dtype="float64")
    rng = np.random.default_rng(2)
    inputs = rng.integers(0, 40, size=(2, 8))
    targets = rng.integers(0, 40, size=(2, 8))
    base = cross_entropy(model.forward(inputs), targets)

    perm = np.arange(40)
    perm[[30, 35]] = [35, 30]  # relabel two "item" tokens
    permuted = Model(model.config,
                     {k: v.copy() for k, v in model.params.items()})
    permuted.params["tok_emb"] = permuted.params["tok_emb"][perm]
    permuted.params["w_out"] = permuted.params["w_out"][:, perm]
    inv = np.argsort(perm)
    relabeled = cross_entropy(permuted.forward(inv[inputs]), inv[targets])
    assert relabeled == pytest.approx(base, rel=1e-12)


# --- checkpointing -------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = tiny_model(dtype="float32")
    opt = AdamState.for_model(model)
    cfg = TrainConfig(learning_rate=1e-3, warmup_steps=1, macro_steps=3)
    for step in range(3):
        backward_and_step(model, opt, _toy_batch(model, seed=step), cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt, vocab_hash="abc123")
    loaded, loaded_opt, meta = load_checkpoint(path)
    ids = np.arange(10) % model.config.vocab_size
    assert np.array_equal(loaded.forward(ids), model.forward(ids))
    assert loaded.step == model.step
    assert loaded_opt.step == opt.step
    for name in opt.m:
        assert np.array_equal(loaded_opt.m[name], opt.m[name])
        assert np.array_equal(loaded_opt.v[name], opt.v[name])
    assert meta["vocab_hash"] == "abc123"
    assert meta["adam"]["beta1"] == 0.9


def test_checkpoint_preserves_float64_exactly(tmp_path):
    model = tiny_model(dtype="float64")
    path = tmp_path / "model64.ckpt"
    save_checkpoint(path, model)
    loaded, _, _ = load_checkpoint(path)
    ids = [1, 2, 3, 4]
    assert np.array_equal(loaded.forward(ids), model.forward(ids))
    assert loaded.params["tok_emb"].dtype == np.float64


def test_truncated_checkpoint_is_a_clean_error(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 11])
    with pytest.raises(ModelError, match="truncated|mismatch"):
        load_checkpoint(path)


def _corrupt_first_tensor(data: bytes, what: str) -> bytes:
    """The checkpoint bytes with the first tensor record's dtype code, name,
    rank or first dim damaged: records are u16 name length, name, u8 dtype
    code, u8 rank, u64 dims, ..."""
    start = data.index(b"\n", len(CHECKPOINT_MAGIC)) + 1
    (nlen,) = struct.unpack_from("<H", data, start)
    name_at = start + 2
    if what == "dtype":
        return data[:name_at + nlen] + b"\x07" + data[name_at + nlen + 1:]
    if what == "rank":
        at = name_at + nlen + 1
        return data[:at] + bytes([130]) + data[at + 1:]
    if what == "dims":  # the first dim, past the dtype code and rank
        at = name_at + nlen + 2
        return data[:at] + struct.pack("<Q", 2 ** 62) + data[at + 8:]
    name = b"\xff" * nlen if what == "name" else b"adam.m." + b"x" * (nlen - 7)
    return data[:name_at] + name + data[name_at + nlen:]


# the first record as save_checkpoint writes it for the meta line
_FIRST_RECORD = (r"corrupt checkpoint at byte \d+: expected the record "
                 r"'layers\.0\.ln1' \(float64, dims \[8\]\)")


@pytest.mark.parametrize("what, match", [
    ("dtype", _FIRST_RECORD + r", found 'layers\.0\.ln1'$"),
    ("name", _FIRST_RECORD + r", found '(\\\\xff)+'$"),  # escaped, not UTF-8
    ("adam", _FIRST_RECORD + r", found 'adam\.m\.xxxxx'$"),
    ("rank", _FIRST_RECORD + r", found 'layers\.0\.ln1'$"),
    ("dims", _FIRST_RECORD + r", found 'layers\.0\.ln1'$"),
], ids=["dtype", "name", "adam", "rank", "dims"])
def test_corrupt_checkpoint_is_a_clean_error(tmp_path, what, match):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, AdamState.for_model(model))
    path.write_bytes(_corrupt_first_tensor(path.read_bytes(), what))
    with pytest.raises(ModelError, match=match):
        load_checkpoint(path)


def _checkpoint_records(data: bytes) -> list[tuple[int, int, int]]:
    """(start, header end, end) of each record after the meta line. The
    optimizer separator's header is its zero name length; its step counts
    as data."""
    records, pos = [], data.index(b"\n", len(CHECKPOINT_MAGIC)) + 1
    while pos < len(data):
        (nlen,) = struct.unpack_from("<H", data, pos)
        if nlen == 0:
            records.append((pos, pos + 2, pos + 10))
        else:
            code, rank = data[pos + 2 + nlen], data[pos + 3 + nlen]
            dims = struct.unpack_from(f"<{rank}Q", data, pos + 4 + nlen)
            head_end = pos + 4 + nlen + 8 * rank
            records.append((pos, head_end,
                            head_end + math.prod(dims) * (4, 8)[code]))
        pos = records[-1][2]
    return records


def test_corrupt_checkpoint_headers_and_cuts_are_refused(tmp_path):
    model = tiny_model(layers=1)
    opt = AdamState.for_model(model)
    backward_and_step(model, opt, _toy_batch(model),
                      TrainConfig(warmup_steps=1, macro_steps=1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt)
    data = path.read_bytes()
    records = _checkpoint_records(data)
    assert records[-1][2] == len(data)
    separator = next(start for start, head_end, end in records
                     if end - head_end == 8)
    header_bytes = list(range(len(CHECKPOINT_MAGIC), records[0][0]))
    for start, head_end, _ in records:
        header_bytes += range(start, head_end)
    rng = np.random.default_rng(21)
    flips = zip(rng.choice(header_bytes, 600), rng.integers(0, 8, 600))
    mutants = [data[:i] + bytes([data[i] ^ 1 << bit]) + data[i + 1:]
               for i, bit in flips]
    mutants += [data[:start] for start, _, _ in records if start != separator]
    refused = 0
    for blob in mutants:
        path.write_bytes(blob)
        try:
            loaded, loaded_opt, _ = load_checkpoint(path)
        except ModelError:
            refused += 1
            continue
        for got, want in ((loaded.params, model.params),
                          (loaded_opt.m, opt.m), (loaded_opt.v, opt.v)):
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].dtype == want[name].dtype
                assert np.array_equal(got[name], want[name])
        assert loaded_opt.step == opt.step
    assert refused > len(mutants) // 2
    # cut at the optimizer block, the file is a checkpoint saved without one
    path.write_bytes(data[:separator])
    assert load_checkpoint(path)[1] is None


def test_checkpoint_with_a_partial_optimizer_block_is_refused(tmp_path):
    model = tiny_model(layers=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, AdamState.for_model(model))
    data = path.read_bytes()
    last = _checkpoint_records(data)[-1][0]
    path.write_bytes(data[:last])
    with pytest.raises(ModelError, match=r"adam\.v\.w_out: missing"):
        load_checkpoint(path)


def _trained_checkpoint(tmp_path, steps=1):
    """A one-layer model and its optimizer after `steps` steps, saved with
    the optimizer block: (path, file bytes, separator offset)."""
    model = tiny_model(layers=1)
    opt = AdamState.for_model(model)
    for step in range(steps):
        backward_and_step(model, opt, _toy_batch(model, seed=step),
                          TrainConfig(warmup_steps=1, macro_steps=steps))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt)
    data = path.read_bytes()
    separator = next(start for start, head_end, end in _checkpoint_records(data)
                     if end - head_end == 8)
    return path, data, separator


def test_every_flip_of_the_optimizer_step_is_refused(tmp_path):
    path, data, separator = _trained_checkpoint(tmp_path, steps=2)
    assert data[separator:separator + 10] == struct.pack("<HQ", 0, 2)
    for bit in range(64):
        at, flip = separator + 2 + bit // 8, 1 << bit % 8
        path.write_bytes(data[:at] + bytes([data[at] ^ flip]) + data[at + 1:])
        with pytest.raises(ModelError, match=f"at byte {separator}: expected "
                           "the end of the file or the optimizer block of "
                           "step 2$"):
            load_checkpoint(path)


def test_meta_step_that_differs_from_the_optimizer_step_is_refused(tmp_path):
    path, data, separator = _trained_checkpoint(tmp_path)
    assert data.count(b'"step": 1') == 1
    # '1' ^ 0x02 is '3': the meta line now names a step the block does not
    path.write_bytes(data.replace(b'"step": 1', b'"step": 3'))
    with pytest.raises(ModelError, match=f"at byte {separator}: .* of step 3$"):
        load_checkpoint(path)
    # without an optimizer block the step has nothing to agree with
    path.write_bytes(data[:separator].replace(b'"step": 1', b'"step": 3'))
    assert load_checkpoint(path)[0].step == 3


def test_bytes_after_the_optimizer_block_are_refused(tmp_path):
    path, data, _ = _trained_checkpoint(tmp_path)
    loaded, opt, _ = load_checkpoint(path)
    assert opt.step == loaded.step == 1
    for extra in (b"\0", b"\0" * 10, data[-8:]):
        path.write_bytes(data + extra)
        with pytest.raises(ModelError, match=f"at byte {len(data)}: "
                           f"{len(extra)} bytes after the optimizer block"):
            load_checkpoint(path)


def test_record_at_another_precision_than_the_config_is_refused(tmp_path):
    model = tiny_model(dtype="float32")
    model.params["ln_f"] = model.params["ln_f"].astype(np.float64)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    with pytest.raises(ModelError, match=r"expected the record 'ln_f' "
                       r"\(float32, dims \[8\]\), found 'ln_f'$"):
        load_checkpoint(path)


def test_save_refuses_an_optimizer_at_another_step_than_the_model(tmp_path):
    model = tiny_model(layers=1)
    opt = AdamState.for_model(model)
    backward_and_step(model, opt, _toy_batch(model),
                      TrainConfig(warmup_steps=1, macro_steps=1))
    path = tmp_path / "model.ckpt"
    with pytest.raises(ModelError, match="optimizer step 0 is not the "
                                         "model's step 1"):
        save_checkpoint(path, model, AdamState.for_model(model))
    assert not path.exists()


@pytest.mark.parametrize("old, new, match", [
    (b'{"adam"', b'{"adam\xff', r"metadata line at byte 8 is not JSON"),
    (b'"config"', b'"conFig"', "at byte 8 has a bad model config: config: "
                               "expected a JSON object, got None$"),
    (b'"rope_base"', b'"rope_bas%"', r"config\.rope_base: missing$"),
    # a string would be true to `if cfg.tie_embeddings`
    (b'"tie_embeddings": false', b'"tie_embeddings": "False"',
     r"config\.tie_embeddings: expected true or false, got 'False'$"),
    (b'"rope_base": 10000.0', b'"rope_base": "inf"',
     r"config\.rope_base: expected a number, got 'inf'$"),
    (b'"heads": 2', b'"heads": 0', "heads must be at least 1, got 0$"),
    # each ran a full training step to a NaN loss that named no key
    (b'"rope_base": 10000.0', b'"rope_base": 0',
     "rope_base must be finite and above 0, got 0$"),
    (b'"rms_eps": 1e-06', b'"rms_eps": -1',
     "rms_eps must be finite and above 0, got -1$"),
    *((b'"step": 0', b'"step": ' + step, r"at byte 8 has step .*, not an "
       r"integer in \[0, 2\*\*64\)")
      for step in (b"-1", b"18446744073709551616", b"1.0", b'"1"', b"true",
                   b"null")),
], ids=["utf8", "no-config", "config-key", "tie-string", "rope-string",
        "heads", "rope-zero", "rms-eps-negative", "step-negative",
        "step-2**64", "step-float", "step-string", "step-bool", "step-null"])
def test_corrupt_checkpoint_meta_line_is_refused(tmp_path, old, new, match):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))
    with pytest.raises(ModelError, match=match):
        load_checkpoint(path)


def test_checkpoint_vocab_hash_guard(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, vocab_hash="1111111111111111")
    with pytest.raises(ModelError, match="vocabulary"):
        load_checkpoint(path, expect_vocab_hash="2222222222222222")


def test_checkpoint_without_vocab_hash_is_refused_when_one_is_expected(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)  # no vocab_hash: the file records ""
    with pytest.raises(ModelError, match=r"vocabulary \(none\), expected 1111"):
        load_checkpoint(path, expect_vocab_hash="1111111111111111")
    load_checkpoint(path)  # nothing expected, nothing checked


def test_checkpoint_shape_mismatch_lists_tensors(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    # vocab_size 40 -> 48 in the JSON meta implies different embedding shapes
    path.write_bytes(raw.replace(b'"vocab_size": 40', b'"vocab_size": 48'))
    with pytest.raises(ModelError, match="tok_emb"):
        load_checkpoint(path)
