"""Test oracles: helpers that only the tests use, kept out of the library.

No pipeline stage parses grammar text back, decodes token ids, computes a
plain cross entropy, reads a metrics file or renders a serve prefix as one
string. The tests do, to check the pipeline's own output against an
independent reading of it:

- `parse` / `parse_prompt` are the field-level inverse of
  `grammar.serialize`: they check the grammar and return the serialized
  fields, the same value `story_signature` extracts from a story. The grammar
  stores only relative time fields (session elapsed hours, day of week,
  per-event hour), so absolute timestamps are not recovered;
- `detokenize` and `prefix_freedom_violations` read a vocabulary back;
- `rescan_tokenize` (with `encode_text`, `bpe_encode` and `byte_runs`) is
  `vocab.tokenize` as first written: it probes every distinct domain-form
  length at each '<|' and, after each merge, rescans the ids for the
  lowest-rank pair. The library closes each form at a '|>' and applies the
  merges once each in rank order. Both give the same ids and errors;
- `cross_entropy` is the loss without the fused backward of training;
- `batched_forward_backward` (with `_loss_and_dlogits`) is the training
  step with one backward over the whole batch at once, which
  `model.forward_backward`, one sequence per task, matches bitwise in the
  loss and within rounding in the gradients. It stacks the per-sequence
  `_forward` caches on a batch axis and runs its backward with the batched
  `_split_heads`, `_merge_heads`, `_matmul_bwd` and `_rmsnorm_bwd` defined
  here (the library's versions take one sequence), and with
  `_rope_backward`, the RoPE backward written out pair by pair, where the
  library rotates by -sin with the forward's `_rope_apply`;
- `listed_forward_backward` is `model.forward_backward` as first written on
  the task pool: it collects every row's NLL row and gradients, then sums
  the gradients in row order. The library folds each row in as it finishes;
  both add the same arrays in the same order, so they agree bit for bit;
- `padded_slot_forward` takes each sequence's slot row from its forward
  padded to the full context length, which slot mode's `Model.forward`,
  cut at each slot, matches within rounding;
- `read_metrics` reads `eval`'s metrics file;
- `position_prompt` is a `ModelScorer`'s prompt for one position and task
  alone; eval builds the prompts of every task at a watch together;
- `bm25_scan_scores` is `evaluate.BM25Index.scores` as first written: it
  walks every title once per query term. The library walks the postings of
  each query term, with the same float operations in the same order, so
  both give the same scores bit for bit;
- `extend_story_for_now` is serve's prompt prefix as one string;
- `rank_candidates` is the candidate ranking built entry by entry, which
  `prompts.rank_candidates` builds from whole arrays;
- `world_stories` is `datagen.generate_world`'s stories as first written:
  each user rebuilds the genre pools and carousel lists, a Zipf weight
  vector per watch, and draws with `Generator.choice` and `np.linspace`.
  The library builds those tables once per world and must consume every
  user's stream in the same order, so the stories are equal;
- `learn_merges` is `vocab._learn_merges` as first written: it recounts
  every pair of every segment on each merge, where the library counts each
  distinct segment once and recounts only the segments a merge touches.
  Both return the same merges.
"""
from __future__ import annotations

import json
import math

import numpy as np

from storyrank import grammar
from storyrank.datagen import GENRE_POOL, WorldConfig, WorldItem, _COUNTRIES, \
    _DEVICES, _PLANS, _rng, build_catalog
from storyrank.grammar import BEGIN_SESSIONS, SEARCH_MARKER, SESSION_MARKER, \
    WATCH_MARKER
from storyrank.evaluate import BM25_B, BM25_K1, bm25_terms
from storyrank.model import Model, ModelError, _as_batch, _check_ids, \
    _forward, _run_tasks, _sequence_forward_backward
from storyrank.prompts import RankedList, open_session
from storyrank.stories import AttributeHeader, CarouselRef, EMPTY_CAROUSEL, \
    Surface, UserStory, ValidationError, WatchEvent, search, \
    segment_sessions, watch
from storyrank.vocab import N_BYTES, TokenizeError, Vocabulary


# --- grammar parsing --------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, text: str, pos: int, expected: str):
        self.byte_offset = len(text[:pos].encode("utf-8"))
        self.expected = expected
        super().__init__(f"byte {self.byte_offset}: expected {expected}")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def fail(self, expected: str, pos: int | None = None):
        raise ParseError(self.text, self.pos if pos is None else pos, expected)

    def literal(self, lit: str, expected: str | None = None) -> None:
        if not self.text.startswith(lit, self.pos):
            self.fail(expected or repr(lit))
        self.pos += len(lit)

    def peek(self, lit: str) -> bool:
        return self.text.startswith(lit, self.pos)

    def integer(self, what: str, lo: int, hi: int) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(f"integer ({what})", start)
        value = int(self.text[start:self.pos])
        if not lo <= value <= hi:
            self.fail(f"{what} in {lo}..{hi}, got {value}", start)
        return value

    def until(self, stop: str, what: str) -> str:
        end = self.text.find(stop, self.pos)
        if end < 0:
            self.fail(f"{stop!r} closing {what}")
        chunk = self.text[self.pos:end]
        self.pos = end + len(stop)
        return chunk


def _parse_header(sc: _Scanner) -> list[tuple[str, str]]:
    idx = sc.text.find(BEGIN_SESSIONS)
    if idx < 0:
        sc.fail(f"{BEGIN_SESSIONS} marker")
    header = sc.text[:idx]
    sc.pos = idx + len(BEGIN_SESSIONS)
    pairs: list[tuple[str, str]] = []
    if header == "":
        return pairs
    if not header.endswith(" ") or header.endswith("  "):
        sc.fail("single space between header and session marker", max(0, idx - 1))
    chunks = header[:-1].split(" ")
    for ci, chunk in enumerate(chunks):
        if chunk == "":
            sc.fail("attribute pair, found empty chunk", 0)
        if "=" in chunk:
            key, _, value = chunk.partition("=")
            if not key:
                sc.fail("attribute key before '='", 0)
            pairs.append((key, value))
        else:
            if not pairs:
                sc.fail("key=value attribute pair", 0)
            # continuation of a value that contains spaces
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + " " + chunk)
    return pairs


# Parsed clauses take the shape `story_signature` gives them: a watch is
# ("watch", hour, surface, carousel_id, item_id, title, duration_minutes), a
# search ("search", hour, query); fields a prompt-mode partial watch stops
# before are None.

def _parse_watch(sc: _Scanner, partial_ok: bool) -> tuple:
    sc.literal(WATCH_MARKER + " hour=", "watch clause")
    hour = sc.integer("hour", 0, 23)
    if sc.eof() and partial_ok:
        return ("watch", hour, None, None, None, None, None)
    sc.literal(" <|surface=", "'<|surface=' after watch hour")
    surface_pos = sc.pos
    surface = sc.until("|>", "surface token")
    try:
        Surface(surface)
    except ValueError:
        sc.fail(f"unknown surface {surface!r}", surface_pos)
    if sc.eof() and partial_ok:
        return ("watch", hour, surface, None, None, None, None)
    sc.literal("<|carousel(", "'<|carousel(' after surface token")
    carousel_id = sc.until(")|>", "carousel token")
    if "(" in carousel_id:
        sc.fail("carousel id without '('")
    if (sc.eof() and partial_ok) or not sc.peek("<|id("):
        # itemless watch: the carousel-view grammar drops item and duration
        return ("watch", hour, surface, carousel_id, None, None, None)
    sc.literal("<|id(")
    item_pos = sc.pos
    item_id = sc.until("|", "item id")
    if ")" in item_id:
        sc.fail("item id without ')'", item_pos)
    title = sc.until(")|>", "item token")
    if sc.peek(" ") and sc.text[sc.pos + 1:sc.pos + 2].isdigit():
        sc.literal(" ")
        duration = sc.integer("duration", 0, 10**9)
        sc.literal("m", "'m' after watch duration")
        return ("watch", hour, surface, carousel_id, item_id, title, duration)
    if partial_ok:
        return ("watch", hour, surface, carousel_id, item_id, title, None)
    sc.fail("' {minutes}m' duration after item token")


def _parse_search(sc: _Scanner) -> tuple:
    sc.literal(SEARCH_MARKER + " hour=", "search clause")
    hour = sc.integer("hour", 0, 23)
    sc.literal(" ", "space before query text")
    nxt = sc.text.find("<|", sc.pos)
    if nxt < 0:
        query = sc.text[sc.pos:]
        sc.pos = len(sc.text)
    else:
        if nxt == sc.pos or sc.text[nxt - 1] != " ":
            sc.fail("space-separated query before next clause", nxt)
        query = sc.text[sc.pos:nxt - 1]
        sc.pos = nxt - 1
    if not query:
        sc.fail("non-empty query text")
    return ("search", hour, query)


def _scan(text: str, *, partial_ok: bool) -> tuple:
    sc = _Scanner(text)
    pairs = _parse_header(sc)
    sessions: list[tuple[tuple, list]] = []
    sessionless = False
    while not sc.eof():
        sc.literal(" ", "single space between clauses")
        if sc.peek(SESSION_MARKER):
            if sessionless:
                sc.fail("no session clause in a flat (sessionless) story")
            sc.literal(SESSION_MARKER + " elapsed=", "session clause")
            elapsed = sc.integer("elapsed hours", 0, 10**9)
            sc.literal("h day=", "'h day=' in session clause")
            dow = sc.integer("day of week", 0, 6)
            sessions.append(((elapsed, dow), []))
        elif sc.peek(WATCH_MARKER) or sc.peek(SEARCH_MARKER):
            if not sessions:
                sessionless = True
                sessions.append(((None, None), []))
            if sc.peek(WATCH_MARKER):
                sessions[-1][1].append(_parse_watch(sc, partial_ok))
            else:
                sessions[-1][1].append(_parse_search(sc))
        else:
            sc.fail("session, watch, or search clause")
    return (tuple(pairs), sessionless,
            *((clause, tuple(events)) for clause, events in sessions))


def parse(text: str, catalog=None) -> tuple:
    """Parse grammar text back into its serialized fields.

    Returns the value `story_signature` gives for the story the text came
    from. The first grammar violation raises ParseError with a byte offset
    and a description of what was expected. When `catalog` (a
    vocab.CatalogIndex) is given, embedded item titles are checked against
    it; items absent from the catalog are tolerated as-is.
    """
    fields = _scan(text, partial_ok=False)
    if catalog is not None:
        titles = {item.item_id: item.title for item in catalog.items}
        for _, events in fields[2:]:
            for event in events:
                if event[0] != "watch":
                    continue
                item_id, title = event[4:6]
                expected = titles.get(item_id)
                if expected is not None and expected != title:
                    raise ValidationError(
                        f"title mismatch for item {item_id!r}: "
                        f"story has {title!r}, catalog has {expected!r}")
    return fields


def parse_prompt(text: str) -> tuple:
    """Parse prompt-mode text: a trailing partial watch head and a missing
    duration are accepted. Returns the fields as `parse` does."""
    return _scan(text, partial_ok=True)


def story_signature(story: UserStory):
    """The serialized-field content of a story: what a grammar round trip preserves."""
    sig = [tuple(story.attributes.pairs), story.sessionless]
    for sess in story.sessions:
        events = []
        for e in sess.events:
            if isinstance(e, WatchEvent):
                events.append(("watch", e.hour, e.surface.value,
                               e.carousel.carousel_id,
                               None if e.item is None else e.item.item_id,
                               None if e.item is None else e.item.title,
                               e.duration_minutes))
            else:
                events.append(("search", e.hour, e.query))
        clause = (None, None) if story.sessionless \
            else (sess.elapsed_hours, sess.day_of_week)
        sig.append((clause, tuple(events)))
    return tuple(sig)


# --- vocabulary ---------------------------------------------------------------

def detokenize(token_ids, vocabulary: Vocabulary) -> str:
    parts = []
    for tid in token_ids:
        if not 0 <= tid < vocabulary.size:
            raise TokenizeError(f"token id {tid} out of range 0..{vocabulary.size - 1}")
        parts.append(vocabulary.forms[tid])
    return b"".join(parts).decode("utf-8")


def prefix_freedom_violations(vocabulary: Vocabulary) -> list[tuple[str, str]]:
    """Domain-form pairs where one is a prefix of the other once the closing
    '|>' delimiter is ignored. Structurally this list is empty; asserted in tests."""
    stripped = sorted((form.decode("utf-8")[:-2], form.decode("utf-8"))
                      for form in vocabulary.domain_to_id)
    bad = []
    for i in range(len(stripped) - 1):
        a, b = stripped[i], stripped[i + 1]
        if b[0].startswith(a[0]) and a[0] != b[0]:
            bad.append((a[1], b[1]))
    return bad


def encode_text(data: bytes, domain: dict, lengths: tuple, ranks: dict) -> list[int]:
    """Tokenize UTF-8 bytes: longest-match domain tokens anchored on '<|',
    byte/merge encoding for everything in between.

    domain maps surface-form bytes -> token id; lengths is the descending
    tuple of distinct surface-form lengths. Raises TokenizeError on a '<|...'
    span that matches no domain token.
    """
    out: list[int] = []
    pos = 0
    n = len(data)
    while pos < n:
        anchor = data.find(b"<|", pos)
        if anchor < 0:
            anchor = n
        if anchor > pos:
            out.extend(bpe_encode(list(data[pos:anchor]), ranks))
            pos = anchor
        if pos >= n:
            break
        matched = -1
        for length in lengths:
            if pos + length > n:
                continue
            tid = domain.get(data[pos:pos + length])
            if tid is not None:
                matched = length
                out.append(tid)
                break
        if matched < 0:
            close = data.find(b"|>", pos + 2)
            span = data[pos:close + 2 if close >= 0 else min(n, pos + 40)]
            raise TokenizeError(
                f"unknown domain token span {span.decode('utf-8', 'replace')!r} "
                f"at byte {pos}")
        pos += matched
    return out


def bpe_encode(ids: list[int], ranks: dict) -> list[int]:
    """Apply learned merges to a byte-id sequence.

    ranks maps (left_id, right_id) -> (rank, merged_id); the lowest rank is
    merged first, all occurrences left to right, until no pair applies.
    """
    if not ranks or len(ids) < 2:
        return ids
    while True:
        best_rank = -1
        best_new = -1
        best_a = best_b = -1
        for i in range(len(ids) - 1):
            entry = ranks.get((ids[i], ids[i + 1]))
            if entry is not None and (best_rank < 0 or entry[0] < best_rank):
                best_rank, best_new = entry
                best_a, best_b = ids[i], ids[i + 1]
        if best_rank < 0:
            return ids
        out = []
        i = 0
        n = len(ids)
        while i < n:
            if i + 1 < n and ids[i] == best_a and ids[i + 1] == best_b:
                out.append(best_new)
                i += 2
            else:
                out.append(ids[i])
                i += 1
        ids = out


def byte_runs(text: str, domain_forms) -> list[bytes]:
    """Byte spans of `text` between domain tokens (merge-learning input): the
    merge-free encoding with every domain form mapped to id N_BYTES, split at
    those ids."""
    domain = dict.fromkeys(domain_forms, N_BYTES)
    lengths = tuple(sorted({len(f) for f in domain}, reverse=True))
    runs: list[bytes] = []
    run: list[int] = []
    for tid in encode_text(text.encode("utf-8"), domain, lengths, {}):
        if tid < N_BYTES:
            run.append(tid)
        elif run:
            runs.append(bytes(run))
            run = []
    if run:
        runs.append(bytes(run))
    return runs


def rescan_tokenize(text: str, vocabulary: Vocabulary) -> list[int]:
    """`vocab.tokenize` as first written: `encode_text` with the lookups
    `Vocabulary` once kept, the distinct domain-form lengths and the merge
    ranks."""
    lengths = tuple(sorted({len(f) for f in vocabulary.domain_to_id}, reverse=True))
    ranks = {pair: (rank, N_BYTES + rank)
             for rank, pair in enumerate(vocabulary.merge_pairs)}
    return encode_text(text.encode("utf-8"), vocabulary.domain_to_id, lengths, ranks)


# --- model --------------------------------------------------------------------

def cross_entropy(logits, targets, weights=None):
    """Mean next-token cross entropy. logits (..., V), integer targets
    broadcastable to logits[..., 0]; optional 0/1 weights exclude padding."""
    lg = np.asarray(logits)
    v = lg.shape[-1]
    flat = lg.reshape(-1, v)
    tg = np.asarray(targets, dtype=np.int64).reshape(-1)
    if flat.shape[0] != tg.shape[0]:
        raise ModelError(f"logits rows {flat.shape[0]} != targets {tg.shape[0]}")
    if tg.min() < 0 or tg.max() >= v:
        raise ModelError("target id outside vocabulary")
    w = np.ones(tg.shape[0], dtype=flat.dtype) if weights is None \
        else np.asarray(weights, dtype=flat.dtype).reshape(-1)
    m = flat.max(axis=-1, keepdims=True)
    lse = (m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1)))
    nll = lse - flat[np.arange(tg.shape[0]), tg]
    total = w.sum()
    if total <= 0:
        raise ModelError("all-zero loss weights")
    return float((nll * w).sum() / total)


def padded_slot_forward(model, ids, slots):
    """Logits (B, V) at one slot per sequence of the (B, T) ids, with every
    sequence right-padded to the context length and run over all its rows,
    none skipped for lying past the slot."""
    padded = np.zeros((len(ids), model.config.context_length), dtype=np.int64)
    padded[:, :np.shape(ids)[1]] = ids
    return np.stack([_forward(model, row, need_cache=False)[0][slot]
                     for row, slot in zip(padded, slots)])


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _matmul_bwd(x, w, dy):
    """y = x @ w with x (B, T, D), w (D, E), dy (B, T, E): returns dx
    (B, T, D) and dw (D, E), contracted over B and T."""
    dw = np.tensordot(x, dy, axes=([0, 1], [0, 1]))
    dx = dy @ w.T
    return dx, dw


def _rope_backward(dy, cos, sin):
    de_r, do_r = dy[..., 0::2], dy[..., 1::2]
    out = np.empty_like(dy)
    out[..., 0::2] = de_r * cos + do_r * sin
    out[..., 1::2] = -de_r * sin + do_r * cos
    return out


def _rmsnorm_bwd(dy, x, inv, gain):
    xhat = x * inv
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    dx = inv * (dxhat - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
    return dx, dgain


def _batched_forward(model: Model, ids):
    """Logits (B, T, V) and the per-sequence `_forward` caches stacked on a
    leading batch axis; the RoPE tables and the mask are shared. The
    activations that `_forward` does not keep (the normalized rows a and
    bnorm, the gate sig and the gated product h) are rebuilt with the
    forward's expressions, so they have its bits."""
    runs = [_forward(model, row, need_cache=True) for row in ids]
    caches = [cache for _, cache in runs]
    cache = {name: np.stack([c[name] for c in caches])
             for name in ("ids", "x_final", "final", "inv_f")}
    cache["layers"] = [{name: np.stack([c["layers"][i][name] for c in caches])
                        for name in layer}
                       for i, layer in enumerate(caches[0]["layers"])]
    p = model.params
    for i, lc in enumerate(cache["layers"]):
        lc["a"] = lc["x_in"] * lc["inv1"] * p[f"layers.{i}.ln1"]
        lc["bnorm"] = lc["x_mid"] * lc["inv2"] * p[f"layers.{i}.ln2"]
        lc["sig"] = 1.0 / (1.0 + np.exp(-lc["zg"]))
        lc["h"] = lc["zg"] * lc["sig"] * lc["zu"]
    cache.update({name: caches[0][name] for name in ("cos", "sin", "future")})
    return np.stack([logits for logits, _ in runs]), cache


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


def batched_forward_backward(model: Model, inputs, targets, weights=None):
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
    logits, cache = _batched_forward(model, ids)
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


def listed_forward_backward(model: Model, inputs, targets, weights=None):
    """`model.forward_backward` with every row's (NLL row, gradients) held
    in a list until the last row finishes, then summed in row order."""
    cfg = model.config
    ids, _ = _as_batch(inputs)
    _check_ids(ids, cfg)
    tg = np.asarray(targets, dtype=np.int64)
    w = np.ones(ids.shape, dtype=cfg.np_dtype) if weights is None \
        else np.asarray(weights).astype(cfg.np_dtype)
    safe_tg = np.where(w > 0, tg, 0)
    total = w.reshape(-1).sum()
    results = []
    _run_tasks(_sequence_forward_backward,
               [(model, ids[r], safe_tg[r], w[r], total)
                for r in range(ids.shape[0])], results.append)
    loss = float(np.concatenate([nll for nll, _ in results]).sum() / total)
    grads = results[0][1]
    for _, more in results[1:]:
        for name, g in grads.items():
            g += more[name]
    return loss, grads

# --- evaluation ---------------------------------------------------------------

def read_metrics(path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            if "_manifest" not in d:
                rows.append(d)
    return rows


def position_prompt(scorer, pos, kind, vocabulary):
    """A `ModelScorer`'s served prompt for one position and task alone."""
    return scorer.prompts(pos.prefix_story, [(kind, pos.context)],
                          vocabulary)[0]


def bm25_scan_scores(items, query: str) -> dict[str, float]:
    """{item_id: BM25 score} of every title, 0.0 where it holds no query
    term, each title scanned once per query term."""
    items = sorted(items, key=lambda i: i.item_id)
    doc_terms, doc_len, df = [], [], {}
    for item in items:
        terms = bm25_terms(item.title)
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for t in counts:
            df[t] = df.get(t, 0) + 1
        doc_terms.append(counts)
        doc_len.append(len(terms))
    avg_len = sum(doc_len) / len(doc_len)
    n = len(items)
    out = [0.0] * n
    for term in bm25_terms(query):
        d_f = df.get(term)
        if not d_f:
            continue
        idf = math.log((n - d_f + 0.5) / (d_f + 0.5) + 1.0)
        for i in range(n):
            tf = doc_terms[i].get(term, 0)
            if tf == 0:
                continue
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len[i] / avg_len)
            out[i] += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
    return {item.item_id: score for item, score in zip(items, out)}


# --- prompts ------------------------------------------------------------------

def extend_story_for_now(story: UserStory, now: int) -> str:
    """The serve prompt's prefix text: the story with the session at `now`
    open at its end, serialized."""
    return grammar.serialize(open_session(story, now), validate=False)


def rank_candidates(row: np.ndarray, candidates) -> RankedList:
    """The ranked entries of one logit row, converted one element at a
    time."""
    cands = np.asarray(candidates)
    logits = row[cands]
    order = np.lexsort((cands, -logits))
    return RankedList(tuple((int(cands[i]), float(logits[i])) for i in order))


# --- world generation and merge learning --------------------------------------

def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), exponent)
    return w / w.sum()


def _query_prefixes(title: str, n_queries: int,
                    rng: np.random.Generator) -> list[str]:
    """Search-as-you-type states: strictly lengthening prefixes of the
    lowercased title. The last state usually completes the first word, which
    gives lexical baselines a term to match."""
    lowered = title.lower()
    first_word_end = lowered.find(" ")
    if first_word_end < 0:
        first_word_end = len(lowered)
    if rng.random() < 0.6 or len(lowered) <= 4:
        final = first_word_end
    else:
        final = int(rng.integers(4, min(len(lowered), 12) + 1))
    lengths = sorted({max(3, int(round(x)))
                      for x in np.linspace(3, final, n_queries)})
    out = []
    for length in lengths:
        q = lowered[:length].rstrip()
        if q and (not out or q != out[-1]):
            out.append(q)
    return out


def _generate_user(cfg: WorldConfig, user_index: int, items: list[WorldItem],
                   carousels: list[str]) -> UserStory:
    rng = _rng(cfg.rng_seed, 1_000_003 + user_index)
    genres = GENRE_POOL[:cfg.n_genres]
    by_genre = {g: [it for it in items if it.genre == g] for g in genres}
    prefs = rng.dirichlet(np.full(cfg.n_genres, cfg.genre_sharpness))
    genre_carousels = {g: [c for c in carousels if c.startswith(g + "_")]
                       for g in genres}
    global_carousels = [c for c in carousels
                        if not any(c.startswith(g + "_") for g in genres)]

    attributes = AttributeHeader((
        ("country", _COUNTRIES[int(rng.integers(len(_COUNTRIES)))]),
        ("device", _DEVICES[int(rng.integers(len(_DEVICES)))]),
        ("plan", _PLANS[int(rng.integers(len(_PLANS)))]),
    ))

    n_sessions = max(1, int(rng.poisson(cfg.mean_sessions_per_user)))
    mean_watches = max(0.05, cfg.mean_watches_per_session - 1.0)
    events = []
    watched: list[WorldItem] = []
    activity_end = cfg.epoch + int(rng.integers(0, 7 * 86400))
    for _ in range(n_sessions):
        t = activity_end + 3660 + int(rng.exponential(
            cfg.mean_session_gap_hours * 3600))
        n_watches = 1 + int(rng.poisson(mean_watches))
        for _ in range(n_watches):
            if watched and rng.random() < cfg.rewatch_prob:
                item = watched[int(rng.integers(len(watched)))]
            else:
                genre = genres[int(rng.choice(cfg.n_genres, p=prefs))]
                pool = by_genre[genre] or items
                weights = _zipf_weights(len(pool), cfg.zipf_exponent)
                item = pool[int(rng.choice(len(pool), p=weights))]
            duration = int(rng.integers(5, 111))
            if rng.random() < cfg.search_before_watch_prob:
                n_q = int(rng.integers(1, cfg.keystroke_prefix_depth + 1))
                for q in _query_prefixes(item.ref.title, n_q, rng):
                    events.append(search(t, q))
                    t += int(rng.integers(2, 15))
                events.append(watch(t, Surface.SEARCH, EMPTY_CAROUSEL,
                                    item.ref, duration))
            else:
                surface = (Surface.HOME, Surface.BROWSE, Surface.AUTOPLAY)[
                    int(rng.choice(3, p=[0.6, 0.25, 0.15]))]
                if surface == Surface.AUTOPLAY:
                    carousel = EMPTY_CAROUSEL
                else:
                    genre_rows = genre_carousels.get(item.genre) or global_carousels
                    rows = genre_rows if rng.random() < 0.7 and genre_rows \
                        else global_carousels
                    carousel = CarouselRef(rows[int(rng.integers(len(rows)))]) \
                        if rows else EMPTY_CAROUSEL
                events.append(watch(t, surface, carousel, item.ref, duration))
            watched.append(item)
            activity_end = max(activity_end, events[-1].end_time)
            t = events[-1].timestamp + int(rng.integers(60, 2700))
    return UserStory(user_id=f"u{user_index:06d}", attributes=attributes,
                     sessions=segment_sessions(events))


def world_stories(cfg: WorldConfig) -> list[UserStory]:
    """generate_world's stories, one `_generate_user` per user."""
    items, carousels = build_catalog(cfg)
    return [_generate_user(cfg, i, items, carousels)
            for i in range(cfg.n_users)]


def learn_merges(segments: list[bytes], n_merges: int,
                 existing_forms: set[bytes]) -> tuple[list[tuple[int, int]], list[bytes]]:
    """Greedy pair-merge learning over byte segments; returns (pairs, expansions)."""
    seqs = [list(seg) for seg in segments if len(seg) >= 2]
    expansion: list[bytes] = [bytes([i]) for i in range(N_BYTES)]
    pairs: list[tuple[int, int]] = []
    taken = set(existing_forms)
    for _ in range(n_merges):
        counts: dict[tuple[int, int], int] = {}
        for seq in seqs:
            for i in range(len(seq) - 1):
                p = (seq[i], seq[i + 1])
                counts[p] = counts.get(p, 0) + 1
        best = None
        for p, c in sorted(counts.items()):
            if c < 2:
                continue
            merged = expansion[p[0]] + expansion[p[1]]
            if merged in taken:
                continue
            if best is None or c > best[1]:
                best = (p, c)
        if best is None:
            break
        pair = best[0]
        new_id = N_BYTES + len(pairs)
        merged_form = expansion[pair[0]] + expansion[pair[1]]
        pairs.append(pair)
        expansion.append(merged_form)
        taken.add(merged_form)
        for si, seq in enumerate(seqs):
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
                    out.append(new_id)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seqs[si] = out
    return pairs, expansion[N_BYTES:]
