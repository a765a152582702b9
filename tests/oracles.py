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
- `cross_entropy` is the loss without the fused backward of training;
- `padded_slot_forward` is the slot-mode forward over every sequence padded
  to the full context length, which the tiled `Model.forward` matches
  within rounding;
- `read_metrics` reads `eval`'s metrics file;
- `extend_story_for_now` is serve's prompt prefix as one string;
- `rank_candidates` is the candidate ranking built entry by entry, which
  `prompts.rank_candidates` builds from whole arrays.
"""
from __future__ import annotations

import json

import numpy as np

from storyrank import grammar
from storyrank.grammar import BEGIN_SESSIONS, SEARCH_MARKER, SESSION_MARKER, \
    WATCH_MARKER
from storyrank.model import ModelError, _forward
from storyrank.prompts import RankedList, session_tail
from storyrank.stories import Surface, UserStory, ValidationError, WatchEvent
from storyrank.vocab import TokenizeError, Vocabulary


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
    sequence right-padded to the context length and run over all its rows:
    the last layer and head at the slot row alone, but no row skipped for
    lying past the slot's tile."""
    padded = np.zeros((len(ids), model.config.context_length), dtype=np.int64)
    padded[:, :np.shape(ids)[1]] = ids
    logits, _ = _forward(model, padded, need_cache=False,
                         slots=np.asarray(slots))
    return logits[:, 0]


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


# --- prompts ------------------------------------------------------------------

def extend_story_for_now(story: UserStory, now: int) -> str:
    """The serve prompt's prefix text: the serialized story, then the
    `session_tail` for `now` when there is one."""
    tail = session_tail(story, now)
    text = grammar.serialize(story, validate=False)
    return f"{text} {tail}" if tail else text


def rank_candidates(row: np.ndarray, candidates) -> RankedList:
    """The ranked entries of one logit row, converted one element at a
    time."""
    cands = np.asarray(candidates)
    logits = row[cands]
    order = np.lexsort((cands, -logits))
    return RankedList(tuple((int(cands[i]), float(logits[i])) for i in order))
