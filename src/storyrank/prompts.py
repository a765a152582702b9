"""Task prompts over a live story and single-pass candidate ranking.

The three serving tasks share one model and one story prefix; only the
appended head differs:

  item (masked)    <|watch|> hour=H <|surface=home|><|carousel(MASK)|>
  item (contextual)<|watch|> hour=H <|surface=S|><|carousel(C)|>
  carousel         <|watch|> hour=H <|surface=S|>
  search           <|search|> hour=H QUERY <|watch|> hour=H <|surface=search|><|carousel()|>

A prompt keeps the newest whole sessions of the story that fit the model
context, never splitting an event. The prefix is rendered in pieces (the
lead, one text per session, and a tail that opens a new session when the
viewer is no longer active), each tokenized once; sessions are kept newest
first while the sum of their token counts fits beside the lead, tail and
head. Tokenizing the pieces apart gives the ids of the joined text (see
GRAMMAR.md, "Concatenation"). When not even the newest session fits, the
story is rendered again with no sessions, since its tail then differs.

The next-token logits at the head's final position score every candidate
token at once; ranking never decodes and never runs a second pass, and the
model computes its last layer and output head for that position alone.
Offline evaluation builds and ranks its model prompts with these same
functions.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from . import grammar
from .stories import SESSION_GAP_SECONDS, SESSION_SPAN_SECONDS, Surface, \
    UserStory, _check_carousel_id, _check_query, day_of_week, hour_of_day, \
    validate_story
from .vocab import Vocabulary, tokenize


class PromptError(ValueError):
    pass


class TaskKind(str, Enum):
    ITEM_MASKED = "item_masked"
    ITEM_CONTEXTUAL = "item_contextual"
    CAROUSEL = "carousel"
    SEARCH = "search"


ITEM_KINDS = (TaskKind.ITEM_MASKED, TaskKind.ITEM_CONTEXTUAL, TaskKind.SEARCH)


@dataclass(frozen=True)
class TaskPrompt:
    token_ids: tuple[int, ...]
    target_slot: int  # position whose output logits score the next token
    candidate_set: tuple[int, ...]
    kind: TaskKind


@dataclass(frozen=True)
class RankedList:
    """Candidates in descending logit order; exact ties break by ascending
    token id, so the ordering is total and deterministic."""
    entries: tuple[tuple[int, float], ...]

    def top(self, k: int) -> tuple[tuple[int, float], ...]:
        return self.entries[:k]

    def rank_of(self, token_id: int) -> int | None:
        for pos, (tid, _) in enumerate(self.entries, 1):
            if tid == token_id:
                return pos
        return None


def session_tail(story: UserStory, now: int) -> str:
    """The clause that opens the prompt position at time `now`: "" when the
    viewer is still active in the last session (within one hour of the last
    activity and under the 12h span) or the story is sessionless, otherwise a
    fresh session clause computed from `now`."""
    events = list(story.events())
    if events and now < events[-1].timestamp:
        raise PromptError(f"now={now} is before the last story event "
                          f"({events[-1].timestamp})")
    if story.sessionless:
        return ""
    if not story.sessions:
        return grammar.session_clause(0, day_of_week(now))
    last = story.sessions[-1]
    gap = now - last.end_time
    span = now - last.start_time
    if gap <= SESSION_GAP_SECONDS and span <= SESSION_SPAN_SECONDS:
        return ""
    elapsed = max(0, gap // SESSION_GAP_SECONDS)
    return grammar.session_clause(elapsed, day_of_week(now))


def _checked_text(field: str, value, check) -> str:
    """`value` if it is a string that passes the stored-story rule `check`."""
    msg = check(value) if isinstance(value, str) else "must be a string"
    if msg is not None:
        raise PromptError(f"context {field}: {msg}")
    return value


def head_text(kind: TaskKind, context: dict) -> str:
    """The task head appended after the story prefix. `context` carries hour
    plus the kind's required fields (query; surface/carousel), each held to
    the same rules as the stored story field it stands in for."""
    try:
        hour = context["hour"]
    except KeyError:
        raise PromptError("context requires 'hour'") from None
    if type(hour) is not int or not 0 <= hour <= 23:
        raise PromptError(f"context hour must be an integer in 0..23, "
                          f"got {hour!r}")
    if kind == TaskKind.ITEM_MASKED:
        return f"<|watch|> hour={hour} <|surface=home|><|carousel(MASK)|>"
    if kind == TaskKind.ITEM_CONTEXTUAL:
        missing = [k for k in ("surface", "carousel") if k not in context]
        if missing:
            raise PromptError(f"item_contextual context requires {missing}")
        surface = Surface(context["surface"])
        carousel = _checked_text("carousel", context["carousel"],
                                 _check_carousel_id)
        if surface == Surface.SEARCH and carousel:
            raise PromptError("context carousel must be empty on the search "
                              f"surface, got {carousel!r}")
        return (f"<|watch|> hour={hour} "
                f"<|surface={surface.value}|><|carousel({carousel})|>")
    if kind == TaskKind.CAROUSEL:
        surface = Surface(context.get("surface", "home"))
        if surface == Surface.SEARCH:
            raise PromptError("no carousel to rank on the search surface: it "
                              "shows only the empty carousel")
        return f"<|watch|> hour={hour} <|surface={surface.value}|>"
    if kind == TaskKind.SEARCH:
        if "query" not in context:
            raise PromptError("search context requires a 'query'")
        query = _checked_text("query", context["query"], _check_query)
        return (f"<|search|> hour={hour} {query} "
                f"<|watch|> hour={hour} <|surface=search|><|carousel()|>")
    raise PromptError(f"unknown task kind {kind!r}")


def candidate_set(kind: TaskKind, vocabulary: Vocabulary) -> tuple[int, ...]:
    cands = vocabulary.item_token_ids if kind in ITEM_KINDS \
        else vocabulary.carousel_token_ids
    if not cands:
        raise PromptError(f"vocabulary has no candidates for task {kind.value}")
    return cands


Render = Callable[[UserStory], tuple[str, tuple[str, ...], str]]


def trim_story_to_context(story: UserStory, render: Render, kind: TaskKind,
                          context: dict, vocabulary: Vocabulary,
                          context_length: int) -> TaskPrompt:
    """Build a prompt that fits the model context from the newest whole
    sessions (never splitting an event). `render(story)` gives the prefix in
    pieces, `(lead, session_texts, tail)`, whose single-space join is the
    text the task head is appended to. Each piece is tokenized once and the
    sessions are kept newest first while their token counts fit."""
    head = head_text(kind, context)

    def ends(lead: str, tail: str) -> tuple[list[int], list[int]]:
        return (tokenize(lead + " ", vocabulary),
                tokenize(f"{tail} {head}" if tail else head, vocabulary))

    lead, texts, tail = render(story)
    lead_ids, end_ids = ends(lead, tail)
    budget = context_length - len(lead_ids) - len(end_ids)
    kept: list[list[int]] = []
    for text in reversed(texts):
        ids = tokenize(text + " ", vocabulary) if text else []
        if len(ids) > budget:
            break
        kept.append(ids)
        budget -= len(ids)
    if texts and not kept:
        # with no session left the tail differs (a session clause at elapsed 0)
        lead, _, tail = render(replace(story, sessions=()))
        lead_ids, end_ids = ends(lead, tail)
        budget = context_length - len(lead_ids) - len(end_ids)
    if budget < 0:
        raise PromptError(
            f"prompt head alone exceeds context length {context_length}")
    ids = lead_ids + [t for piece in reversed(kept) for t in piece] + end_ids
    return TaskPrompt(token_ids=tuple(ids), target_slot=len(ids) - 1,
                      candidate_set=candidate_set(kind, vocabulary), kind=kind)


def make_prompt(story: UserStory, now: int, kind: TaskKind, context: dict,
                vocabulary: Vocabulary, context_length: int) -> TaskPrompt:
    """Serve's prompt for a request story at time `now`. The story is held to
    the stored-story rules first (item-less watches allowed), while it is
    still whole: a trimmed story's first session no longer starts at
    elapsed=0."""
    violations = validate_story(story, itemless_ok=True)
    if violations:
        raise PromptError("invalid story: "
                          + "; ".join(str(v) for v in violations[:3]))
    ctx = dict(context)
    ctx.setdefault("hour", hour_of_day(now))
    return trim_story_to_context(
        story, lambda s: (*grammar.serialize_parts(s), session_tail(s, now)),
        kind, ctx, vocabulary, context_length)


def rank_candidates(row: np.ndarray, candidates) -> RankedList:
    """Order candidate token ids by their value in one logit (or score) row;
    every ranking, served or evaluated, goes through this tie-break."""
    cands = np.asarray(candidates)
    logits = row[cands]
    order = np.lexsort((cands, -logits))
    return RankedList(tuple(zip(cands[order].tolist(), logits[order].tolist())))


def rank(prompt: TaskPrompt, model) -> RankedList:
    """Score all candidates from exactly one forward pass."""
    return rank_batch([prompt], model)[0]


def rank_batch(prompts: list[TaskPrompt], model) -> list[RankedList]:
    """Rank many prompts in one forward pass from the logits at each
    prompt's target slot only. The ids are right-padded to the context
    length; the model runs each prompt as its own task, on a pool of one
    thread per usable core with OpenBLAS pinned to one thread, over the
    64-row tiles up to its slot, and skips the rest. A prompt's ranking is
    the same bit for bit whatever else is in the batch. The candidates are
    ranked here, serially, after the forward."""
    if not prompts:
        return []
    if max(max(p.candidate_set) for p in prompts) >= model.config.vocab_size:
        raise PromptError("candidate token outside the model vocabulary: "
                          "the model and vocabulary do not match")
    ctx = model.config.context_length
    ids = np.zeros((len(prompts), ctx), dtype=np.int64)
    for r, prompt in enumerate(prompts):
        if len(prompt.token_ids) > ctx:
            raise PromptError(f"prompt of {len(prompt.token_ids)} tokens "
                              f"exceeds context length {ctx}")
        ids[r, :len(prompt.token_ids)] = prompt.token_ids
    logits = model.forward(ids, [p.target_slot for p in prompts])
    return [rank_candidates(row, p.candidate_set)
            for row, p in zip(logits, prompts)]
