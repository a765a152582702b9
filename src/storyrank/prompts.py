"""Task prompts over a live story and single-pass candidate ranking.

The three serving tasks share one model and one story prefix; only the
appended head differs:

  item (masked)    <|watch|> hour=H <|surface=home|><|carousel(MASK)|>
  item (contextual)<|watch|> hour=H <|surface=S|><|carousel(C)|>
  carousel         <|watch|> hour=H <|surface=S|>
  search           <|search|> hour=H QUERY <|watch|> hour=H <|surface=search|><|carousel()|>

A prompt is trimmed from a story that ends in the session of the position
being ranked: eval's prefix story already does, and serve opens a new empty
session at the request time when the viewer is no longer active. It keeps
the newest whole sessions that fit the model context, never splitting an
event. The story is rendered in pieces (the lead and one text per session),
each tokenized once; sessions are kept newest first while the sum of their
token counts fits beside the lead and head, and when not even the newest
fits the prompt is the lead and the head alone. Tokenizing the pieces apart
gives the ids of the joined text (see GRAMMAR.md, "Concatenation").

The next-token logits at the head's final position score every candidate
token at once; ranking never decodes and never runs a second pass, and the
model computes its last layer and output head for that position alone.
A task ranks exactly the tokens `target_token` can name for it. Offline
evaluation builds and ranks its model prompts with these same functions,
and takes its targets from `target_token`.

Eval trims the heads of every task it scores at one watch in one call, and
those prompts record the length of their story ids (`story_len`); the
model then runs each distinct story once for all of them (the split rows of
`Model.forward`). Serve's prompts, and eval's at a watch scored for one
task, keep `story_len` 0, an empty story, so their head pass is the whole
prompt. So eval equals serve bit for bit at a watch it scores for one
task, and within float rounding at a watch it scores for several.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import grammar
from .stories import Surface, UserStory, WatchEvent, _check_carousel_id, \
    _check_query, _session_at, check_story, continues_session, hour_of_day
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
    token_ids: tuple[int, ...]  # the last one's logits rank the candidates
    candidate_set: tuple[int, ...]
    kind: TaskKind
    # 0, or the length of the story ids before the head, which the model
    # runs once for every prompt of a batch with those story ids
    story_len: int = 0


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


def open_session(story: UserStory, now: int) -> UserStory:
    """The story with the session of a position at time `now` open at its
    end: unchanged when the viewer is still active in the last session
    (`stories.continues_session`) or the story is sessionless, otherwise
    with a new empty session computed from `now` appended."""
    events = list(story.events())
    if events and now < events[-1].timestamp:
        raise PromptError(f"now={now} is before the last story event "
                          f"({events[-1].timestamp})")
    last = story.sessions[-1] if story.sessions else None
    if story.sessionless or last is not None and continues_session(
            last.start_time, last.end_time, now):
        return story
    return replace(story, sessions=story.sessions + (_session_at(story.sessions, now),))


def head_text(kind: TaskKind, context: dict) -> str:
    """The task head appended after the story prefix. `context` carries hour
    plus the kind's required fields (query; surface/carousel), each held to
    the same rules as the stored story field it stands in for. Their JSON
    types are checked where a request is decoded (`serve`)."""
    hour = context["hour"]
    if not 0 <= hour <= 23:
        raise PromptError(f"context hour must be in 0..23, got {hour!r}")
    if kind == TaskKind.ITEM_MASKED:
        return grammar.watch_clause(hour, Surface.HOME, grammar.MASK_CAROUSEL)
    if kind == TaskKind.ITEM_CONTEXTUAL:
        missing = [k for k in ("surface", "carousel") if k not in context]
        if missing:
            raise PromptError(f"item_contextual context requires {missing}")
        surface, carousel = Surface(context["surface"]), context["carousel"]
        if (msg := _check_carousel_id(carousel)) is not None:
            raise PromptError(f"context carousel: {msg}")
        if surface == Surface.SEARCH and carousel:
            raise PromptError("context carousel must be empty on the search "
                              f"surface, got {carousel!r}")
        return grammar.watch_clause(hour, surface, carousel)
    if kind == TaskKind.CAROUSEL:
        surface = Surface(context.get("surface", "home"))
        if surface == Surface.SEARCH:
            raise PromptError("no carousel to rank on the search surface: it "
                              "shows only the empty carousel")
        return grammar.watch_clause(hour, surface)
    if kind == TaskKind.SEARCH:
        if "query" not in context:
            raise PromptError("search context requires a 'query'")
        query = context["query"]
        if (msg := _check_query(query)) is not None:
            raise PromptError(f"context query: {msg}")
        return (grammar.search_clause(hour, query) + " "
                + grammar.watch_clause(hour, Surface.SEARCH, ""))
    raise PromptError(f"unknown task kind {kind!r}")


def target_token(kind: TaskKind, event, vocabulary: Vocabulary) -> int | None:
    """The token a task is scored against at `event`: the watched item's for
    the item and search tasks, the carousel's (never the empty one) for the
    carousel task; None otherwise or when the vocabulary lacks it."""
    if not isinstance(event, WatchEvent) or event.item is None:
        return None
    if kind in ITEM_KINDS:
        return vocabulary.item_token_to_id.get(event.item.item_id)
    return vocabulary.carousel_token_of_id.get(event.carousel.carousel_id)


def candidate_set(kind: TaskKind, vocabulary: Vocabulary) -> tuple[int, ...]:
    """Every token `target_token` can return for `kind`."""
    cands = vocabulary.item_token_ids if kind in ITEM_KINDS \
        else vocabulary.carousel_token_ids
    if not cands:
        raise PromptError(f"vocabulary has no candidates for task {kind.value}")
    return cands


def trim_story_to_context(story: UserStory, heads, vocabulary: Vocabulary,
                          context_length: int) -> list[TaskPrompt]:
    """One prompt per (kind, context) head, each fit to the model context
    from the story's newest whole sessions (never splitting an event), then
    its head. The lead and each session's text are rendered and tokenized
    once for all heads, and each head keeps sessions newest first while
    their token counts fit beside the lead and its head; when not even the
    newest fits, its prompt is the lead and its head alone. With more than
    one head, each prompt's `story_len` is the length of its story ids, so
    the model runs the story once for the heads that keep the same
    sessions; a single head's prompt keeps `story_len` 0."""
    head_ids = [tokenize(head_text(kind, context), vocabulary)
                for kind, context in heads]
    lead, texts = grammar.serialize_parts(story)
    lead_ids = tokenize(lead + " ", vocabulary)
    room = context_length - len(lead_ids) - min(map(len, head_ids))
    # session ids newest first, as many as fit beside the shortest head
    pieces: list[list[int]] = []
    for text in reversed(texts):
        ids = tokenize(text + " ", vocabulary) if text else []
        if len(ids) > room:
            break
        pieces.append(ids)
        room -= len(ids)
    prompts = []
    for (kind, _), head in zip(heads, head_ids):
        budget, kept = context_length - len(lead_ids) - len(head), 0
        while kept < len(pieces) and len(pieces[kept]) <= budget:
            budget -= len(pieces[kept])
            kept += 1
        if budget < 0:
            raise PromptError(
                f"prompt head alone exceeds context length {context_length}")
        story_ids = lead_ids + [t for piece in reversed(pieces[:kept])
                                for t in piece]
        ids = story_ids + head
        prompts.append(TaskPrompt(
            token_ids=tuple(ids),
            candidate_set=candidate_set(kind, vocabulary), kind=kind,
            story_len=len(story_ids) if len(heads) > 1 else 0))
    return prompts


def make_prompt(story: UserStory, now: int, kind: TaskKind, context: dict,
                vocabulary: Vocabulary, context_length: int) -> TaskPrompt:
    """Serve's prompt for a request story at time `now`. The story is held to
    the stored-story rules first, while it is still whole: a trimmed story's
    first session no longer starts at elapsed=0. The prompt is trimmed from
    the story with the session at `now` open at its end."""
    check_story(story, PromptError)
    return trim_story_to_context(open_session(story, now), [(kind, {
        "hour": hour_of_day(now), **context})], vocabulary, context_length)[0]


def rank_candidates(row: np.ndarray, candidates) -> RankedList:
    """Order candidate token ids by their value in one logit (or score) row;
    every ranking, served or evaluated, goes through this tie-break."""
    cands = np.asarray(candidates)
    logits = row[cands]
    order = np.lexsort((cands, -logits))
    return RankedList(tuple(zip(cands[order].tolist(), logits[order].tolist())))


def rank_batch(prompts: list[TaskPrompt], model) -> list[RankedList]:
    """Rank many prompts in one forward pass from the logits at each prompt's
    last token, its slot, only. The ids are right-padded to the longest prompt;
    `Model.forward` refuses one wider than the context. The model runs each
    prompt as its own task, on a pool of one thread per usable core with
    OpenBLAS pinned to one thread, over its rows up to the slot, and skips the
    rest; prompts with the same story ids and a nonzero `story_len` share one
    story pass. A prompt's ranking is the same bit for bit whatever else is in
    the batch. The candidates are ranked here, serially, after the forward."""
    if not prompts:
        return []
    if max(max(p.candidate_set) for p in prompts) >= model.config.vocab_size:
        raise PromptError("candidate token outside the model vocabulary: "
                          "the model and vocabulary do not match")
    ids = np.zeros((len(prompts), max(len(p.token_ids) for p in prompts)),
                   dtype=np.int64)
    for r, prompt in enumerate(prompts):
        ids[r, :len(prompt.token_ids)] = prompt.token_ids
    logits = model.forward(ids, [len(p.token_ids) - 1 for p in prompts],
                           [p.story_len for p in prompts])
    return [rank_candidates(row, p.candidate_set)
            for row, p in zip(logits, prompts)]
