"""Offline evaluation: user-level split, eligible prediction positions,
HR@K / NDCG@K, and the BM25 and popularity reference scorers.

Eligible positions are defined on the untouched eval story; a scorer's view
transform (task-specific variants, session ablation) strips only the input
it gets to see. Every method therefore ranks the same candidate universe at
the same positions, and every method's target ranks flow through one
aggregation path.

The model is scored through the serving code in `prompts`: the same task
heads, the same session trimming, the same padded batch forward and the same
candidate sets and tie-break (`rank_candidates`), which the reference scorers
use too; positions and popularity counts take their targets from
`prompts.target_token`, the rule the candidate sets are made from. Offline
metrics therefore measure the ranking that `serve` returns: bit for bit at
a watch scored for one task, and within float rounding at a watch scored
for several, whose tasks' prompts share one story pass through the model.
Each scorer gets every task's positions at once (`target_ranks`), so the
model scorer can group the tasks of one watch.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import grammar
from .prompts import TaskKind, TaskPrompt, candidate_set, rank_batch, \
    rank_candidates, target_token, trim_story_to_context
from .stories import Count, Fraction, SearchEvent, Surface, UserStory, check_ranges
from .vocab import Vocabulary


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class EvalConfig:
    cutoffs: tuple[int, ...] = (8, 50, 100)
    holdout_fraction: Fraction = 0.1
    rng_seed: int = 0
    max_eval_users: Count | None = None
    max_positions_per_user: Count | None = None

    def __post_init__(self):
        check_ranges(self, EvalError)
        # each cutoff becomes a metric row's "K": never a bool or float
        if not self.cutoffs or any(type(k) is not int or k < 1
                                   for k in self.cutoffs) \
                or list(self.cutoffs) != sorted(self.cutoffs):
            raise EvalError(f"cutoffs must be sorted integers of at least 1, "
                            f"got {list(self.cutoffs)!r}")


@dataclass(frozen=True)
class EligiblePosition:
    prefix_story: UserStory  # story cut immediately before the target token
    target_token: int
    context: dict


def split_users(stories, cfg: EvalConfig):
    """Deterministic hash split on user_id; returns (train, eval) lists."""
    train, held = [], []
    for story in stories:
        digest = hashlib.sha256(
            f"{cfg.rng_seed}:{story.user_id}".encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "little") / 2.0 ** 64
        (held if u < cfg.holdout_fraction else train).append(story)
    if not held:
        raise EvalError("eval split is empty; raise holdout_fraction")
    if not train:
        raise EvalError("train split is empty; lower holdout_fraction")
    return train, held


def _prefix_story(story: UserStory, si: int, ei: int) -> UserStory:
    """The story up to (not including) event ei of session si; the current
    session clause and its earlier events stay in the prefix."""
    sessions = list(story.sessions[:si])
    current = story.sessions[si]
    sessions.append(replace(current, events=current.events[:ei]))
    return replace(story, sessions=tuple(sessions))


def eligible_positions(story: UserStory, kind: TaskKind,
                       vocabulary: Vocabulary) -> list[EligiblePosition]:
    """Scoreable positions for one task: every watch with a `target_token`,
    for search only the search-surface watches after a query in the same
    session, whose latest query rides along for baselines."""
    out: list[EligiblePosition] = []
    for si, sess in enumerate(story.sessions):
        query: str | None = None
        for ei, event in enumerate(sess.events):
            if isinstance(event, SearchEvent):
                query = event.query
            token = target_token(kind, event, vocabulary)
            if token is None or kind == TaskKind.SEARCH and (
                    event.surface != Surface.SEARCH or query is None):
                continue
            context = {"hour": event.hour, "surface": event.surface.value,
                       "carousel": event.carousel.carousel_id}
            if kind == TaskKind.SEARCH:
                context["query"] = query
            out.append(EligiblePosition(_prefix_story(story, si, ei), token,
                                        context))
    return out


# --- metrics -----------------------------------------------------------------

def hit_rate_at_k(ranks, k: int) -> float:
    if not ranks:
        raise EvalError("hit_rate_at_k over empty ranks")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def ndcg_at_k(ranks, k: int) -> float:
    """Single relevant target per position, so ideal DCG is 1 and the
    position's credit is 1/log2(rank+1) inside the cutoff."""
    if not ranks:
        raise EvalError("ndcg_at_k over empty ranks")
    total = sum(1.0 / math.log2(r + 1) for r in ranks if r <= k)
    return total / len(ranks)


# --- scorers -------------------------------------------------------------------

class ModelScorer:
    """Ranks positions with the language model; `transform` strips the story
    prefix to this variant's view before serialization."""

    def __init__(self, model, name: str = "model",
                 transform: grammar.TransformConfig = grammar.TransformConfig(),
                 batch_size: int = 32):
        self.model = model
        self.name = name
        self.transform = transform
        self.batch_size = batch_size

    def prompts(self, story: UserStory, heads, vocabulary: Vocabulary
                ) -> list[TaskPrompt]:
        """The served prompts for (kind, context) heads at one position,
        built from this scorer's view of its prefix story."""
        # the queries are already in the prefix; reopening the watch with the
        # contextual head gives <|surface=search|><|carousel()|>
        heads = [(TaskKind.ITEM_CONTEXTUAL if kind == TaskKind.SEARCH
                  else kind, context) for kind, context in heads]
        return trim_story_to_context(
            grammar.apply_transform(story, self.transform), heads,
            vocabulary, self.model.config.context_length)

    def target_ranks(self, positions_by_kind: dict,
                     vocabulary: Vocabulary) -> dict:
        """{kind: target ranks}. The positions that several kinds share at
        one watch (equal prefix stories) are trimmed as one group, whose
        prompts the model runs the story of once; a watch scored for one
        task gets serve's prompt. A batch holds whole groups, up to
        `batch_size` prompts unless one group alone is larger."""
        groups: dict[UserStory, list] = {}
        for kind, positions in positions_by_kind.items():
            for i, pos in enumerate(positions):
                groups.setdefault(pos.prefix_story, []).append((kind, i, pos))
        ranks = {kind: [0] * len(p) for kind, p in positions_by_kind.items()}
        batch, prompts = [], []

        def rank():
            for (kind, i, pos), ranked in zip(batch,
                                              rank_batch(prompts, self.model)):
                ranks[kind][i] = ranked.rank_of(pos.target_token)
            batch.clear()
            prompts.clear()

        for story, group in groups.items():
            if batch and len(batch) + len(group) > self.batch_size:
                rank()
            batch.extend(group)
            prompts.extend(self.prompts(
                story, [(kind, pos.context) for kind, _, pos in group],
                vocabulary))
        rank()
        return ranks


class StaticScorer:
    """Fixed per-token scores (popularity counts, hand-built logit tables)."""

    def __init__(self, name: str, token_scores: dict[int, float]):
        self.name = name
        self.token_scores = token_scores

    def target_ranks(self, positions_by_kind: dict,
                     vocabulary: Vocabulary) -> dict:
        row = np.zeros(vocabulary.size)
        for tid, score in self.token_scores.items():
            row[tid] = score
        ranks = {kind: [] for kind in positions_by_kind}
        for kind, positions in positions_by_kind.items():
            if positions:
                ranked = rank_candidates(row, candidate_set(kind, vocabulary))
                ranks[kind] = [ranked.rank_of(pos.target_token)
                               for pos in positions]
        return ranks


def popularity_scorer(train_stories, vocabulary: Vocabulary) -> StaticScorer:
    """Reference baseline: rank tokens by how often they are the item or
    carousel target of a watch on the train split."""
    counts: dict[int, float] = {}
    for story in train_stories:
        for event in story.events():
            for kind in (TaskKind.ITEM_MASKED, TaskKind.CAROUSEL):
                tid = target_token(kind, event, vocabulary)
                if tid is not None:
                    counts[tid] = counts.get(tid, 0) + 1
    return StaticScorer("popularity", counts)


# --- BM25 ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")
BM25_K1 = 1.2
BM25_B = 0.75


def bm25_terms(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass
class BM25Index:
    """Okapi BM25 over catalog titles with the +1-smoothed IDF variant, from
    postings: term -> [(item_id, tf, length norm)] over the titles with it."""
    n_docs: int
    postings: dict[str, list[tuple[str, int, float]]]

    @classmethod
    def build(cls, items) -> "BM25Index":
        terms_of = {item.item_id: bm25_terms(item.title) for item in items}
        if not terms_of:
            raise EvalError("cannot build BM25 index over an empty catalog")
        avg_len = sum(map(len, terms_of.values())) / len(terms_of)
        postings: dict[str, list[tuple[str, int, float]]] = {}
        for item_id, terms in terms_of.items():
            for term, tf in Counter(terms).items():
                norm = BM25_K1 * (1.0 - BM25_B
                                  + BM25_B * len(terms) / avg_len)
                postings.setdefault(term, []).append((item_id, tf, norm))
        return cls(len(terms_of), postings)

    def scores(self, query: str) -> dict[str, float]:
        """{item_id: score} for the titles that hold a query term."""
        out: dict[str, float] = {}
        for term in bm25_terms(query):
            posting = self.postings.get(term, ())
            d_f = len(posting)
            idf = math.log((self.n_docs - d_f + 0.5) / (d_f + 0.5) + 1.0)
            for item_id, tf, norm in posting:
                out[item_id] = out.get(item_id, 0.0) \
                    + idf * tf * (BM25_K1 + 1.0) / (tf + norm)
        return out


class Bm25Scorer:
    def __init__(self, index: BM25Index, name: str = "bm25"):
        self.index = index
        self.name = name

    def target_ranks(self, positions_by_kind: dict,
                     vocabulary: Vocabulary) -> dict:
        if TaskKind.SEARCH not in positions_by_kind:
            return {}
        ranks = []
        for pos in positions_by_kind[TaskKind.SEARCH]:
            row = np.zeros(vocabulary.size)
            for item_id, score in self.index.scores(
                    pos.context["query"]).items():
                tid = vocabulary.item_token_to_id.get(item_id)
                if tid is not None:
                    row[tid] = score
            ranks.append(rank_candidates(
                row, candidate_set(TaskKind.SEARCH, vocabulary))
                .rank_of(pos.target_token))
        return {TaskKind.SEARCH: ranks}


# --- the harness ----------------------------------------------------------------

def evaluate(scorers, eval_stories, kinds, cfg: EvalConfig,
             vocabulary: Vocabulary, config_hash: str = "") -> list[dict]:
    """Metric rows {method, task, K, hr, ndcg, n_positions, config_hash} for
    every K and every task a scorer's answer holds (BM25's: search alone). A
    task with zero eligible positions has n_positions 0 and null metrics."""
    stories = sorted(eval_stories, key=lambda s: s.user_id)[:cfg.max_eval_users]
    positions_by_kind = {}
    for kind in map(TaskKind, kinds):
        positions = []
        for story in stories:
            per_user = eligible_positions(story, kind, vocabulary)
            if cfg.max_positions_per_user is not None:
                per_user = per_user[-cfg.max_positions_per_user:]
            positions.extend(per_user)
        positions_by_kind[kind] = positions
    ranks_by_scorer = [scorer.target_ranks(positions_by_kind, vocabulary)
                       for scorer in scorers]
    rows = []
    for kind in positions_by_kind:
        for scorer, ranks in zip(scorers, ranks_by_scorer):
            if kind not in ranks:
                continue
            got = ranks[kind]
            for k in cfg.cutoffs:
                rows.append({
                    "method": scorer.name, "task": kind.value, "K": k,
                    "hr": hit_rate_at_k(got, k) if got else None,
                    "ndcg": ndcg_at_k(got, k) if got else None,
                    "n_positions": len(got),
                    "config_hash": config_hash,
                })
    return rows


def write_metrics(path, rows, *, manifest_hash: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if manifest_hash:
            fh.write(json.dumps({"_manifest": manifest_hash}) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def format_table(rows) -> str:
    """Text table shaped like the main offline-results table: one line per
    (task, method), HR and NDCG columns per cutoff."""
    cutoffs = sorted({r["K"] for r in rows})
    header = (["Task", "Method"] + [f"HR@{k}" for k in cutoffs]
              + [f"NDCG@{k}" for k in cutoffs] + ["n"])
    lines = [header]
    seen = []
    for row in rows:
        key = (row["task"], row["method"])
        if key not in seen:
            seen.append(key)
    for task, method in seen:
        cells = [task, method]
        sub = {r["K"]: r for r in rows if r["task"] == task and r["method"] == method}
        for k in cutoffs:
            hr = sub.get(k, {}).get("hr")
            cells.append("-" if hr is None else f"{hr:.4f}")
        for k in cutoffs:
            nd = sub.get(k, {}).get("ndcg")
            cells.append("-" if nd is None else f"{nd:.4f}")
        cells.append(str(sub.get(cutoffs[0], {}).get("n_positions", 0)))
        lines.append(cells)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                     for line in lines)
