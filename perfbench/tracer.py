"""Span tracer that wraps storyrank's public functions from outside.

A span records one wrapped call: name, start, end, parent span, request id and
a phase tag set by the workload. Spans stay in memory until the run writes
them out. Each function is patched in every storyrank module that holds a
reference to it, because callers bind names such as `tokenize` at import;
patching only the defining module would record nothing.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# span name -> (module, attribute path). A dotted path patches a class method.
TARGETS = {
    "datagen.generate_world": ("storyrank.datagen", "generate_world"),
    "stories.story_from_dict": ("storyrank.stories", "story_from_dict"),
    "grammar.serialize": ("storyrank.grammar", "serialize"),
    "grammar.apply_transform": ("storyrank.grammar", "apply_transform"),
    "vocab.build_vocabulary": ("storyrank.vocab", "build_vocabulary"),
    "vocab.tokenize": ("storyrank.vocab", "tokenize"),
    "prompts.make_prompt": ("storyrank.prompts", "make_prompt"),
    "prompts.rank_batch": ("storyrank.prompts", "rank_batch"),
    "model.forward": ("storyrank.model", "Model.forward"),
    "model.forward_backward": ("storyrank.model", "forward_backward"),
    "model.backward_and_step": ("storyrank.model", "backward_and_step"),
    "model.load_checkpoint": ("storyrank.model", "load_checkpoint"),
    "evaluate.eligible_positions": ("storyrank.evaluate", "eligible_positions"),
    "evaluate.model_ranks": ("storyrank.evaluate", "ModelScorer.target_ranks"),
    "evaluate.popularity_ranks": ("storyrank.evaluate",
                                  "StaticScorer.target_ranks"),
    "evaluate.bm25_ranks": ("storyrank.evaluate", "Bm25Scorer.target_ranks"),
    "corpus.tokenize_stories": ("storyrank.corpus", "tokenize_stories"),
    "corpus.build_catalog_corpus": ("storyrank.corpus", "build_catalog_corpus"),
    "corpus.apply_masking": ("storyrank.corpus", "apply_masking"),
    "corpus.sample_mixture": ("storyrank.corpus", "sample_mixture"),
    "training.make_batch": ("storyrank.training", "make_batch"),
}

GENERATORS = {"corpus.sample_mixture"}  # span covers each next(), not the call


def _text_mb(args, kwargs, result):
    return {"mb": len(args[0].encode("utf-8")) / 1e6}


def _rank_batch_attrs(args, kwargs, result):
    return {"prompts": len(args[0])}


def _forward_attrs(args, kwargs, result):
    """Sequences and real (non-padding) tokens in the ids passed to forward.
    Padding is right-padding with token id 0, the NUL byte, which serialized
    stories never contain."""
    ids = np.asarray(args[1])
    if ids.ndim == 1:
        ids = ids[None, :]
    nonzero = ids != 0
    last = np.where(nonzero.any(axis=1),
                    ids.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 0)
    return {"seqs": ids.shape[0], "positions": int(ids.size),
            "real": int(last.sum())}


def _batch_attrs(args, kwargs, result):
    weights = result[2]
    return {"targets": float(weights.sum()), "positions": int(weights.size)}


ATTRS = {
    "vocab.tokenize": _text_mb,
    "prompts.rank_batch": _rank_batch_attrs,
    "model.forward": _forward_attrs,
    "training.make_batch": _batch_attrs,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    rid: str | None = None
    phase: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase: str | None = None
        self.rid: str | None = None
        # called with the span name on entry; lets a workload assign request ids
        self.on_enter = None
        self.missing: dict[str, str] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        if self.on_enter is not None:
            self.on_enter(name)
        stack = self._stack()
        span = Span(name, 0.0, parent=stack[-1] if stack else -1, rid=self.rid,
                    phase=self.phase)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Patch every target where storyrank's modules look it up. A target
        that no longer exists is recorded in `missing` and left unmeasured."""
        import storyrank
        modules = [importlib.import_module(f"storyrank.{m.name}")
                   for m in pkgutil.iter_modules(storyrank.__path__)
                   if not m.name.startswith("_")]
        for name, (mod_name, path) in TARGETS.items():
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                owner = None
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing[name] = f"{mod_name}.{path} not found"
                continue
            wrapped = self.wrap(name, original)
            if cls_path:
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "rid": s.rid, "phase": s.phase,
                                     **s.attrs}) + "\n")


class SpanStats:
    """Aggregates over the spans of one or more phases."""

    def __init__(self, spans: list[Span], phases: set[str]):
        self.all = spans
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s.phase in phases:
                self.by_name.setdefault(s.name, []).append(i)
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                self.child_time[s.parent] += s.dur

    def spans(self, name: str) -> list[Span]:
        return [self.all[i] for i in self.by_name.get(name, [])]

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, []))

    def busy(self, name: str) -> float:
        """Summed duration, counting a span nested inside one of the same
        name only once."""
        total = 0.0
        for i in self.by_name.get(name, []):
            if not self._inside(i, name):
                total += self.all[i].dur
        return total

    def self_times(self, name: str) -> list[float]:
        return [self.all[i].dur - self.child_time[i]
                for i in self.by_name.get(name, [])]

    def descendants(self, name: str, ancestor: str) -> list[Span]:
        return [self.all[i] for i in self.by_name.get(name, [])
                if self._inside(i, ancestor)]

    def _inside(self, i: int, name: str) -> bool:
        p = self.all[i].parent
        while p >= 0:
            if self.all[p].name == name:
                return True
            p = self.all[p].parent
        return False
