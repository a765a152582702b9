"""Per-layer metrics derived from a traced run's spans.

Self time is a span's duration minus its child spans. `busy` sums a layer's
spans. Set-up layers are read from the spans of the traced set-up; the rest
from the measured phases.
"""
from __future__ import annotations

import statistics

from common import median, percentile
from tracer import SpanStats

MEASURED = {"open", "saturation", "corpus", "eval", "train"}


def _ms(values) -> list[float]:
    return [v * 1000 for v in values]


def layer_metrics(tracer, outcome) -> dict:
    st = SpanStats(tracer.spans, MEASURED)
    setup = SpanStats(tracer.spans, {"setup"})
    opened = SpanStats(tracer.spans, {"open"})
    saturation = SpanStats(tracer.spans, {"saturation"})
    m = {}

    due = outcome.extra.get("due", {})
    waits = [(s.start - due[s.rid]) * 1000
             for s in opened.spans("stories.story_from_dict") if s.rid in due]
    m["serve.wait_ms_p50"] = median(waits)
    m["serve.wait_ms_p95"] = percentile(waits, 95)
    batches = [s.attrs["prompts"] for s in saturation.spans("prompts.rank_batch")]
    m["serve.batches"] = len(batches)
    m["serve.batch_size_mean"] = statistics.fmean(batches) if batches else 0.0
    m["serve.generator_lag_ms_max"] = outcome.extra.get("lag_ms_max", 0.0)

    m["stories.story_from_dict.ms_p50"] = median(
        _ms(s.dur for s in st.spans("stories.story_from_dict")))

    prompts = st.calls("prompts.make_prompt")
    m["prompts.make_prompt.calls"] = prompts
    m["prompts.make_prompt.self_ms_p50"] = median(
        _ms(st.self_times("prompts.make_prompt")))
    m["prompts.tokenize_per_prompt"] = len(
        st.descendants("vocab.tokenize", "prompts.make_prompt")) / prompts \
        if prompts else 0.0
    m["prompts.rank_batch.self_ms_p50"] = median(
        _ms(st.self_times("prompts.rank_batch")))

    m["grammar.serialize.calls"] = st.calls("grammar.serialize")
    m["grammar.serialize.busy_s"] = st.busy("grammar.serialize")
    m["grammar.apply_transform.busy_s"] = st.busy("grammar.apply_transform")

    tokenize_busy = st.busy("vocab.tokenize")
    tokenize_mb = sum(s.attrs["mb"] for s in st.spans("vocab.tokenize"))
    m["vocab.tokenize.calls"] = st.calls("vocab.tokenize")
    m["vocab.tokenize.mb"] = tokenize_mb
    m["vocab.tokenize.busy_s"] = tokenize_busy
    m["vocab.tokenize.mb_per_s"] = tokenize_mb / tokenize_busy \
        if tokenize_busy else 0.0
    m["vocab.build_vocabulary.s"] = setup.busy("vocab.build_vocabulary")

    forwards = st.spans("model.forward")
    forward_busy = st.busy("model.forward")
    seqs = sum(s.attrs["seqs"] for s in forwards)
    positions = sum(s.attrs["positions"] for s in forwards)
    m["model.forward.calls"] = len(forwards)
    m["model.forward.busy_s"] = forward_busy
    m["model.forward.ms_per_seq"] = forward_busy * 1000 / seqs if seqs else 0.0
    m["model.forward.pad_frac"] = 1.0 - sum(
        s.attrs["real"] for s in forwards) / positions if positions else 0.0
    m["model.forward_backward.ms_p50"] = median(
        _ms(s.dur for s in st.spans("model.forward_backward")))
    m["model.optimizer_self_ms_p50"] = median(
        _ms(st.self_times("model.backward_and_step")))
    m["model.load_checkpoint.s"] = setup.busy("model.load_checkpoint")

    m["evaluate.eligible_positions.busy_s"] = st.busy("evaluate.eligible_positions")
    m["evaluate.model_ranks.self_s"] = sum(st.self_times("evaluate.model_ranks"))
    m["evaluate.popularity_ranks.busy_s"] = st.busy("evaluate.popularity_ranks")
    m["evaluate.bm25_ranks.busy_s"] = st.busy("evaluate.bm25_ranks")

    m["corpus.tokenize_stories.busy_s"] = st.busy("corpus.tokenize_stories")
    m["corpus.build_catalog_corpus.s"] = median(
        [s.dur for s in st.spans("corpus.build_catalog_corpus")])
    m["corpus.apply_masking.busy_s"] = st.busy("corpus.apply_masking")
    m["corpus.sample_mixture.busy_s"] = st.busy("corpus.sample_mixture")

    batches = st.spans("training.make_batch")
    slots = sum(s.attrs["positions"] for s in batches)
    m["training.make_batch.busy_s"] = st.busy("training.make_batch")
    m["training.step_ms_p50"] = median(outcome.extra.get("step_ms", []))
    m["training.pad_frac"] = 1.0 - sum(
        s.attrs["targets"] for s in batches) / slots if slots else 0.0

    m["datagen.generate_world.s"] = setup.busy("datagen.generate_world")
    return m
