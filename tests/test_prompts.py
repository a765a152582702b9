from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from storyrank.evaluate import ModelScorer, eligible_positions
from storyrank.grammar import apply_transform, serialize, session_clause, \
    strip_sessions
from storyrank.model import ModelConfig, init_model
from storyrank.prompts import (
    PromptError,
    RankedList,
    TaskKind,
    TaskPrompt,
    candidate_set,
    head_text,
    make_prompt,
    rank,
    rank_batch,
    rank_candidates,
)
from storyrank.stories import SESSION_GAP_SECONDS, SESSION_SPAN_SECONDS, \
    AttributeHeader, EMPTY_CAROUSEL, Surface, UserStory, day_of_week, \
    hour_of_day, search, segment_sessions, watch
from storyrank.vocab import CLASS_CAROUSEL, CLASS_ITEM, build_vocabulary, \
    tokenize

from conftest import SAMPLE_CAROUSELS, SAMPLE_ITEMS, SAMPLE_TEXT, SUNDAY, \
    make_sample_story
from oracles import detokenize, extend_story_for_now, parse_prompt
from oracles import rank_candidates as oracle_rank_candidates


@pytest.fixture(scope="module")
def toy_model(sample_vocab):
    cfg = ModelConfig(vocab_size=sample_vocab.size, context_length=256,
                      layers=1, heads=2, model_dim=16, dtype="float64")
    return init_model(cfg, seed=0)


def last_event_time(story):
    return max(e.timestamp for s in story.sessions for e in s.events)


def test_recent_activity_continues_the_session():
    story = make_sample_story()
    now = last_event_time(story) + 27 * 60 + 30 * 60  # watch ends 27m after start
    text = extend_story_for_now(story, now)
    assert text == serialize(story)  # no new session clause


def test_sixteen_hour_gap_opens_session_with_elapsed_16():
    story = make_sample_story()
    last_end = last_event_time(story) + 27 * 60
    now = last_end + 16 * 3600 + 600
    text = extend_story_for_now(story, now)
    assert text.endswith(f"<|session|> elapsed=16h day={(now // 86400 + 3) % 7}")


@pytest.mark.parametrize("minutes, new_session", [(59, False), (60, False), (61, True)])
def test_inactivity_boundary_is_strictly_more_than_one_hour(minutes, new_session):
    events = [search(SUNDAY + 9 * 3600, "fog")]
    story = UserStory("u", AttributeHeader(), segment_sessions(events))
    now = events[0].timestamp + minutes * 60
    text = extend_story_for_now(story, now)
    grew = text != serialize(story)
    assert grew == new_session
    if new_session:
        assert "elapsed=1h" in text.rsplit("<|session|>", 1)[1]


def test_now_before_last_event_rejected():
    story = make_sample_story()
    with pytest.raises(PromptError, match="before the last"):
        extend_story_for_now(story, SUNDAY)


def test_twelve_hour_span_forces_new_session():
    events = [search(SUNDAY + t * 3000, "fog") for t in range(15)]
    story = UserStory("u", AttributeHeader(), segment_sessions(events))
    last = story.sessions[-1]
    now = last.start_time + 12 * 3600 + 300  # active 20 min ago, but span blown
    text = extend_story_for_now(story, now)
    assert text.count("<|session|>") == len(story.sessions) + 1


def test_search_head_form(sample_vocab):
    story = make_sample_story()
    prompt = make_prompt(story, last_event_time(story) + 1800, TaskKind.SEARCH,
                         {"hour": 23, "query": "fog"}, sample_vocab, 256)
    text = detokenize(prompt.token_ids, sample_vocab)
    assert text.endswith("<|search|> hour=23 fog "
                         "<|watch|> hour=23 <|surface=search|><|carousel()|>")
    assert prompt.candidate_set == sample_vocab.item_token_ids
    assert prompt.target_slot == len(prompt.token_ids) - 1


def test_carousel_head_ends_at_surface(sample_vocab):
    story = make_sample_story()
    prompt = make_prompt(story, last_event_time(story) + 1800, TaskKind.CAROUSEL,
                         {"hour": 9, "surface": "home"}, sample_vocab, 256)
    assert detokenize(prompt.token_ids, sample_vocab).endswith(
        "<|watch|> hour=9 <|surface=home|>")
    assert prompt.candidate_set == sample_vocab.carousel_token_ids
    classes = {sample_vocab.classes[t] for t in prompt.candidate_set}
    assert classes == {CLASS_CAROUSEL}


def test_masked_item_head_on_empty_story(sample_vocab):
    story = UserStory("new", AttributeHeader((("country", "US"),)), ())
    prompt = make_prompt(story, SUNDAY + 4 * 3600, TaskKind.ITEM_MASKED, {},
                         sample_vocab, 256)
    text = detokenize(prompt.token_ids, sample_vocab)
    assert text == ("country=US <|begin_sessions|> <|session|> elapsed=0h day=6 "
                    "<|watch|> hour=4 <|surface=home|><|carousel(MASK)|>")


def test_contextual_head_requires_fields():
    with pytest.raises(PromptError, match="carousel"):
        head_text(TaskKind.ITEM_CONTEXTUAL, {"hour": 4, "surface": "home"})
    with pytest.raises(PromptError, match="query"):
        head_text(TaskKind.SEARCH, {"hour": 4})


@pytest.mark.parametrize("kind,context", [
    (TaskKind.ITEM_MASKED, {}),
    (TaskKind.ITEM_CONTEXTUAL, {"surface": "home", "carousel": "after_dark_detours"}),
    (TaskKind.CAROUSEL, {"surface": "browse"}),
    (TaskKind.SEARCH, {"query": "fog"}),
])
def test_prompts_with_any_candidate_reparse(sample_vocab, kind, context):
    story = make_sample_story()
    now = last_event_time(story) + 3 * 3600
    prompt = make_prompt(story, now, kind, context, sample_vocab, 256)
    text = detokenize(prompt.token_ids, sample_vocab)
    for cand in prompt.candidate_set[:3]:
        parse_prompt(text + detokenize([cand], sample_vocab))


def test_long_story_trims_whole_oldest_sessions(sample_vocab):
    base = make_sample_story()
    events = []
    t = SUNDAY
    for i in range(40):
        events.append(search(t, "fog"))
        t += 2 * 3600
    story = UserStory("u", base.attributes, segment_sessions(events))
    now = t + 600
    prompt = make_prompt(story, now, TaskKind.ITEM_MASKED, {}, sample_vocab, 128)
    assert len(prompt.token_ids) <= 128
    text = detokenize(prompt.token_ids, sample_vocab)
    # a whole-session suffix of the history survives
    assert text.count("<|search|>") < 40
    assert "<|begin_sessions|>" in text
    parse_prompt(text)


def test_rank_orders_by_logit_with_constructed_head(sample_vocab, toy_model):
    story = make_sample_story()
    prompt = make_prompt(story, last_event_time(story) + 1800,
                         TaskKind.ITEM_MASKED, {}, sample_vocab, 256)
    target = sample_vocab.item_token_to_id["SYN303"]
    dim = toy_model.config.model_dim
    # read the final hidden state through an identity head block, then build
    # a head whose target logit is exactly +10 and every other candidate 0
    probe = init_model(toy_model.config, seed=0)
    probe.params["w_out"][:] = 0.0
    probe.params["w_out"][:dim, :dim] = np.eye(dim)
    hidden = probe.forward(np.asarray(prompt.token_ids))[prompt.target_slot][:dim]
    model = init_model(toy_model.config, seed=0)
    model.params["w_out"][:] = 0.0
    model.params["w_out"][:, target] = 10.0 * hidden / (hidden @ hidden)
    ranked = rank(prompt, model)
    assert ranked.entries[0][0] == target
    assert ranked.entries[0][1] == pytest.approx(10.0, rel=1e-9)
    assert all(v == 0.0 for t, v in ranked.entries[1:])
    assert len(ranked.entries) == len(prompt.candidate_set)
    assert set(t for t, _ in ranked.entries) == set(prompt.candidate_set)


def test_equal_logits_tie_break_ascending_token_id(sample_vocab, toy_model):
    story = make_sample_story()
    prompt = make_prompt(story, last_event_time(story) + 1800,
                         TaskKind.CAROUSEL, {"surface": "home"}, sample_vocab, 256)
    model = init_model(toy_model.config, seed=0)
    for tid in prompt.candidate_set:
        model.params["w_out"][:, tid] = 0.0  # identical logits for candidates
    ranked = rank(prompt, model)
    assert [t for t, _ in ranked.entries] == sorted(prompt.candidate_set)


@given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_rank_candidates_equals_elementwise_oracle(dtype, data):
    size = data.draw(st.integers(1, 60))
    # a few repeated values force exact ties, signed zeros included
    values = data.draw(st.lists(
        st.sampled_from([-2.5, -0.0, 0.0, 0.125, 7.0])
        | st.floats(-1e6, 1e6, width=32), min_size=size, max_size=size))
    row = np.array(values, dtype=dtype)
    candidates = tuple(data.draw(st.lists(st.integers(0, size - 1),
                                          min_size=1, unique=True)))
    got = rank_candidates(row, candidates)
    want = oracle_rank_candidates(row, candidates)
    assert got == want
    assert repr(got) == repr(want)  # same types and signs of zero too


def test_rank_is_a_single_forward_pass(sample_vocab, toy_model):
    story = make_sample_story()
    for kind, context in [(TaskKind.ITEM_MASKED, {}),
                          (TaskKind.SEARCH, {"query": "lan"})]:
        prompt = make_prompt(story, last_event_time(story) + 1800, kind,
                             context, sample_vocab, 256)
        before = toy_model.forward_calls
        rank(prompt, toy_model)
        assert toy_model.forward_calls == before + 1


def test_rank_matches_softmax_sort_oracle(sample_vocab, toy_model):
    rng = np.random.default_rng(0)
    story = make_sample_story()
    now = last_event_time(story) + 1800
    for trial in range(100):
        kind = [TaskKind.ITEM_MASKED, TaskKind.CAROUSEL,
                TaskKind.SEARCH][trial % 3]
        context = {"query": "fog"} if kind == TaskKind.SEARCH else \
            {"surface": "home"}
        context["hour"] = int(rng.integers(0, 24))
        prompt = make_prompt(story, now, kind, context, sample_vocab, 256)
        logits = toy_model.forward(np.asarray(prompt.token_ids))[prompt.target_slot]
        # oracle: full softmax, sort by probability (monotone in logit)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        oracle = sorted(((int(t), float(probs[t])) for t in prompt.candidate_set),
                        key=lambda pair: (-pair[1], pair[0]))
        got = rank(prompt, toy_model)
        assert [t for t, _ in got.entries] == [t for t, _ in oracle]


def test_logit_shift_on_candidates_preserves_order(sample_vocab, toy_model):
    story = make_sample_story()
    prompt = make_prompt(story, last_event_time(story) + 1800,
                         TaskKind.ITEM_MASKED, {}, sample_vocab, 256)
    base = rank(prompt, toy_model)
    shifted_model = init_model(toy_model.config, seed=0)
    for tid in prompt.candidate_set:
        shifted_model.params["w_out"][:, tid] = \
            toy_model.params["w_out"][:, tid]
    # add a constant bias to every candidate via an extra always-on feature:
    # simpler equivalent: shift the ranked logits directly
    shifted = RankedList(tuple((t, v + 3.25) for t, v in base.entries))
    assert [t for t, _ in shifted.entries] == [t for t, _ in base.entries]


def test_batched_rank_equals_single_rank(sample_vocab, toy_model):
    story = make_sample_story()
    now = last_event_time(story) + 1800
    prompts = [
        make_prompt(story, now, TaskKind.ITEM_MASKED, {}, sample_vocab, 256),
        make_prompt(story, now, TaskKind.CAROUSEL, {"surface": "home"},
                    sample_vocab, 256),
        make_prompt(story, now, TaskKind.SEARCH, {"query": "lante"},
                    sample_vocab, 256),
    ]
    singles = [rank(p, toy_model) for p in prompts]
    batched = rank_batch(prompts, toy_model)
    for one, many in zip(singles, batched):
        assert one.entries == many.entries  # bitwise, float64


def test_candidate_beyond_vocab_rejected(sample_vocab, toy_model):
    story = make_sample_story()
    prompt = make_prompt(story, last_event_time(story) + 1800,
                         TaskKind.ITEM_MASKED, {}, sample_vocab, 256)
    small_cfg = ModelConfig(vocab_size=260, context_length=256, layers=1,
                            heads=2, model_dim=16, dtype="float64")
    with pytest.raises(PromptError, match="vocabulary"):
        rank(prompt, init_model(small_cfg))


# --- oracle: the whole-text trimming loop -------------------------------------

def whole_text_trim(story, render_text, kind, context, vocabulary,
                    context_length):
    """Trimming as it was before prompts were built from pieces: drop one
    oldest session at a time, re-rendering and re-tokenizing the whole
    prefix after each drop."""
    head = head_text(kind, context)
    current = story
    while True:
        ids = tokenize(render_text(current) + " " + head, vocabulary)
        if len(ids) <= context_length:
            return TaskPrompt(token_ids=tuple(ids), target_slot=len(ids) - 1,
                              candidate_set=candidate_set(kind, vocabulary),
                              kind=kind)
        if not current.sessions:
            raise PromptError(
                f"prompt head alone exceeds context length {context_length}")
        current = replace(current, sessions=current.sessions[1:])


def whole_text_for_now(story, now):
    """Serve's prefix text for `now` as one string, rendered as before."""
    events = list(story.events())
    if events and now < events[-1].timestamp:
        raise PromptError(f"now={now} is before the last story event "
                          f"({events[-1].timestamp})")
    text = serialize(story, validate=False)
    if story.sessionless or not story.sessions:
        if not events and not story.sessionless:
            return text + " " + session_clause(0, day_of_week(now))
        return text
    last = story.sessions[-1]
    gap = now - last.end_time
    span = now - last.start_time
    if gap <= SESSION_GAP_SECONDS and span <= SESSION_SPAN_SECONDS:
        return text
    elapsed = max(0, gap // SESSION_GAP_SECONDS)
    return text + " " + session_clause(elapsed, day_of_week(now))


def _outcome(build):
    try:
        return build()
    except PromptError as exc:
        return f"PromptError: {exc}"


@pytest.fixture(scope="module")
def merged_vocab(sample_catalog):
    vocab = build_vocabulary(sample_catalog, merges=48,
                             merge_training_text="\n".join([SAMPLE_TEXT] * 3))
    assert len(vocab.merge_pairs) == 48
    return vocab


# context lengths from "the head alone does not fit" up to the desk config
CONTEXT_LENGTHS = [12, 20, 32, 48, 64, 128, 256]
TRANSFORMS = [{}, {"view": "item"}, {"view": "carousel"}, {"view": "search"},
              {"drop_attributes": "all"}, {"drop_attributes": "profile"},
              {"drop_attributes": "location"}, {"drop_sessions": True},
              {"view": "search", "drop_sessions": True}]
QUERIES = ["fog", "lan", "lantern", "static motel"]


@st.composite
def journeys(draw, min_events=0):
    """A valid story: events with gaps from seconds to two days, so it spans
    zero to many sessions."""
    t = SUNDAY + draw(st.integers(0, 86400))
    events = []
    for _ in range(draw(st.integers(min_events, 24))):
        t += draw(st.sampled_from([0, 60, 1800, 4000, 6 * 3600, 20 * 3600,
                                   48 * 3600]))
        if draw(st.booleans()):
            events.append(search(t, draw(st.sampled_from(QUERIES))))
        else:
            surface = draw(st.sampled_from(list(Surface)))
            carousel = EMPTY_CAROUSEL if surface == Surface.SEARCH \
                else draw(st.sampled_from(SAMPLE_CAROUSELS))
            events.append(watch(t, surface, carousel,
                                draw(st.sampled_from(SAMPLE_ITEMS)),
                                draw(st.integers(0, 120))))
    attrs = AttributeHeader(draw(st.sampled_from(
        [(), (("country", "US"),),
         (("country", "BR"), ("device", "mobile"), ("city", "Porto Alegre"))])))
    return UserStory("u", attrs, segment_sessions(events) if events else ())


@given(story=journeys(), kind=st.sampled_from(list(TaskKind)),
       offset=st.sampled_from([-60, 0, 1800, 3660, 13 * 3600, 40 * 3600]),
       hour=st.one_of(st.none(), st.integers(0, 23)),
       surface=st.sampled_from(["home", "browse", "autoplay", "search"]),
       carousel=st.sampled_from(SAMPLE_CAROUSELS),
       query=st.sampled_from(QUERIES), flat=st.booleans(),
       merged=st.booleans(), context_length=st.sampled_from(CONTEXT_LENGTHS))
@settings(max_examples=300, deadline=None)
def test_serve_prompt_equals_whole_text_oracle(sample_vocab, merged_vocab,
                                               story, kind, offset, hour,
                                               surface, carousel, query, flat,
                                               merged, context_length):
    vocab = merged_vocab if merged else sample_vocab
    if flat:
        story = strip_sessions(story)
    events = list(story.events())
    now = (events[-1].timestamp if events else SUNDAY) + offset
    context = {"query": query, "surface": surface,
               "carousel": "" if surface == "search" else carousel.carousel_id}
    if kind == TaskKind.CAROUSEL and surface == "search":
        context["surface"] = "home"
    if hour is not None:
        context["hour"] = hour
    got = _outcome(lambda: make_prompt(story, now, kind, context, vocab,
                                       context_length))
    context.setdefault("hour", hour_of_day(now))
    want = _outcome(lambda: whole_text_trim(
        story, lambda s: whole_text_for_now(s, now), kind, context, vocab,
        context_length))
    assert got == want


@given(story=journeys(min_events=1), kind=st.sampled_from(list(TaskKind)),
       pick=st.integers(0, 1000), transform=st.sampled_from(TRANSFORMS),
       merged=st.booleans(), context_length=st.sampled_from(CONTEXT_LENGTHS))
@settings(max_examples=300, deadline=None)
def test_eval_prompt_equals_whole_text_oracle(sample_vocab, merged_vocab,
                                              story, kind, pick, transform,
                                              merged, context_length):
    vocab = merged_vocab if merged else sample_vocab
    positions = eligible_positions(story, kind, vocab)
    assume(positions)
    pos = positions[pick % len(positions)]
    model = SimpleNamespace(config=SimpleNamespace(
        context_length=context_length))
    scorer = ModelScorer(model, transform=transform)
    got = _outcome(lambda: scorer.prompt(pos, kind, vocab))
    head_kind = TaskKind.ITEM_CONTEXTUAL if kind == TaskKind.SEARCH else kind
    want = _outcome(lambda: whole_text_trim(
        pos.prefix_story,
        lambda s: serialize(apply_transform(s, **transform), validate=False),
        head_kind, pos.context, vocab, context_length))
    assert got == want
