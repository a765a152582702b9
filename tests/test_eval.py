import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storyrank.datagen import WorldConfig, generate_world
from storyrank.evaluate import (
    BM25Index,
    Bm25Scorer,
    EligiblePosition,
    EvalConfig,
    EvalError,
    ModelScorer,
    StaticScorer,
    _prefix_story,
    bm25_terms,
    eligible_positions,
    evaluate,
    format_table,
    hit_rate_at_k,
    ndcg_at_k,
    popularity_scorer,
    split_users,
    write_metrics,
)
from storyrank.grammar import strip_sessions
from storyrank import model as model_module
from storyrank.model import Model, ModelConfig, init_model
from storyrank.prompts import TaskKind, candidate_set, rank_candidates, \
    target_token
from storyrank.stories import AttributeHeader, ItemRef, UserStory, search, \
    segment_sessions, validate_story, watch, Surface, EMPTY_CAROUSEL
from storyrank.vocab import CLASS_CAROUSEL, CatalogIndex, build_vocabulary

from conftest import LANTERN, SUNDAY, make_sample_story
from oracles import bm25_scan_scores, detokenize, position_prompt, \
    read_metrics


def many_users(n=1000):
    return [UserStory(f"user-{i:04d}", AttributeHeader(), ()) for i in range(n)]


def test_split_is_deterministic_and_disjoint():
    stories = many_users()
    cfg = EvalConfig(holdout_fraction=0.1, rng_seed=7)
    train1, eval1 = split_users(stories, cfg)
    train2, eval2 = split_users(stories, cfg)
    assert [s.user_id for s in eval1] == [s.user_id for s in eval2]
    assert len(train1) + len(eval1) == len(stories)
    assert not {s.user_id for s in train1} & {s.user_id for s in eval1}
    assert 80 <= len(eval1) <= 120


def test_split_rejects_empty_sides():
    stories = many_users(3)
    with pytest.raises(EvalError, match="empty"):
        split_users(stories, EvalConfig(holdout_fraction=1e-9))


# --- eligible positions -------------------------------------------------------

def test_sample_story_search_positions(sample_vocab):
    story = make_sample_story()
    positions = eligible_positions(story, TaskKind.SEARCH, sample_vocab)
    assert len(positions) == 1  # only the watch right after the typed query
    pos = positions[0]
    assert pos.context["query"] == "lantern"
    assert sample_vocab.item_id_of_token[pos.target_token] == "SYN201"
    # the prefix ends right before the watch: both searches retained
    from storyrank.grammar import serialize
    text = serialize(pos.prefix_story, validate=False)
    assert text.count("<|search|>") == 2
    assert text.count("<|watch|>") == 0


def test_item_positions_cover_every_watch(sample_vocab):
    story = make_sample_story()
    positions = eligible_positions(story, TaskKind.ITEM_MASKED, sample_vocab)
    assert len(positions) == 3
    # prefix of the rewatch carries both earlier watches
    from storyrank.grammar import serialize
    final = serialize(positions[-1].prefix_story, validate=False)
    assert final.count("<|watch|>") == 2
    assert final.count("<|session|>") == 2


def test_carousel_positions_skip_empty_carousels(sample_vocab):
    story = make_sample_story()
    positions = eligible_positions(story, TaskKind.CAROUSEL, sample_vocab)
    assert len(positions) == 2  # the search-surface watch has no carousel
    ids = [sample_vocab.carousel_id_of_token[p.target_token] for p in positions]
    assert ids == ["after_dark_detours", "rainy_night_rewinds"]


def test_story_without_watches_has_no_positions(sample_vocab):
    story = UserStory("u", AttributeHeader(), segment_sessions(
        [search(SUNDAY, "fog"), search(SUNDAY + 60, "fog p")]))
    for kind in (TaskKind.ITEM_MASKED, TaskKind.CAROUSEL, TaskKind.SEARCH):
        assert eligible_positions(story, kind, sample_vocab) == []


# --- the candidate rule: a task ranks exactly what its targets can be ----------

@pytest.fixture(scope="module")
def worlds(sample_catalog, sample_vocab):
    catalog, stories, _ = generate_world(WorldConfig(
        n_users=40, n_items=60, n_carousels=16, n_genres=5, rng_seed=5))
    return {"generated": (catalog, stories, build_vocabulary(catalog)),
            "sample": (sample_catalog, [make_sample_story()], sample_vocab)}


@pytest.mark.parametrize("world", ["generated", "sample"])
def test_every_eligible_target_is_a_candidate(worlds, world):
    _, stories, vocab = worlds[world]
    for kind in TaskKind:
        candidates = set(candidate_set(kind, vocab))
        targets = {pos.target_token for story in stories
                   for pos in eligible_positions(story, kind, vocab)}
        assert targets and targets <= candidates, kind


@pytest.mark.parametrize("world", ["generated", "sample"])
def test_every_candidate_is_the_target_of_a_home_or_browse_watch(worlds, world):
    catalog, _, vocab = worlds[world]
    watches = [watch(SUNDAY, surface, carousel, item, 30)
               for surface in (Surface.HOME, Surface.BROWSE)
               for carousel in catalog.carousels for item in catalog.items]
    for kind in TaskKind:
        targets = {target_token(kind, w, vocab) for w in watches} - {None}
        assert targets == set(candidate_set(kind, vocab)), kind


def test_carousel_ranking_is_the_old_one_without_the_empty_carousel(
        sample_vocab):
    # the carousel candidates when every carousel token was one
    every = tuple(t for t, cls in enumerate(sample_vocab.classes)
                  if cls == CLASS_CAROUSEL)
    empty = sample_vocab.domain_to_id[b"<|carousel()|>"]
    assert empty in every
    rng = np.random.default_rng(0)
    normal = rng.normal(size=sample_vocab.size)
    for row in (normal, np.round(normal), np.zeros(sample_vocab.size)):
        old = [t for t, _ in rank_candidates(row, every).entries if t != empty]
        new = rank_candidates(row, candidate_set(TaskKind.CAROUSEL,
                                                 sample_vocab))
        assert [t for t, _ in new.entries] == old


# --- HR / NDCG ------------------------------------------------------------------

def test_hit_rate_values_from_definition():
    ranks = [1, 9, 200]
    assert hit_rate_at_k(ranks, 8) == pytest.approx(1 / 3)
    assert hit_rate_at_k(ranks, 50) == pytest.approx(2 / 3)
    assert hit_rate_at_k(ranks, 100) == pytest.approx(2 / 3)


def test_all_rank_one_hits_everywhere():
    ranks = [1, 1, 1, 1]
    for k in (1, 8, 50, 100):
        assert hit_rate_at_k(ranks, k) == 1.0
        assert ndcg_at_k(ranks, k) == 1.0


def test_ndcg_discounts():
    assert ndcg_at_k([1], 8) == 1.0
    assert ndcg_at_k([3], 8) == pytest.approx(0.5)  # 1/log2(4)
    assert ndcg_at_k([51], 50) == 0.0


def test_empty_records_error():
    with pytest.raises(EvalError):
        hit_rate_at_k([], 8)
    with pytest.raises(EvalError):
        ndcg_at_k([], 8)


def test_metrics_monotone_and_ndcg_below_hr():
    rng = np.random.default_rng(0)
    for _ in range(100):
        ranks = rng.integers(1, 300, size=rng.integers(1, 40)).tolist()
        last_hr = 0.0
        for k in (8, 50, 100):
            hr = hit_rate_at_k(ranks, k)
            nd = ndcg_at_k(ranks, k)
            assert hr >= last_hr
            assert nd <= hr + 1e-12
            last_hr = hr


def test_aggregation_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_cand = int(rng.integers(5, 60))
        candidates = np.sort(rng.choice(np.arange(300, 600), size=n_cand,
                                        replace=False))
        scores = np.round(rng.standard_normal(600), 2)  # coarse: forces ties
        target = int(rng.choice(candidates))
        got = rank_candidates(scores, candidates).rank_of(target)
        # brute force: materialize the full ordering, find the target
        ordering = sorted(candidates, key=lambda t: (-scores[t], t))
        assert got == ordering.index(target) + 1


# --- BM25 ------------------------------------------------------------------------

@pytest.fixture()
def bm25_fixture():
    items = (ItemRef("doc1", "fog pier"),
             ItemRef("doc2", "fog fog night"),
             ItemRef("doc3", "clockwork lifeguard"))
    return BM25Index.build(items)


def test_bm25_hand_computed_fixture(bm25_fixture):
    # query "fog": df=2 of N=3, idf = ln((3-2+0.5)/(2+0.5)+1) = ln(1.6)
    # avglen = (2+3+2)/3 = 7/3
    idf = math.log(1.6)
    tf1 = 1 * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 2 / (7 / 3)))
    tf2 = 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * 3 / (7 / 3)))
    # doc3 holds no query term, so it scores 0.0 and has no entry
    expected = {"doc1": idf * tf1, "doc2": idf * tf2}
    scores = bm25_fixture.scores("fog")
    assert scores == pytest.approx(expected, rel=1e-9)
    assert scores["doc2"] > scores["doc1"]


def test_bm25_absent_terms_score_zero(bm25_fixture):
    assert bm25_fixture.scores("zeppelin") == {}


def test_bm25_query_normalization(bm25_fixture):
    normalized = bm25_fixture.scores("FOG!  pier?")
    assert normalized == bm25_fixture.scores("fog pier")
    # doc1 matches both
    assert normalized["doc1"] == max(normalized.values()) > normalized["doc2"]


BM25_WORDS = ["fog", "pier", "night", "clockwork", "a1", "7"]


@given(titles=st.lists(st.lists(st.sampled_from(BM25_WORDS + ["!", "FOG"]),
                                max_size=6).map(" ".join),
                       min_size=1, max_size=12),
       query=st.lists(st.sampled_from(BM25_WORDS + ["zeppelin", "Pier?"]),
                      max_size=6).map(" ".join))
@settings(max_examples=300, deadline=None)
def test_bm25_postings_equal_the_title_scan_bit_for_bit(titles, query):
    # repeated query terms add their share again; absent ones add nothing
    items = [ItemRef(f"i{n}", title) for n, title in enumerate(titles)]
    want = bm25_scan_scores(items, query)
    got = BM25Index.build(reversed(items)).scores(query)
    query_terms = set(bm25_terms(query))
    assert set(got) == {item.item_id for item in items
                        if query_terms & set(bm25_terms(item.title))}
    assert {k: v.hex() for k, v in got.items()} == \
        {k: want[k].hex() for k in got}
    assert all(want[k] == 0.0 for k in set(want) - set(got))


def test_bm25_empty_catalog_rejected():
    with pytest.raises(EvalError, match="empty"):
        BM25Index.build(())


def test_bm25_flows_through_shared_harness(sample_vocab, sample_catalog):
    story = make_sample_story()
    cfg = EvalConfig(cutoffs=(1, 8))
    index = BM25Index.build(sample_catalog.items)
    rows = evaluate([Bm25Scorer(index)], [story], [TaskKind.SEARCH], cfg,
                    sample_vocab, config_hash="h")
    # query "lantern" matches exactly the watched title's distinctive term
    hr1 = next(r for r in rows if r["K"] == 1)
    assert hr1["hr"] == 1.0 and hr1["n_positions"] == 1
    assert hr1["config_hash"] == "h"


# --- harness ---------------------------------------------------------------------

def test_hand_constructed_logit_table_metrics(sample_vocab):
    story = make_sample_story()
    cfg = EvalConfig(cutoffs=(1, 2, 8))
    # hand table: SYN202 highest, SYN201 second; targets are SYN201, SYN202,
    # SYN201 -> item ranks (2, 1, 2)
    t201 = sample_vocab.item_token_to_id["SYN201"]
    t202 = sample_vocab.item_token_to_id["SYN202"]
    scorer = StaticScorer("table", {t202: 5.0, t201: 4.0})
    rows = evaluate([scorer], [story], [TaskKind.ITEM_MASKED], cfg, sample_vocab)
    by_k = {r["K"]: r for r in rows}
    assert by_k[1]["hr"] == pytest.approx(1 / 3)
    assert by_k[2]["hr"] == 1.0
    # NDCG: ranks (2,1,2) -> (1/log2(3) + 1 + 1/log2(3)) / 3
    expected = (2 / math.log2(3) + 1.0) / 3
    assert by_k[8]["ndcg"] == pytest.approx(expected, rel=1e-12)


def test_popularity_scorer_counts_watches(sample_vocab):
    story = make_sample_story()
    pop = popularity_scorer([story], sample_vocab)
    t201 = sample_vocab.item_token_to_id["SYN201"]
    assert pop.token_scores[t201] == 2
    rows = evaluate([pop], [story], [TaskKind.ITEM_MASKED, TaskKind.CAROUSEL],
                    EvalConfig(cutoffs=(1,)), sample_vocab)
    assert all(r["n_positions"] > 0 for r in rows)


def test_model_scorer_runs_and_respects_context(sample_vocab):
    cfg = ModelConfig(vocab_size=sample_vocab.size, context_length=96,
                      layers=1, heads=2, model_dim=16, dtype="float64")
    model = init_model(cfg, seed=1)
    rows = evaluate([ModelScorer(model)], [make_sample_story()],
                    [TaskKind.ITEM_MASKED, TaskKind.CAROUSEL, TaskKind.SEARCH],
                    EvalConfig(cutoffs=(8, 50)), sample_vocab)
    for row in rows:
        assert row["n_positions"] > 0
        assert 0.0 <= row["hr"] <= 1.0
        assert row["ndcg"] <= row["hr"] + 1e-12


def test_model_rows_equal_at_any_batch_size_and_share_stories(
        monkeypatch, worlds):
    # a watch scored for several tasks runs its story through the model once
    _, stories, vocab = worlds["generated"]
    model = init_model(ModelConfig(vocab_size=vocab.size, context_length=160,
                                   layers=2, heads=2, model_dim=16), seed=1)
    cfg = EvalConfig(cutoffs=(1, 8, 50), max_eval_users=3,
                     max_positions_per_user=6)
    kinds = [TaskKind.ITEM_MASKED, TaskKind.CAROUSEL, TaskKind.SEARCH]
    stories = [s for s in stories
               if eligible_positions(s, TaskKind.SEARCH, vocab)]
    rows = {"prompt": 0, "model": 0}
    forward, sequence_forward = Model.forward, model_module._forward

    def counting_forward(self, ids, slots=None, splits=None):
        rows["prompt"] += int(np.sum(np.asarray(slots) + 1))
        return forward(self, ids, slots, splits)

    def counting_sequence_forward(model, ids, need_cache, *args, **kwargs):
        rows["model"] += len(ids)
        return sequence_forward(model, ids, need_cache, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", counting_forward)
    monkeypatch.setattr(model_module, "_forward", counting_sequence_forward)
    want = evaluate([ModelScorer(model)], stories, kinds, cfg, vocab)
    assert 0 < rows["model"] < rows["prompt"]
    assert all(r["n_positions"] > 0 for r in want)
    for batch_size in (1, 3):
        assert evaluate([ModelScorer(model, batch_size=batch_size)], stories,
                        kinds, cfg, vocab) == want


def test_view_transform_strips_model_input_not_positions(sample_vocab):
    # an item-view model sees no queries at search positions, but the
    # positions themselves stay defined on the full story
    cfg = ModelConfig(vocab_size=sample_vocab.size, context_length=128,
                      layers=1, heads=2, model_dim=16, dtype="float64")
    model = init_model(cfg, seed=1)
    scorer = ModelScorer(model, name="item_view", transform={"view": "item"})
    story = make_sample_story()
    positions = eligible_positions(story, TaskKind.SEARCH, sample_vocab)
    prompt = position_prompt(scorer, positions[0], TaskKind.SEARCH,
                             sample_vocab)
    text = detokenize(prompt.token_ids, sample_vocab)
    assert "<|search|>" not in text.rsplit("<|watch|>", 1)[0]
    assert text.endswith("<|surface=search|><|carousel()|>")
    rows = evaluate([scorer], [story], [TaskKind.SEARCH],
                    EvalConfig(cutoffs=(8,)), sample_vocab)
    assert rows[0]["n_positions"] == 1


def test_item_task_kind_picks_the_prompt_head(sample_vocab):
    cfg = ModelConfig(vocab_size=sample_vocab.size, context_length=128,
                      layers=1, heads=2, model_dim=16, dtype="float64")
    scorer = ModelScorer(init_model(cfg, seed=1))
    story = make_sample_story()
    for pos in eligible_positions(story, TaskKind.ITEM_CONTEXTUAL, sample_vocab):
        prompt = position_prompt(scorer, pos, TaskKind.ITEM_CONTEXTUAL,
                                 sample_vocab)
        text = detokenize(prompt.token_ids, sample_vocab)
        assert text.endswith(
            f" <|watch|> hour={pos.context['hour']} "
            f"<|surface={pos.context['surface']}|>"
            f"<|carousel({pos.context['carousel']})|>")
    pos = eligible_positions(story, TaskKind.ITEM_MASKED, sample_vocab)[0]
    prompt = position_prompt(scorer, pos, TaskKind.ITEM_MASKED, sample_vocab)
    text = detokenize(prompt.token_ids, sample_vocab)
    assert text.endswith("<|surface=home|><|carousel(MASK)|>")


def test_empty_kind_reports_explicitly(sample_vocab):
    story = UserStory("u", AttributeHeader(), segment_sessions(
        [search(SUNDAY, "fog")]))
    rows = evaluate([StaticScorer("s", {})], [story], [TaskKind.CAROUSEL],
                    EvalConfig(cutoffs=(8, 50)), sample_vocab)
    assert len(rows) == 2
    assert all(r["n_positions"] == 0 and r["hr"] is None for r in rows)


def test_rows_hold_the_tasks_each_scorer_answers_for(monkeypatch,
                                                     sample_catalog):
    # no carousel but the empty one: the carousel task has neither
    # positions nor candidates, and still gets null rows; BM25 answers for
    # search alone
    catalog = CatalogIndex(sample_catalog.items, (EMPTY_CAROUSEL,))
    vocab = build_vocabulary(catalog)
    story = UserStory("u", AttributeHeader(), segment_sessions(
        [search(SUNDAY, "lantern"),
         watch(SUNDAY + 60, Surface.SEARCH, EMPTY_CAROUSEL, LANTERN, 87)]))
    model = init_model(ModelConfig(vocab_size=vocab.size, context_length=96,
                                   layers=1, heads=2, model_dim=16), seed=1)
    scorers = [ModelScorer(model), popularity_scorer([story], vocab),
               Bm25Scorer(BM25Index.build(catalog.items))]
    kinds = [TaskKind.CAROUSEL, TaskKind.ITEM_MASKED, TaskKind.SEARCH]
    rows = evaluate(scorers, [story], kinds, EvalConfig(cutoffs=(8,)), vocab)
    assert [(r["method"], r["task"], r["n_positions"], r["hr"] is None)
            for r in rows] == [
        ("model", "carousel", 0, True), ("popularity", "carousel", 0, True),
        ("model", "item_masked", 1, False),
        ("popularity", "item_masked", 1, False),
        ("model", "search", 1, False), ("popularity", "search", 1, False),
        ("bm25", "search", 1, False)]

    def no_forward(*args, **kwargs):
        raise AssertionError("the model ran for a task with no positions")

    monkeypatch.setattr(Model, "forward", no_forward)
    rows = evaluate(scorers, [story], [TaskKind.CAROUSEL],
                    EvalConfig(cutoffs=(8,)), vocab)
    assert [(r["method"], r["n_positions"]) for r in rows] == \
        [("model", 0), ("popularity", 0)]


def test_metrics_file_roundtrip(tmp_path, sample_vocab):
    rows = evaluate([StaticScorer("s", {})], [make_sample_story()],
                    [TaskKind.ITEM_MASKED], EvalConfig(cutoffs=(8,)),
                    sample_vocab, config_hash="abcd")
    path = tmp_path / "metrics.jsonl"
    write_metrics(path, rows, manifest_hash="m123")
    assert read_metrics(path) == rows
    table = format_table(rows)
    assert "HR@8" in table and "item_masked" in table


def test_max_positions_per_user_caps_from_the_end(sample_vocab):
    story = make_sample_story()
    cfg = EvalConfig(cutoffs=(8,), max_positions_per_user=1)
    rows = evaluate([StaticScorer("s", {})], [story], [TaskKind.ITEM_MASKED],
                    cfg, sample_vocab)
    assert rows[0]["n_positions"] == 1


def test_every_prefix_story_of_a_world_validates():
    # a prefix ends in its position's session, left empty at the session's
    # first event; that empty session is the one serve would open there
    _, stories, _ = generate_world(WorldConfig(n_users=40, n_items=60,
                                               n_carousels=16, n_genres=5,
                                               rng_seed=5))
    n = 0
    for story in stories:
        for si, sess in enumerate(story.sessions):
            for ei in range(len(sess.events)):
                prefix = _prefix_story(story, si, ei)
                assert validate_story(prefix) == [], (story.user_id, si, ei)
                assert validate_story(strip_sessions(prefix)) == [], \
                    (story.user_id, si, ei)
                n += 1
    assert n > 1000
