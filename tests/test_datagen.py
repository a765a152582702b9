import hashlib

import numpy as np
import pytest

from storyrank.datagen import (
    DatagenError,
    WorldConfig,
    _cdf,
    _draw,
    _linspace,
    build_catalog,
    generate_world,
    world_report,
)
from storyrank.grammar import serialize
from storyrank.stories import SearchEvent, Surface, WatchEvent, \
    validate_story, write_stories
from storyrank.vocab import build_vocabulary, tokenize

from oracles import detokenize, parse, story_signature, world_stories

DESK_WORLD = {"n_items": 400, "n_carousels": 40, "n_genres": 10}


@pytest.fixture(scope="module")
def small_world():
    cfg = WorldConfig(n_users=120, n_items=60, n_carousels=16, n_genres=5,
                      rng_seed=11)
    return cfg, generate_world(cfg)


def test_generated_stories_validate(small_world):
    _, (catalog, stories, _) = small_world
    for story in stories:
        assert validate_story(story) == [], story.user_id


def test_generated_stories_roundtrip_through_grammar(small_world):
    # round-trip equality is on the serialized fields; the text carries no
    # absolute timestamps
    _, (catalog, stories, _) = small_world
    vocab = build_vocabulary(catalog)
    for story in stories[:60]:
        text = serialize(story)
        assert detokenize(tokenize(text, vocab), vocab) == text
        assert parse(text, catalog) == story_signature(story)


def test_search_flows_type_prefixes_of_the_watched_title(small_world):
    _, (catalog, stories, _) = small_world
    titles = {i.item_id: i.title for i in catalog.items}
    flows = 0
    for story in stories:
        for sess in story.sessions:
            pending = []
            for event in sess.events:
                if isinstance(event, SearchEvent):
                    pending.append(event.query)
                elif isinstance(event, WatchEvent):
                    if event.surface == Surface.SEARCH and pending:
                        flows += 1
                        title = titles[event.item.item_id].lower()
                        for q in pending:
                            if len(q) >= 3:
                                assert title.startswith(q), (q, title)
                        # keystroke states lengthen monotonically
                        assert [len(q) for q in pending] == \
                            sorted({len(q) for q in pending})
                    pending = []
    assert flows > 50


def test_full_prefix_search_probability_one():
    cfg = WorldConfig(n_users=30, n_items=40, n_carousels=12, n_genres=4,
                      search_before_watch_prob=1.0, keystroke_prefix_depth=2,
                      rng_seed=3)
    catalog, stories, _ = generate_world(cfg)
    for story in stories:
        for sess in story.sessions:
            preceding = 0
            for event in sess.events:
                if isinstance(event, SearchEvent):
                    preceding += 1
                elif isinstance(event, WatchEvent):
                    assert event.surface == Surface.SEARCH
                    assert preceding >= 1
                    preceding = 0


def test_mean_events_per_user_tracks_config():
    cfg = WorldConfig(n_users=2500, n_items=80, n_carousels=16, n_genres=5,
                      rng_seed=8)
    _, stories, _ = generate_world(cfg)
    events = sum(1 for s in stories for _ in s.events())
    mean = events / len(stories)
    assert abs(mean - cfg.mean_events_per_user) / cfg.mean_events_per_user < 0.10
    sessions = sum(len(s.sessions) for s in stories) / len(stories)
    assert abs(sessions - cfg.mean_sessions_per_user) < 0.10 * cfg.mean_sessions_per_user


def test_world_is_deterministic(small_world):
    cfg, (catalog, stories, genres) = small_world
    catalog2, stories2, genres2 = generate_world(cfg)
    assert catalog2 == catalog
    assert stories2 == stories
    assert genres2 == genres


def test_report_has_table_row_names(small_world):
    _, (catalog, stories, _) = small_world
    report = world_report(stories)
    assert list(report.keys()) == [
        "Sampled viewers", "Unique titles", "Unique carousels",
        "Total watches", "Total searches", "Surfaces",
        "Avg. events/viewer", "Avg. sessions/viewer",
    ]
    assert report["Sampled viewers"] == len(stories)
    assert "Search" in report["Surfaces"]


def test_report_matches_brute_force_recount(small_world):
    _, (catalog, stories, _) = small_world
    report = world_report(stories)
    watches = searches = 0
    for story in stories:
        for sess in story.sessions:
            for e in sess.events:
                if isinstance(e, WatchEvent):
                    watches += 1
                else:
                    searches += 1
    assert report["Total watches"] == watches
    assert report["Total searches"] == searches
    assert report["Avg. events/viewer"] == round((watches + searches) / len(stories), 2)


def test_single_user_world_report():
    cfg = WorldConfig(n_users=1, n_items=20, n_carousels=8, n_genres=3,
                      rng_seed=2)
    _, stories, _ = generate_world(cfg)
    report = world_report(stories)
    assert report["Sampled viewers"] == 1
    assert report["Avg. sessions/viewer"] == len(stories[0].sessions)


def test_catalog_includes_empty_carousel(small_world):
    _, (catalog, stories, _) = small_world
    assert "" in {c.carousel_id for c in catalog.carousels}
    vocab = build_vocabulary(catalog)
    assert "<|carousel()|>".encode() in vocab.domain_to_id


def test_infeasible_configs_rejected():
    with pytest.raises(DatagenError):
        WorldConfig(n_items=0)
    with pytest.raises(DatagenError):
        WorldConfig(n_items=5, n_genres=9)
    with pytest.raises(DatagenError):
        WorldConfig(search_before_watch_prob=1.5)
    # beyond the title space build_catalog would draw duplicates forever
    WorldConfig(n_items=8400)
    with pytest.raises(DatagenError, match="8400 distinct item titles"):
        WorldConfig(n_items=8401)


def test_titles_unique_and_genre_assignment_total():
    cfg = WorldConfig(n_users=1, n_items=200, n_carousels=30, n_genres=8)
    items, carousels = build_catalog(cfg)
    titles = [it.ref.title for it in items]
    assert len(set(titles)) == len(titles)
    assert len(carousels) == 30
    assert {it.genre for it in items} == set(
        __import__("storyrank.datagen", fromlist=["GENRE_POOL"]).GENRE_POOL[:8])


# --- the generator against its first version (tests/oracles.py) ------------------

@pytest.mark.parametrize("overrides", [
    dict(DESK_WORLD, n_users=40),
    dict(DESK_WORLD, n_users=30, rng_seed=5),
    dict(n_users=20, n_items=30, n_carousels=12, n_genres=1, rng_seed=2),
    dict(n_users=20, n_items=1, n_carousels=1, n_genres=1, rng_seed=3),
    # fewer carousels than genre rows: some genres fall back to no row
    dict(n_users=20, n_items=50, n_carousels=3, n_genres=5, rng_seed=4),
    dict(DESK_WORLD, n_users=20, rewatch_prob=0.0, rng_seed=6),
    dict(DESK_WORLD, n_users=20, rewatch_prob=1.0, rng_seed=7),
    dict(DESK_WORLD, n_users=20, search_before_watch_prob=0.0, rng_seed=8),
    dict(DESK_WORLD, n_users=20, search_before_watch_prob=1.0, rng_seed=9),
    dict(n_users=12, n_items=8000, n_carousels=60, n_genres=12, rng_seed=10),
] + [dict(DESK_WORLD, n_users=8, search_before_watch_prob=0.8,
          keystroke_prefix_depth=depth, rng_seed=20 + depth)
     for depth in range(1, 9)])
def test_world_equals_the_per_user_oracle(overrides):
    cfg = WorldConfig(**overrides)
    assert generate_world(cfg)[1] == world_stories(cfg)


def test_draw_consumes_the_stream_as_choice_does():
    probe = np.random.Generator(np.random.Philox(key=[0, 1]))
    ours = np.random.Generator(np.random.Philox(key=[5, 6]))
    theirs = np.random.Generator(np.random.Philox(key=[5, 6]))
    for n in (1, 2, 3, 10, 400):
        for _ in range(5):
            p = probe.dirichlet(np.full(n, 0.12))
            cdf = _cdf(p)
            for _ in range(2000):
                assert _draw(ours, cdf) == theirs.choice(n, p=p)
    assert ours.random() == theirs.random()


def test_linspace_matches_numpy_bit_for_bit():
    # query prefixes end at 4..12 bytes; depths far beyond any config too
    for final in range(-3, 41):
        for num in range(65):
            ours = [x.hex() for x in _linspace(3, final, num)]
            assert ours == [x.hex() for x in np.linspace(3, final, num).tolist()], \
                (final, num)


def test_desk_world_file_is_pinned(tmp_path):
    # recorded when the generator was first written; a change here shifts
    # every benchmark digest and trained model downstream of gen-data
    _, stories, _ = generate_world(WorldConfig(n_users=60, **DESK_WORLD))
    write_stories(tmp_path / "stories.jsonl", stories)
    digest = hashlib.sha256((tmp_path / "stories.jsonl").read_bytes()).hexdigest()
    assert digest == \
        "c4b7b295a977c3af9df3785e5f8ba38c2007794041b8fa6bd16b1b9ca4e5817c"
