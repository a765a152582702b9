import pytest

from storyrank.datagen import (
    DatagenError,
    WorldConfig,
    build_catalog,
    generate_world,
    world_report,
)
from storyrank.grammar import serialize
from storyrank.stories import SearchEvent, Surface, WatchEvent, validate_story
from storyrank.vocab import build_vocabulary, tokenize

from oracles import detokenize, parse, story_signature


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
