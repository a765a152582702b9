import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyrank.grammar import (
    serialize,
    strip_attributes,
    strip_sessions,
    strip_view,
)
from storyrank.stories import (
    AttributeHeader,
    EMPTY_CAROUSEL,
    Surface,
    UserStory,
    ValidationError,
    WatchEvent,
    search,
    segment_sessions,
    validate_story,
    watch,
)

from conftest import LANTERN, SAMPLE_TEXT, SUNDAY, make_sample_story
from oracles import ParseError, parse, parse_prompt, story_signature


def test_serialize_sample_story_matches_expected_text():
    assert serialize(make_sample_story()) == SAMPLE_TEXT


def test_watch_clause_surface_form():
    text = serialize(make_sample_story())
    assert ("<|watch|> hour=3 <|surface=search|><|carousel()|>"
            "<|id(SYN201|The Lantern at Exit 13)|> 87m") in text


def test_search_as_you_type_clauses_stay_ordered():
    text = serialize(make_sample_story())
    assert "<|search|> hour=3 lan <|search|> hour=3 lantern" in text


def test_zero_session_story_is_header_plus_marker():
    story = UserStory("u", AttributeHeader((("country", "US"),)), ())
    assert serialize(story) == "country=US <|begin_sessions|>"
    story = UserStory("u", AttributeHeader(), ())
    assert serialize(story) == "<|begin_sessions|>"


def test_serialize_rejects_invalid_story():
    story = make_sample_story()
    story = dataclasses.replace(
        story, attributes=AttributeHeader((("country", "US"), ("country", "X"))))
    with pytest.raises(ValidationError):
        serialize(story)


def test_roundtrip_on_sample_journey():
    story = make_sample_story()
    assert parse(serialize(story)) == story_signature(story)


def test_gap_bridging_watches_roundtrip():
    # hour jumps inside one session are only feasible because watch duration
    # extends activity
    events = [
        watch(SUNDAY + 3 * 3600 + 3500, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 30),
        watch(SUNDAY + 5 * 3600 + 1200, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 5),
    ]
    story = UserStory("u", AttributeHeader(), segment_sessions(events))
    assert validate_story(story) == []
    assert parse(serialize(story)) == story_signature(story)


def test_unknown_surface_reports_offset_and_expectation():
    text = SAMPLE_TEXT.replace("<|surface=search|>", "<|surface=kiosk|>", 1)
    with pytest.raises(ParseError, match="unknown surface 'kiosk'") as exc_info:
        parse(text)
    offset = exc_info.value.byte_offset
    assert text.encode()[offset:offset + 5] == b"kiosk"


@pytest.mark.parametrize("breakage, expected", [
    (lambda t: t.replace("<|begin_sessions|> ", "", 1), "begin_sessions"),
    (lambda t: t.replace("elapsed=0h", "elapsed=h", 1), "integer"),
    (lambda t: t.replace(" 87m", "", 1), "duration"),
    (lambda t: t.replace("day=6 <|search|> hour=3 lan ", "day=6 <|search|> hour=3 ", 1),
     "query"),
    (lambda t: t + " <|junk|>", "clause"),
    (lambda t: t.replace("hour=22", "hour=31", 1), "hour"),
])
def test_grammar_violations_name_expected_token(breakage, expected):
    with pytest.raises(ParseError, match=expected):
        parse(breakage(SAMPLE_TEXT))


def test_parse_errors_report_earliest_violation():
    text = SAMPLE_TEXT.replace("<|surface=search|>", "<|surface=kiosk|>", 1) \
                      .replace("<|surface=home|>", "<|surface=mars|>", 1)
    with pytest.raises(ParseError, match="kiosk"):
        parse(text)


def test_parse_validates_titles_against_catalog(sample_catalog):
    parse(SAMPLE_TEXT, sample_catalog)  # canonical titles pass
    text = SAMPLE_TEXT.replace("Violet Static Motel", "Violet Static Hotel")
    with pytest.raises(ValidationError, match="title mismatch"):
        parse(text, sample_catalog)
    # items absent from the catalog are tolerated
    text = SAMPLE_TEXT.replace("SYN202", "SYN999")
    parse(text, sample_catalog)


def test_attribute_values_with_spaces_roundtrip():
    story = dataclasses.replace(
        make_sample_story(),
        attributes=AttributeHeader((("device", "smart tv"), ("country", "US"))))
    text = serialize(story)
    assert text.startswith("device=smart tv country=US <|begin_sessions|>")
    assert parse(text) == story_signature(story)
    assert parse(text)[0] == (("device", "smart tv"), ("country", "US"))


# --- task views -------------------------------------------------------------

def test_search_view_on_sample_journey():
    view = strip_view(make_sample_story(), "search")
    events = [e for s in view.sessions for e in s.events]
    kinds = [type(e).__name__ for e in events]
    assert kinds == ["SearchEvent", "SearchEvent", "WatchEvent"]
    assert events[2].item.item_id == "SYN201"
    assert events[2].surface == Surface.SEARCH
    assert len(view.sessions) == 2  # structure preserved, second now empty
    assert view.sessions[1].events == ()
    text = serialize(view, validate=False)
    assert text.count("<|search|>") == 2
    assert text.count("<|watch|>") == 1
    assert text.count("<|session|>") == 2


def test_item_view_blanks_carousels_and_drops_searches():
    view = strip_view(make_sample_story(), "item")
    events = [e for s in view.sessions for e in s.events]
    assert all(isinstance(e, WatchEvent) for e in events)
    assert len(events) == 3
    assert all(e.carousel == EMPTY_CAROUSEL for e in events)
    assert [e.surface for e in events] == [Surface.SEARCH, Surface.HOME, Surface.HOME]
    assert all(e.duration_minutes is not None for e in events)


def test_carousel_view_drops_item_information():
    text = serialize(strip_view(make_sample_story(), "carousel"), validate=False)
    assert "<|id(" not in text
    assert "87m" not in text and "50m" not in text
    assert "<|carousel(after_dark_detours)|>" in text
    assert "<|search|>" not in text


def test_view_events_come_from_the_original():
    story = make_sample_story()
    original = {(e.timestamp, type(e).__name__) for s in story.sessions for e in s.events}
    for view in ("item", "carousel", "search"):
        stripped = strip_view(story, view)
        for s in stripped.sessions:
            for e in s.events:
                assert (e.timestamp, type(e).__name__) in original


@pytest.mark.parametrize("view", ["item", "carousel", "search"])
def test_views_are_idempotent(view):
    once = strip_view(make_sample_story(), view)
    assert strip_view(once, view) == once


def test_unknown_view_rejected():
    with pytest.raises(ValueError, match="unknown view"):
        strip_view(make_sample_story(), "queries")


# --- session stripping ------------------------------------------------------

def test_strip_sessions_yields_flat_stream():
    story = make_sample_story()
    flat = strip_sessions(story)
    text = serialize(flat, validate=False)
    assert "<|session|>" not in text
    assert "elapsed=" not in text and "day=" not in text
    assert text.count("<|watch|>") == 3
    assert text.count("<|search|>") == 2
    # event order preserved
    assert [e.hour for s in flat.sessions for e in s.events] == \
        [e.hour for s in story.sessions for e in s.events]


def test_strip_sessions_on_zero_session_story_keeps_header():
    story = UserStory("u", AttributeHeader((("country", "US"),)), ())
    assert serialize(strip_sessions(story), validate=False) == \
        "country=US <|begin_sessions|>"


def test_sessionless_text_roundtrips():
    flat = strip_sessions(make_sample_story())
    back = parse(serialize(flat, validate=False))
    assert back[1]  # sessionless
    # the text has no session boundaries, so its events parse into one
    # container
    sig = story_signature(flat)
    events = tuple(e for _, session_events in sig[2:] for e in session_events)
    assert back == (*sig[:2], ((None, None), events))


def test_strip_sessions_token_budget(sample_vocab):
    from storyrank.vocab import tokenize
    full = tokenize(SAMPLE_TEXT, sample_vocab)
    flat = tokenize(serialize(strip_sessions(make_sample_story()), validate=False),
                    sample_vocab)
    # decrease equals the exact tokenized footprint of each removed clause
    removed = sum(len(tokenize(" <|session|> elapsed={}h day={}".format(e, d),
                               sample_vocab))
                  for e, d in [(0, 6), (16, 6)])
    assert len(full) - len(flat) == removed


# --- attribute stripping ----------------------------------------------------

def test_strip_attributes_all_leaves_empty_header():
    text = serialize(strip_attributes(make_sample_story(), "all"), validate=False)
    assert text.startswith("<|begin_sessions|>")
    assert parse(text)[0] == ()


def test_strip_attributes_location_removes_location_class_keys():
    story = strip_attributes(make_sample_story(), "location")
    assert story.attributes.pairs == (("device", "tv"),)
    story = strip_attributes(make_sample_story(), "profile")
    assert story.attributes.pairs == (("country", "US"),)


def test_strip_attributes_roundtrips():
    for which in ("all", "profile", "location"):
        story = strip_attributes(make_sample_story(), which)
        assert parse(serialize(story, validate=False)) == story_signature(story)


def test_strip_attributes_unknown_subset():
    with pytest.raises(ValueError, match="unknown attribute subset"):
        strip_attributes(make_sample_story(), "weather")


# --- prompt-mode parsing ----------------------------------------------------

@pytest.mark.parametrize("head", [
    "<|watch|> hour=4 <|surface=home|><|carousel(MASK)|>",
    "<|watch|> hour=4 <|surface=home|>",
    "<|search|> hour=4 fog <|watch|> hour=4 <|surface=search|><|carousel()|>",
])
def test_prompt_heads_reparse(head):
    parse_prompt(SAMPLE_TEXT + " " + head)


def test_prompt_with_candidate_and_no_duration_reparses():
    text = (SAMPLE_TEXT + " <|watch|> hour=4 <|surface=home|><|carousel(MASK)|>"
            "<|id(SYN302|Fog on Marigold Pier)|>")
    last_clause, last_events = parse_prompt(text)[-1]
    assert last_events[-1] == ("watch", 4, "home", "MASK", "SYN302",
                               "Fog on Marigold Pier", None)


def test_strict_parse_rejects_partial_watch():
    with pytest.raises(ParseError):
        parse(SAMPLE_TEXT + " <|watch|> hour=4 <|surface=home|>")


# --- property: random stories roundtrip --------------------------------------

@st.composite
def random_story(draw):
    n = draw(st.integers(1, 12))
    t = SUNDAY + draw(st.integers(0, 86400))
    events = []
    for _ in range(n):
        t += draw(st.integers(0, 3 * 3600))
        if draw(st.booleans()):
            q = draw(st.sampled_from(["fog", "lan", "lantern", "static motel"]))
            events.append(search(t, q))
        else:
            dur = draw(st.integers(0, 120))
            surf = draw(st.sampled_from([Surface.HOME, Surface.BROWSE,
                                         Surface.AUTOPLAY, Surface.SEARCH]))
            carousel = EMPTY_CAROUSEL if surf == Surface.SEARCH else \
                draw(st.sampled_from([EMPTY_CAROUSEL,
                                      dataclasses.replace(EMPTY_CAROUSEL,
                                                          carousel_id="after_dark_detours")]))
            events.append(watch(t, surf, carousel, LANTERN, dur))
    attrs = AttributeHeader(tuple(draw(st.sampled_from(
        [(), (("country", "US"),), (("country", "BR"), ("device", "mobile"))]))))
    return UserStory("u", attrs, segment_sessions(events))


@given(random_story())
@settings(max_examples=150, deadline=None)
def test_random_stories_roundtrip_exactly(story):
    # the round-trip contract is on serialized fields (the text carries no
    # absolute timestamps)
    assert parse(serialize(story)) == story_signature(story)


def test_tight_elapsed_chain_roundtrips():
    # a 3601s gap (elapsed=1) sits right at the session-split boundary
    events = [
        watch(SUNDAY, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 0),
        watch(SUNDAY + 3601, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 0),
        watch(SUNDAY + 3601, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 0),
        watch(SUNDAY + 2 * 3601, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 0),
    ]
    story = UserStory("u", AttributeHeader(), segment_sessions(events))
    assert len(story.sessions) == 3
    assert parse(serialize(story)) == story_signature(story)
