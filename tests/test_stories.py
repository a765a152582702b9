import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storyrank.stories import (
    AttributeHeader,
    CarouselRef,
    EMPTY_CAROUSEL,
    ItemRef,
    SearchEvent,
    Session,
    Surface,
    UserStory,
    ValidationError,
    WatchEvent,
    day_of_week,
    event_from_dict,
    event_to_dict,
    hour_of_day,
    read_stories,
    search,
    segment_sessions,
    story_from_dict,
    story_to_dict,
    validate_story,
    watch,
    write_stories,
)

from storyrank.prompts import open_session

from conftest import SUNDAY, LANTERN, assert_path_into, json_text, \
    make_sample_story, mutated

T0 = SUNDAY + 9 * 3600  # Sunday 09:00


def test_day_of_week_anchor():
    assert day_of_week(0) == 3            # 1970-01-01 was a Thursday
    assert day_of_week(4 * 86400) == 0    # 1970-01-05 Monday
    assert day_of_week(SUNDAY) == 6


def test_two_events_half_hour_apart_share_a_session():
    sessions = segment_sessions([search(T0, "fog"), search(T0 + 1800, "foggy")])
    assert len(sessions) == 1
    assert len(sessions[0].events) == 2
    assert sessions[0].elapsed_hours == 0


def test_two_events_two_hours_apart_split_with_elapsed_two():
    sessions = segment_sessions([search(T0, "fog"), search(T0 + 2 * 3600, "fog")])
    assert len(sessions) == 2
    assert sessions[1].elapsed_hours == 2
    assert sessions[1].start_time == T0 + 2 * 3600


def test_gap_measured_from_end_of_watch_activity():
    # An 87-minute watch at hour 3 followed by a watch at hour 5 is one
    # session: the gap counts from the end of playback, not its start.
    events = [
        watch(SUNDAY + 3 * 3600, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 87),
        watch(SUNDAY + 5 * 3600, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 10),
    ]
    assert len(segment_sessions(events)) == 1


def _brute_force_boundaries(timestamps):
    """Independent simulation of the two session rules over search events
    (gap from previous event, 12h first-to-last span)."""
    boundaries = [0]
    start = timestamps[0]
    prev = timestamps[0]
    for i, t in enumerate(timestamps[1:], 1):
        if t - prev > 3600 or t - start > 12 * 3600:
            boundaries.append(i)
            start = t
        prev = t
    return boundaries


@pytest.mark.parametrize("n_events", [13, 14, 15, 16, 20])
def test_span_cap_splits_before_the_overflowing_event(n_events):
    timestamps = [T0 + 3300 * k for k in range(n_events)]  # 55 minutes apart
    sessions = segment_sessions([search(t, "fog") for t in timestamps])
    expected = _brute_force_boundaries(timestamps)
    got = []
    idx = 0
    for s in sessions:
        got.append(idx)
        idx += len(s.events)
    assert got == expected
    for s in sessions:
        assert s.events[-1].timestamp - s.start_time <= 12 * 3600


def test_unsorted_input_names_first_offending_index():
    events = [search(T0, "a"), search(T0 + 10, "b"), search(T0 + 5, "c")]
    with pytest.raises(ValidationError, match=r"events\[2\]"):
        segment_sessions(events)


def test_empty_input_rejected():
    with pytest.raises(ValidationError):
        segment_sessions([])


def test_sample_story_is_valid():
    assert validate_story(make_sample_story()) == []


def test_search_surface_watch_with_carousel_is_flagged():
    story = make_sample_story()
    sess = story.sessions[0]
    bad = dataclasses.replace(sess.events[2], carousel=CarouselRef("after_dark"))
    story = _swap_event(story, 0, 2, bad)
    violations = validate_story(story)
    assert len(violations) == 1
    assert "carousel" in violations[0].message
    assert violations[0].path == "sessions[0].events[2]"


def test_internal_ninety_minute_gap_is_flagged():
    events = [search(T0, "fog"), search(T0 + 90 * 60, "fog")]
    sessions = (Session(T0, 0, day_of_week(T0), tuple(events)),)
    story = UserStory("u", AttributeHeader(), sessions)
    violations = validate_story(story)
    assert len(violations) == 1
    assert "1 hour" in violations[0].message


def _swap_event(story, si, ei, new_event):
    sess = story.sessions[si]
    events = list(sess.events)
    events[ei] = new_event
    sessions = list(story.sessions)
    sessions[si] = dataclasses.replace(sess, events=tuple(events))
    return dataclasses.replace(story, sessions=tuple(sessions))


@pytest.mark.parametrize("mutate, fragment", [
    (lambda s: _swap_event(s, 0, 0, dataclasses.replace(s.sessions[0].events[0], hour=7)),
     "does not match timestamp"),
    (lambda s: _swap_event(s, 0, 0, dataclasses.replace(s.sessions[0].events[0], query="")),
     "query is empty"),
    (lambda s: _swap_event(s, 0, 2, dataclasses.replace(
        s.sessions[0].events[2], item=ItemRef("SYN|201", "x"))),
     "reserved"),
    (lambda s: _swap_event(s, 0, 2, dataclasses.replace(
        s.sessions[0].events[2], item=ItemRef("SYN201<", "x"))),
     "ends with '<'"),
    (lambda s: dataclasses.replace(
        s, attributes=AttributeHeader((("country", "US"), ("country", "CA")))),
     "duplicate attribute key"),
    (lambda s: dataclasses.replace(s, sessions=(
        s.sessions[0],
        dataclasses.replace(s.sessions[1], elapsed_hours=3))),
     "elapsed_hours"),
])
def test_single_mutation_yields_exactly_that_violation(mutate, fragment):
    story = mutate(make_sample_story())
    violations = validate_story(story)
    assert len(violations) == 1, violations
    assert fragment in violations[0].message


event_stream = st.lists(
    st.tuples(st.booleans(), st.integers(0, 4 * 3600), st.integers(0, 90)),
    min_size=1, max_size=40,
).map(lambda raw: _materialize(raw))


def _materialize(raw):
    t = SUNDAY
    events = []
    for is_watch, gap, dur in raw:
        t += gap
        if is_watch:
            events.append(watch(t, Surface.BROWSE, EMPTY_CAROUSEL, LANTERN, dur))
        else:
            events.append(search(t, "fog"))
    return events


@given(event_stream)
@settings(max_examples=200, deadline=None)
def test_segmentation_is_a_partition(events):
    sessions = segment_sessions(events)
    flattened = [e for s in sessions for e in s.events]
    assert flattened == events  # identity and order


@given(event_stream)
@settings(max_examples=200, deadline=None)
def test_segmentation_is_idempotent(events):
    first = segment_sessions(events)
    again = segment_sessions([e for s in first for e in s.events])
    assert [s.start_time for s in again] == [s.start_time for s in first]
    assert [len(s.events) for s in again] == [len(s.events) for s in first]


@given(event_stream)
@settings(max_examples=100, deadline=None)
def test_segmented_streams_validate(events):
    story = UserStory("u", AttributeHeader((("country", "US"),)),
                      segment_sessions(events))
    assert validate_story(story) == []


def test_session_after_a_cap_split_validates():
    # 15 overlapping 110-minute watches 3,000 s apart: the 12h cap closes the
    # first session while its last watch still plays (until T0 + 48,600).
    # The search at T0 + 45,000 opens session 1, and the one 3,700 s later
    # opens session 2, whose gap and elapsed hours count from session 1's end,
    # not from the later end of session 0.
    events = [watch(T0 + 3000 * k, Surface.HOME, EMPTY_CAROUSEL, LANTERN, 110)
              for k in range(15)]
    events += [search(T0 + 45000, "fog"), search(T0 + 48700, "fog")]
    sessions = segment_sessions(events)
    assert [len(s.events) for s in sessions] == [15, 1, 1]
    assert [s.elapsed_hours for s in sessions] == [0, 0, 1]
    story = UserStory("u", AttributeHeader(), sessions)
    assert validate_story(story) == []


cap_split_stream = st.lists(
    st.tuples(st.booleans(), st.integers(50 * 60, 70 * 60),
              st.integers(60, 180)),
    min_size=1, max_size=40,
).map(lambda raw: _materialize(raw))


@given(cap_split_stream)
@settings(max_examples=200, deadline=None)
def test_segmented_streams_with_long_watches_validate(events):
    # gaps around an hour and watches that outlast them, so the 12h cap
    # splits sessions while a watch still plays
    story = UserStory("u", AttributeHeader(), segment_sessions(events))
    assert validate_story(story) == []


def test_interchange_roundtrip():
    story = make_sample_story()
    assert story_from_dict(story_to_dict(story)) == story


def test_elapsed_hours_in_interchange_match_sample():
    d = story_to_dict(make_sample_story())
    assert [s["elapsed_hours"] for s in d["sessions"]] == [0, 16]
    assert [s["day_of_week"] for s in d["sessions"]] == [6, 6]


def _derived_sessions(groups):
    """Sessions over event groups with start, elapsed hours and day computed
    here from the events, apart from the library's own derivation."""
    sessions, previous_end = [], None
    for group in groups:
        start = group[0].timestamp
        elapsed = 0 if previous_end is None else max(0, (start - previous_end) // 3600)
        sessions.append(Session(start, elapsed, day_of_week(start), tuple(group)))
        previous_end = max(e.end_time for e in group)
    return tuple(sessions)


@st.composite
def cut_stream(draw):
    """An event stream cut into groups: at the segmenter's boundaries, or at
    random points near them."""
    events = draw(st.one_of(event_stream, cap_split_stream))
    if draw(st.booleans()):
        return events, [list(s.events) for s in segment_sessions(events)]
    cuts = [draw(st.booleans()) for _ in events[1:]]
    groups = [[events[0]]]
    for event, cut in zip(events[1:], cuts):
        if cut:
            groups.append([])
        groups[-1].append(event)
    return events, groups


@given(cut_stream())
@settings(max_examples=300, deadline=None)
def test_a_cut_stream_validates_exactly_when_it_is_the_segmentation(cut):
    events, groups = cut
    story = UserStory("u", AttributeHeader(), _derived_sessions(groups))
    assert (validate_story(story) == []) == \
        (story.sessions == segment_sessions(events))


@given(cut_stream())
@settings(max_examples=200, deadline=None)
def test_any_grouping_validates_when_sessionless(cut):
    _, groups = cut
    story = UserStory("u", AttributeHeader(), _derived_sessions(groups),
                      sessionless=True)
    assert validate_story(story) == []


@pytest.mark.parametrize("sessionless", [False, True])
def test_story_with_decreasing_timestamps_is_refused(sessionless):
    # each session is in order and the sessions start in order, but the
    # stream goes back in time across the boundary; the story is refused
    # with that violation alone, not segmented
    groups = [[search(T0, "fog"), search(T0 + 600, "fog")],
              [search(T0 + 300, "fog")]]
    story = UserStory("u", AttributeHeader(), _derived_sessions(groups),
                      sessionless=sessionless)
    violations = validate_story(story)
    assert [v.path for v in violations] == ["sessions[1].events[0]"]
    assert "out of order" in violations[0].message


@pytest.mark.parametrize("sessionless", [False, True])
def test_an_empty_session_before_the_last_is_refused(sessionless):
    story = make_sample_story()
    first, second = story.sessions
    empty = Session(second.start_time, second.elapsed_hours,
                    second.day_of_week, ())
    story = dataclasses.replace(story, sessions=(first, empty, second),
                                sessionless=sessionless)
    violations = validate_story(story)
    assert [str(v) for v in violations] == \
        ["sessions[1]: only the last session may be empty"]


def test_trailing_empty_session_is_the_one_open_session_appends():
    story = make_sample_story()
    later = story.sessions[-1].end_time + 2 * 3600 + 5
    opened = open_session(story, later)
    assert opened.sessions[-1] == Session(later, 2, day_of_week(later), ())
    assert validate_story(opened) == []
    wrong = dataclasses.replace(opened, sessions=story.sessions + (
        Session(later, 1, day_of_week(later), ()),))
    assert [str(v) for v in validate_story(wrong)] == \
        ["sessions[2]: elapsed_hours 1 != 2 from the events"]


@pytest.mark.parametrize("sessionless", [False, True])
def test_trailing_empty_session_while_the_viewer_is_active_is_refused(sessionless):
    # 30 minutes after the last activity the viewer is still in the last
    # session, so no new one opens; a sessionless story takes its grouping
    # as given and may end in such a session
    story = make_sample_story()
    now = story.sessions[-1].end_time + 1800
    story = dataclasses.replace(story, sessionless=sessionless,
                                sessions=story.sessions + (
                                    Session(now, 0, day_of_week(now), ()),))
    violations = validate_story(story)
    if sessionless:
        assert violations == []
    else:
        assert [str(v) for v in violations] == \
            ["sessions[2]: empty last session does not open a new session"]


def test_sessionless_trailing_empty_session_before_the_last_event_is_refused():
    # after the last session's start but before its last event
    first = make_sample_story().sessions[0]
    now = first.events[1].timestamp
    story = UserStory("u", AttributeHeader(), (
        first, Session(now, 0, day_of_week(now), ())), sessionless=True)
    assert [str(v) for v in validate_story(story)] == \
        ["sessions[1]: empty last session does not open a new session"]


@pytest.mark.parametrize("value", [True, False, "no", "false", 0, 1, None, []])
def test_sessionless_must_be_a_json_boolean(value):
    d = story_to_dict(make_sample_story())
    d["sessionless"] = value
    if type(value) is bool:
        assert story_from_dict(d).sessionless is value
    else:
        with pytest.raises(ValidationError,
                           match=r"^sessionless: expected true or false"):
            story_from_dict(d)


def test_watch_with_an_item_id_but_no_title_is_refused(tmp_path):
    # an absent title would read as "" and be written back as "title": ""
    d = story_to_dict(make_sample_story())
    first_watch = d["sessions"][0]["events"][2]
    del first_watch["title"]
    path = tmp_path / "stories.jsonl"
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="item_id but no title"):
        read_stories(path)
    first_watch["title"] = ""  # an explicit empty title round-trips
    assert story_to_dict(story_from_dict(d)) == d
    del first_watch["item_id"]  # a title alone is left to validate_story
    assert story_from_dict(d).sessions[0].events[2].item is None


@pytest.mark.parametrize("field, value, message", [
    ("user_id", 5, r"^user_id: expected a string, got 5$"),
    ("user_id", None, r"^user_id: expected a string, got None$"),
    ("attributes", {"ab": "cd"}, r"^attributes: expected a list, got \{'ab': 'cd'\}$"),
    ("attributes", "ab", r"^attributes: expected a list, got 'ab'$"),
    ("attributes", ["ab"], r"^attributes\[0\]: expected a \[key, value\] pair "
                           r"of strings, got 'ab'$"),
    ("attributes", [["country", "US"], ["device", "tv", "x"]],
     r"^attributes\[1\]: expected a \[key, value\] pair of strings"),
    ("attributes", [["country", 7]], r"^attributes\[0\]: expected a \[key, value\]"),
])
def test_user_id_and_attributes_must_have_their_json_types(field, value, message):
    # a dict iterates as its keys: {"ab": "cd"} would read as ("a", "b")
    d = story_to_dict(make_sample_story())
    d[field] = value
    with pytest.raises(ValidationError, match=message):
        story_from_dict(d)
    d[field] = story_to_dict(make_sample_story())[field]
    assert story_from_dict(d) == make_sample_story()


# --- the decoders: refused by path, or read exactly as written ---------------

SAMPLE_DICT = story_to_dict(make_sample_story())
EVENT_KEYS = ("extra", "type", "timestamp", "hour", "surface", "carousel",
              "item_id", "title", "duration_minutes", "query")


@given(mutated(SAMPLE_DICT, new_keys=("extra", "sessionless", "_manifest",
                                      "user_id", "events", "start_time")))
@settings(max_examples=400, deadline=None)
def test_mutated_story_is_refused_by_path_or_round_trips(d):
    try:
        story = story_from_dict(d)
    except ValidationError as exc:
        assert_path_into(d, str(exc))
        return
    violations = validate_story(story)
    for v in violations:  # what every reader refuses next, also by path
        assert_path_into(d, f"{v.path}: {v.message}")
    if not violations:
        if d.get("sessionless") is False:  # the default, written by omission
            d = {k: v for k, v in d.items() if k != "sessionless"}
        assert json_text(story_to_dict(story)) == json_text(d)


@given(st.sampled_from([e for s in SAMPLE_DICT["sessions"] for e in s["events"]])
       .flatmap(lambda e: mutated(e, new_keys=EVENT_KEYS)))
@example(d={"type": "search", "timestamp": 3600, "query": "fog", "hour": 1})
@settings(max_examples=400, deadline=None)
def test_mutated_event_is_refused_by_path_or_round_trips(d):
    try:
        event = event_from_dict(d, "event")
    except ValidationError as exc:
        assert_path_into({"event": d}, str(exc))
        return
    if isinstance(event, WatchEvent) and event.item is None and "title" in d:
        # a title without an item_id is left to validate_story, which refuses
        # a watch without an item
        d = {k: v for k, v in d.items() if k != "title"}
    assert json_text(event_to_dict(event)) == json_text(d)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_story_file_faults_name_the_file_and_line(tmp_path):
    path = tmp_path / "stories.jsonl"
    story = json.dumps(SAMPLE_DICT)
    manifest = json.dumps({"_manifest": {"hash": "h"}})
    cases = [
        ([manifest, story, story[:40]], r"stories\.jsonl:3: (Unterminated|Expecting)"),
        ([story, "[1, 2]"], r"stories\.jsonl:2: record: expected a JSON object, "
                            r"got \[1, 2\]$"),
        ([manifest, json.dumps(dict(SAMPLE_DICT, sessionless="no"))],
         r"stories\.jsonl:2: sessionless: expected true or false, got 'no'$"),
        # a manifest is line 1 alone: anywhere else, or with another key, it
        # is a record with an unknown key
        ([story, json.dumps(dict(SAMPLE_DICT, _manifest={}))],
         r"stories\.jsonl:2: _manifest: unknown key$"),
        ([json.dumps(dict(SAMPLE_DICT, _manifest={}))],
         r"stories\.jsonl:1: _manifest: unknown key$"),
        ([story, manifest], r"stories\.jsonl:2: user_id: missing$"),
        ([story, json.dumps(SAMPLE_DICT)[:-1] + ', "tpo": 1}'],
         r"stories\.jsonl:2: tpo: unknown key$"),
        ([manifest, "[" * 100_000], r"stories\.jsonl:2: maximum recursion depth"),
    ]
    for lines, message in cases:
        _write_lines(path, lines)
        with pytest.raises(ValidationError, match=message):
            read_stories(path)
    path.write_bytes(manifest.encode() + b"\n" + story.encode()[:-2] + b"\xff}\n")
    with pytest.raises(ValidationError, match=r"stories\.jsonl:2: 'utf-8' codec"):
        read_stories(path)


def test_story_file_round_trips_with_its_manifest(tmp_path):
    stories = [make_sample_story("a"), make_sample_story("b")]
    path = tmp_path / "stories.jsonl"
    assert write_stories(path, stories, header={"hash": "h"}) == 2
    _write_lines(path, path.read_text(encoding="utf-8").splitlines() + [""])
    assert read_stories(path) == stories


@pytest.mark.parametrize("field, value, message", [
    ("timestamp", "1753726", r"^sessions\[0\]\.events\[2\]\.timestamp: expected an "
                             r"integer, got '1753726'$"),
    ("timestamp", 875520.0, r"\.timestamp: expected an integer, got 875520\.0$"),
    ("hour", True, r"\.hour: expected an integer, got True$"),
    ("duration_minutes", "87", r"\.duration_minutes: expected an integer, got '87'$"),
    ("surface", "tv", r"^sessions\[0\]\.events\[2\]\.surface: expected one of "
                      r"'home', 'search', 'browse', 'autoplay', got 'tv'$"),
    ("type", "click", r"\.events\[2\]\.type: expected 'watch' or 'search', "
                      r"got 'click'$"),
    ("tpo", 1, r"^sessions\[0\]\.events\[2\]\.tpo: unknown key$"),
])
def test_event_fields_fail_by_path(field, value, message):
    d = json.loads(json.dumps(SAMPLE_DICT))
    d["sessions"][0]["events"][2][field] = value  # the first watch
    with pytest.raises(ValidationError, match=message):
        story_from_dict(d)
