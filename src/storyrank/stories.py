"""Typed model of user journeys: events, sessions, stories, and the session rule.

A journey is a chronological stream of watch and search events, grouped
into sessions by one predicate, `continues_session`: an event continues a
session when it comes at most one hour after the end of the session's
activity and at most twelve hours after its first event. Activity ends where
the last watch stops playing, so a long watch keeps the session alive while
it plays (the only reading under which a watch ending at 4:27 followed by a
watch at 5:00 sits in one session). `segment_sessions` cuts streams with it,
`prompts.open_session` asks it whether the viewer is still active, and
`validate_story` holds a story to the sessions `segment_sessions` makes.

All types are immutable after construction. Construction is permissive;
`validate_story` reports every rule violation as data so that malformed
stories can be inspected rather than rejected mid-flight. Ingestion
boundaries (file loading, datagen output) are expected to validate.
"""
from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, fields as dataclass_fields
from enum import Enum, EnumMeta
from typing import Iterable, Iterator, Union

SESSION_GAP_SECONDS = 3600
SESSION_SPAN_SECONDS = 12 * 3600

# Unix day 0 (1970-01-01) was a Thursday; shift so Monday == 0.
_UNIX_DOW_OFFSET = 3


def hour_of_day(timestamp: int) -> int:
    return (timestamp % 86400) // 3600


def day_of_week(timestamp: int) -> int:
    """ISO-style weekday of a Unix timestamp, Monday == 0 (UTC)."""
    return ((timestamp // 86400) + _UNIX_DOW_OFFSET) % 7


class Surface(str, Enum):
    HOME = "home"
    SEARCH = "search"
    BROWSE = "browse"
    AUTOPLAY = "autoplay"


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ItemRef:
    item_id: str
    title: str


@dataclass(frozen=True)
class CarouselRef:
    carousel_id: str


EMPTY_CAROUSEL = CarouselRef("")


@dataclass(frozen=True)
class WatchEvent:
    timestamp: int
    hour: int
    surface: Surface
    carousel: CarouselRef
    item: ItemRef | None
    duration_minutes: int | None

    @property
    def end_time(self) -> int:
        return self.timestamp + 60 * (self.duration_minutes or 0)


@dataclass(frozen=True)
class SearchEvent:
    timestamp: int
    hour: int
    query: str

    @property
    def end_time(self) -> int:
        return self.timestamp


Event = Union[WatchEvent, SearchEvent]


def watch(timestamp: int, surface: Surface, carousel: CarouselRef,
          item: ItemRef, duration_minutes: int) -> WatchEvent:
    """WatchEvent with the hour field derived from the timestamp."""
    return WatchEvent(timestamp, hour_of_day(timestamp), surface, carousel,
                      item, duration_minutes)


def search(timestamp: int, query: str) -> SearchEvent:
    return SearchEvent(timestamp, hour_of_day(timestamp), query)


@dataclass(frozen=True)
class Session:
    start_time: int
    elapsed_hours: int
    day_of_week: int
    events: tuple[Event, ...]

    @property
    def end_time(self) -> int:
        """End of activity: the latest event end (watches include duration)."""
        return max((e.end_time for e in self.events), default=self.start_time)


@dataclass(frozen=True)
class AttributeHeader:
    pairs: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class UserStory:
    user_id: str
    attributes: AttributeHeader
    sessions: tuple[Session, ...]
    # Set by strip_sessions: the story serializes as a flat event stream with
    # no session clauses (ablation variant). The sessions keep their events;
    # only their clauses are suppressed, and validate_story takes the
    # grouping as given instead of holding it to the session rule.
    sessionless: bool = False

    def events(self) -> Iterator[Event]:
        for s in self.sessions:
            yield from s.events


def continues_session(start: int, activity_end: int, t: int) -> bool:
    """The session rule: an event at time `t` continues the session that
    began at `start` when within one hour of its activity's end and 12 hours
    of its start."""
    return t - activity_end <= SESSION_GAP_SECONDS and t - start <= SESSION_SPAN_SECONDS


def _session_at(previous, start: int, events=()) -> Session:
    """The session starting at `start` after the sessions `previous`, its
    elapsed hours floored and clamped at zero (a 12h-cap split can start a
    session while a long watch from the last one still plays)."""
    elapsed = max(0, (start - previous[-1].end_time) // 3600) if previous else 0
    return Session(start, elapsed, day_of_week(start), tuple(events))


def _sessions_of(groups) -> tuple[Session, ...]:
    """Sessions over non-empty event groups, fields derived from the events."""
    sessions: list[Session] = []
    for group in groups:
        sessions.append(_session_at(sessions, group[0].timestamp, group))
    return tuple(sessions)


def segment_sessions(events: list[Event] | tuple[Event, ...]) -> tuple[Session, ...]:
    """Group a time-ordered event stream into sessions.

    An event opens a new session unless it continues the current one
    (`continues_session`), so the 12h cap makes the boundary event open the
    new session. Flattening the result reproduces the input exactly.
    """
    if not events:
        raise ValidationError("segment_sessions: empty event list")
    for i in range(1, len(events)):
        if events[i].timestamp < events[i - 1].timestamp:
            raise ValidationError(
                f"segment_sessions: events[{i}] is out of order "
                f"({events[i].timestamp} < {events[i - 1].timestamp})")

    groups: list[list[Event]] = []
    start = activity_end = 0
    for event in events:
        if groups and continues_session(start, activity_end, event.timestamp):
            groups[-1].append(event)
            activity_end = max(activity_end, event.end_time)
        else:
            groups.append([event])
            start, activity_end = event.timestamp, event.end_time
    return _sessions_of(groups)


# --- grammar-safety text rules -------------------------------------------
#
# The token grammar reserves a handful of character sequences; stories that
# contain them cannot be serialized unambiguously, so they are rejected at
# ingestion instead of escaped.

def _check_item_id(item_id: str) -> str | None:
    if not item_id:
        return "item_id is empty"
    for bad in ("|", ")", "\n"):
        if bad in item_id:
            return f"item_id contains reserved character {bad!r}"
    if item_id.endswith("<"):
        # the '|' that follows in the item token would open a '<|' anchor
        return "item_id ends with '<'"
    return None


def _check_title(title: str, key: str = "title") -> str | None:
    for bad in ("\n", "|)", ")|>", "<|"):
        if bad in title:
            return f"{key} contains reserved sequence {bad!r}"
    return None


def _check_carousel_id(carousel_id: str) -> str | None:
    for bad in ("(", ")", "\n", "<|"):
        if bad in carousel_id:
            return f"carousel_id contains reserved character {bad!r}"
    return None


def _check_query(query: str) -> str | None:
    if not query:
        return "query is empty"
    if "\n" in query:
        return "query contains a newline"
    if "<|" in query:
        return "query contains reserved sequence '<|'"
    if query != query.strip(" "):
        return "query has leading or trailing spaces"
    if "  " in query:
        return "query contains a double space"
    return None


def _check_attribute_key(key: str) -> str | None:
    if not key:
        return "attribute key is empty"
    for bad in ("\n", "<|", "|>", "=", " "):
        if bad in key:
            return f"attribute key contains reserved character {bad!r}"
    return None


def _check_attribute_value(value: str) -> str | None:
    for bad in ("\n", "<|", "|>", "="):
        if bad in value:
            return f"attribute value contains reserved character {bad!r}"
    if value != value.strip(" "):
        return "attribute value has leading or trailing spaces"
    if "  " in value:
        return "attribute value contains a double space"
    return None


def validate_story(story: UserStory) -> list[Violation]:
    """Return every violated invariant, with a path to the offending field;
    an empty list means the story is well-formed. Events are in time order,
    the sessions are the ones `segment_sessions` makes of them (for a
    sessionless story: its own grouping, fields derived), and only the last
    session may be empty, as `prompts.open_session` would append it."""
    out: list[Violation] = []
    add = lambda path, msg: out.append(Violation(path, msg))

    if not story.user_id:
        add("user_id", "user_id is empty")

    seen_keys: set[str] = set()
    for i, (k, v) in enumerate(story.attributes.pairs):
        path = f"attributes[{i}]"
        if (msg := _check_attribute_key(k)) is not None:
            add(path, msg)
        elif k in seen_keys:
            add(path, f"duplicate attribute key {k!r}")
        seen_keys.add(k)
        if (msg := _check_attribute_value(v)) is not None:
            add(path, msg)

    comparable = True
    previous_ts: int | None = None
    for si, sess in enumerate(story.sessions):
        spath = f"sessions[{si}]"
        if not sess.events and si < len(story.sessions) - 1:
            add(spath, "only the last session may be empty")
            comparable = False
        for ei, event in enumerate(sess.events):
            epath = f"{spath}.events[{ei}]"
            if not 0 <= event.hour <= 23:
                add(epath, f"hour {event.hour} outside 0..23")
            elif event.hour != hour_of_day(event.timestamp):
                add(epath, f"hour {event.hour} does not match timestamp "
                           f"(expected {hour_of_day(event.timestamp)})")
            if previous_ts is not None and event.timestamp < previous_ts:
                add(epath, f"timestamp out of order ({event.timestamp} < {previous_ts})")
                comparable = False
            previous_ts = event.timestamp

            if isinstance(event, WatchEvent):
                if event.item is None or event.duration_minutes is None:
                    add(epath, "watch event is missing item or duration")
                else:
                    if (msg := _check_item_id(event.item.item_id)) is not None:
                        add(f"{epath}.item_id", msg)
                    if (msg := _check_title(event.item.title)) is not None:
                        add(f"{epath}.title", msg)
                    if event.duration_minutes < 0:
                        add(epath, "duration_minutes is negative")
                if (msg := _check_carousel_id(event.carousel.carousel_id)) is not None:
                    add(f"{epath}.carousel", msg)
                if event.surface == Surface.SEARCH and event.carousel.carousel_id:
                    add(epath, "search-surface watch must have an empty carousel_id")
            elif isinstance(event, SearchEvent):
                if (msg := _check_query(event.query)) is not None:
                    add(epath, msg)
            else:
                add(epath, f"unknown event type {type(event).__name__}")

    return out + _session_violations(story) if comparable else out


def _session_violations(story: UserStory) -> list[Violation]:
    """The first session that differs from the one its events make."""
    groups = [s.events for s in story.sessions if s.events]
    want = _sessions_of(groups) if story.sessionless or not groups \
        else segment_sessions([e for g in groups for e in g])
    for si, (got, expected) in enumerate(zip(story.sessions, want)):
        if got != expected:
            return [_difference(f"sessions[{si}]", got, expected)]
    if len(story.sessions) == len(want):
        return []
    last, path = story.sessions[-1], f"sessions[{len(want)}]"
    if want and (last.start_time < want[-1].events[-1].timestamp
                 or not story.sessionless and continues_session(
                     want[-1].start_time, want[-1].end_time, last.start_time)):
        return [Violation(path, "empty last session does not open a new session")]
    expected = _session_at(want, last.start_time)
    return [] if last == expected else [_difference(path, last, expected)]


def _difference(path: str, got: Session, want: Session) -> Violation:
    """The first field in which a session differs from the one expected."""
    for name in ("start_time", "elapsed_hours", "day_of_week"):
        if getattr(got, name) != getattr(want, name):
            return Violation(path, f"{name} {getattr(got, name)} != "
                                   f"{getattr(want, name)} from the events")
    n = len(want.events)
    if len(got.events) > n:
        return Violation(f"{path}.events[{n}]", "opens a new session: over 1 hour "
                         "after the last activity or 12 hours after the start")
    return Violation(path, "ends early: the next event is within 1 hour of its last "
                           "activity and 12 hours of its start")


def check_story(story: UserStory, error=ValidationError) -> UserStory:
    """`story`, or else `error` naming its first three `validate_story` faults."""
    violations = validate_story(story)
    if violations:
        raise error("invalid story: " + "; ".join(str(v) for v in violations[:3]))
    return story


# --- interchange format ----------------------------------------------------
#
# One field table per record type; `fields` reads a record against it in one
# pass, and the writers below write its keys in table order.

_STORY = {"user_id": str, "attributes": list, "sessions": list}
_STORY_OPTIONAL = {"sessionless": bool}
_SESSION = {"start_time": int, "elapsed_hours": int, "day_of_week": int, "events": list}
_WATCH = {"type": str, "timestamp": int, "hour": int, "surface": Surface, "carousel": str}
_WATCH_OPTIONAL = {"item_id": str, "title": str, "duration_minutes": int}
_SEARCH = {"type": str, "timestamp": int, "hour": int, "query": str}
_JSON_TYPES = {int: "an integer", str: "a string", bool: "true or false", list: "a list",
               dict: "a JSON object", (int, type(None)): "an integer or null",
               (int, float): "a number", (str, type(None)): "a string or null"}
# The kinds a config dataclass annotates a number field with, each naming a range.
Count = Width = Size = int
Probability = Fraction = Positive = NonNegative = float
# each annotation, by its postponed string: the JSON types `fields` reads, and
# the range `check_range` holds a value to, as a test and its text (NaN passes none)
_ANNOTATION_KINDS = {
    "int": (int,), "bool": (bool,), "str": (str,), "tuple[int, ...]": (list,),
    "Count": (int, lambda v: v >= 1, "at least 1"),
    "Count | None": ((int, type(None)), lambda v: v is None or v >= 1,
                     "null or at least 1"),
    "Width": (int, lambda v: v >= 2, "at least 2"),
    "Size": (int, lambda v: v >= 0, "at least 0"),
    "Probability": ((int, float), lambda v: 0 <= v <= 1, "in [0, 1]"),
    "Fraction": ((int, float), lambda v: 0 < v < 1, "in (0, 1)"),
    "Positive": ((int, float), lambda v: v > 0, "above 0"),  # inf too
    "NonNegative": ((int, float), lambda v: v >= 0, "at least 0"),
}
_ABSENT = object()


def _typed(kind, value, path: str):
    """`value` as a field of type `kind` (see `fields`), or a ValidationError
    that starts with `path`."""
    if value is _ABSENT:
        raise ValidationError(f"{path}: missing")
    if kind is object or type(kind) is tuple and type(value) in kind:
        return value
    if isinstance(kind, EnumMeta) and value in kind.__members__.values():
        return kind(value)
    want = _JSON_TYPES.get(kind) or "one of " + ", ".join(repr(m.value) for m in kind)
    raise ValidationError(f"{path}: expected {want}, got {reprlib.repr(value)}")


def fields(d, path: str, required: dict, optional: dict = {}) -> list:
    """The values of JSON object `d`'s `required` then `optional` keys, in table
    order (None for an absent optional key), each of exactly its table's type:
    `int` (never a bool, float or digit string), `str`, `bool`, `list`, `dict`,
    `object` (any), a tuple of these (any one of them), or a str Enum (read as its member).
    The first fault raises a ValidationError that starts with its path."""
    if type(d) is not dict:
        raise ValidationError(f"{path or 'record'}: expected a JSON object, "
                              f"got {reprlib.repr(d)}")
    at, values = f"{path}." if path else "", []
    for key, kind in required.items():
        value = d.get(key, _ABSENT)
        values.append(value if type(value) is kind else _typed(kind, value, at + key))
    for key, kind in optional.items():
        value = d.get(key, _ABSENT)
        values.append(None if value is _ABSENT else value if type(value) is kind
                      else _typed(kind, value, at + key))
    if len(d) > len(values) - values.count(None):  # an unknown key, or a null
        for key in d:
            if key not in required and key not in optional:
                raise ValidationError(f"{at}{key}: unknown key")
    return values


def table_of(cls) -> dict:
    """`fields`' table for config dataclass `cls`, read off its annotations."""
    return {f.name: _ANNOTATION_KINDS[f.type][0] for f in dataclass_fields(cls)}


def check_range(kind: str, key: str, value, error) -> None:
    """Refuse, as `error`, a `value` outside annotation `kind`'s range."""
    _, *rule = _ANNOTATION_KINDS[kind]
    if rule and not rule[0](value):
        raise error(f"{key} must be {rule[1]}, got {value!r}")


def check_ranges(config, error) -> None:
    """Hold each field of config dataclass `config` to its range (`check_range`)."""
    for f in dataclass_fields(config):
        check_range(f.type, f.name, getattr(config, f.name), error)


def event_to_dict(event: Event) -> dict:
    if isinstance(event, WatchEvent):
        d = {
            "type": "watch",
            "timestamp": event.timestamp,
            "hour": event.hour,
            "surface": event.surface.value,
            "carousel": event.carousel.carousel_id,
        }
        if event.item is not None:
            d["item_id"] = event.item.item_id
            d["title"] = event.item.title
        if event.duration_minutes is not None:
            d["duration_minutes"] = event.duration_minutes
        return d
    return {
        "type": "search",
        "timestamp": event.timestamp,
        "hour": event.hour,
        "query": event.query,
    }


def event_from_dict(d: dict, path: str = "event") -> Event:
    """Decode one interchange event; its errors start with `path`."""
    kind = d.get("type", "watch") if type(d) is dict else "watch"
    if kind == "search":
        _, timestamp, hour, query = fields(d, path, _SEARCH)
        return SearchEvent(timestamp, hour, query)
    if kind != "watch":
        raise ValidationError(f"{path}.type: expected 'watch' or 'search', "
                              f"got {reprlib.repr(kind)}")
    _, timestamp, hour, surface, carousel, item_id, title, minutes = fields(
        d, path, _WATCH, _WATCH_OPTIONAL)
    if item_id is not None and title is None:  # it would be written back as ""
        raise ValidationError(f"{path}: watch event has an item_id but no title")
    return WatchEvent(timestamp, hour, surface, CarouselRef(carousel),
                      None if item_id is None else ItemRef(item_id, title), minutes)


def story_to_dict(story: UserStory) -> dict:
    d = {
        "user_id": story.user_id,
        "attributes": [[k, v] for k, v in story.attributes.pairs],
        "sessions": [
            {
                "start_time": s.start_time,
                "elapsed_hours": s.elapsed_hours,
                "day_of_week": s.day_of_week,
                "events": [event_to_dict(e) for e in s.events],
            }
            for s in story.sessions
        ],
    }
    if story.sessionless:
        d["sessionless"] = True
    return d


def story_from_dict(d: dict) -> UserStory:
    """Decode one interchange story; error paths start at the story."""
    user_id, pairs, sessions, sessionless = fields(d, "", _STORY, _STORY_OPTIONAL)
    for i, pair in enumerate(pairs):
        if type(pair) is not list or list(map(type, pair)) != [str, str]:
            raise ValidationError(f"attributes[{i}]: expected a [key, value] "
                                  f"pair of strings, got {reprlib.repr(pair)}")
    return UserStory(user_id, AttributeHeader(tuple(map(tuple, pairs))), tuple([
        _session_from_dict(s, f"sessions[{i}]") for i, s in enumerate(sessions)]),
        sessionless is True)


def _session_from_dict(d: dict, path: str) -> Session:
    start_time, elapsed_hours, day, events = fields(d, path, _SESSION)
    return Session(start_time, elapsed_hours, day, tuple([
        event_from_dict(e, f"{path}.events[{i}]") for i, e in enumerate(events)]))


def write_records(path, records: Iterable[dict], *, header: dict | None = None) -> int:
    """Write a JSONL file, `{"_manifest": header}` first when a header is
    given; returns the record count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"_manifest": header}, sort_keys=True) + "\n")
        for d in records:
            fh.write(json.dumps(d, ensure_ascii=False) + "\n")
            n += 1
    return n


def read_records(path, decode, error=ValidationError) -> list:
    """Each line of a JSONL file, decoded by `decode`, but blank ones and a line 1
    holding `{"_manifest": ...}` alone; a fault raises `error` naming path:line."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                d = json.loads(line.decode("utf-8"))
                if lineno > 1 or type(d) is not dict or d.keys() != {"_manifest"}:
                    records.append(decode(d))
            except (ValueError, RecursionError) as exc:  # too deeply nested
                raise error(f"{path}:{lineno}: {exc}") from exc
    return records


def write_stories(path, stories: Iterable[UserStory], *, header: dict | None = None) -> int:
    """Write line-delimited interchange JSON; returns the story count."""
    return write_records(path, map(story_to_dict, stories), header=header)


def read_stories(path) -> list[UserStory]:
    return read_records(path, lambda d: check_story(story_from_dict(d)))
