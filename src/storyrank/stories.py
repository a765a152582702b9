"""Typed model of user journeys: events, sessions, stories, and the session rules.

A journey is a chronological stream of watch and search events. Events are
grouped into sessions: a session closes after more than one hour of
inactivity, and no session may span more than twelve hours from its first to
its last event. "Inactivity" is measured from the end of the last activity,
so a long watch keeps the session alive while it plays (this is the only
reading under which a watch ending at 4:27 followed by a watch at 5:00 sits
in one session).

All types are immutable after construction. Construction is permissive;
`validate_story` reports every rule violation as data so that malformed
stories can be inspected rather than rejected mid-flight. Ingestion
boundaries (file loading, datagen output) are expected to validate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
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
        if not self.events:
            return self.start_time
        return max(e.end_time for e in self.events)


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
    # only their clauses are suppressed, and validate_story skips its gap and
    # 12h-span rules.
    sessionless: bool = False

    def events(self) -> Iterator[Event]:
        for s in self.sessions:
            yield from s.events


def _elapsed_hours(session_start: int, previous_end: int) -> int:
    # Whole floored hours; clamped at zero because a 12h-cap split can start
    # a new session while a long watch from the old one is still "playing".
    return max(0, (session_start - previous_end) // SESSION_GAP_SECONDS)


def segment_sessions(events: list[Event] | tuple[Event, ...]) -> tuple[Session, ...]:
    """Group a time-ordered event stream into sessions.

    A new session starts when the gap from the end of the previous activity
    exceeds one hour, or when including the event would push the session's
    first-to-last-timestamp span past twelve hours (the boundary event opens
    the new session). Flattening the result reproduces the input exactly.
    """
    if not events:
        raise ValidationError("segment_sessions: empty event list")
    for i in range(1, len(events)):
        if events[i].timestamp < events[i - 1].timestamp:
            raise ValidationError(
                f"segment_sessions: events[{i}] is out of order "
                f"({events[i].timestamp} < {events[i - 1].timestamp})")

    sessions: list[Session] = []
    current: list[Event] = []
    current_start = events[0].timestamp
    activity_end = events[0].timestamp
    previous_session_end: int | None = None

    def close() -> None:
        nonlocal previous_session_end
        elapsed = (0 if previous_session_end is None
                   else _elapsed_hours(current_start, previous_session_end))
        sessions.append(Session(
            start_time=current_start,
            elapsed_hours=elapsed,
            day_of_week=day_of_week(current_start),
            events=tuple(current),
        ))
        previous_session_end = max(e.end_time for e in current)

    for event in events:
        if current:
            gap = event.timestamp - activity_end
            span = event.timestamp - current_start
            if gap > SESSION_GAP_SECONDS or span > SESSION_SPAN_SECONDS:
                close()
                current = []
                current_start = event.timestamp
                activity_end = event.timestamp
        current.append(event)
        activity_end = max(activity_end, event.end_time)
    close()
    return tuple(sessions)


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


def _check_title(title: str) -> str | None:
    for bad in ("\n", "|)", ")|>", "<|"):
        if bad in title:
            return f"title contains reserved sequence {bad!r}"
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


def validate_story(story: UserStory, *, itemless_ok: bool = False) -> list[Violation]:
    """Return every violated invariant, with a path to the offending field.

    An empty list means the story is well-formed. `itemless_ok` relaxes the
    item/duration requirement on watch events for carousel-view stories,
    where item information has been stripped.
    """
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

    previous_end: int | None = None
    previous_first_ts: int | None = None
    for si, sess in enumerate(story.sessions):
        spath = f"sessions[{si}]"
        if not 0 <= sess.day_of_week <= 6:
            add(spath, f"day_of_week {sess.day_of_week} outside 0..6")
        elif sess.day_of_week != day_of_week(sess.start_time):
            add(spath, f"day_of_week {sess.day_of_week} does not match start_time "
                       f"(expected {day_of_week(sess.start_time)})")
        if sess.events and sess.start_time != sess.events[0].timestamp:
            add(spath, "start_time does not equal the first event's timestamp")

        if si == 0:
            if sess.elapsed_hours != 0:
                add(spath, "first session must have elapsed_hours == 0")
        else:
            expected = _elapsed_hours(sess.start_time, previous_end)
            if sess.elapsed_hours != expected:
                add(spath, f"elapsed_hours {sess.elapsed_hours} != floor(gap) {expected}")
            gap = sess.start_time - previous_end
            if gap <= SESSION_GAP_SECONDS and not story.sessionless:
                # Only legitimate when the previous session was closed by the
                # 12h cap: merging would overflow the span.
                first_ts = sess.events[0].timestamp if sess.events else sess.start_time
                if previous_first_ts is None or \
                        first_ts - previous_first_ts <= SESSION_SPAN_SECONDS:
                    add(spath, f"gap to previous session is {gap}s (<= 1h) "
                               "and is not justified by the 12h cap")

        activity_end: int | None = None
        for ei, event in enumerate(sess.events):
            epath = f"{spath}.events[{ei}]"
            if not 0 <= event.hour <= 23:
                add(epath, f"hour {event.hour} outside 0..23")
            elif event.hour != hour_of_day(event.timestamp):
                add(epath, f"hour {event.hour} does not match timestamp "
                           f"(expected {hour_of_day(event.timestamp)})")
            if ei > 0 and event.timestamp < sess.events[ei - 1].timestamp:
                add(epath, "timestamps decrease within the session")
            if activity_end is not None and not story.sessionless:
                if event.timestamp - activity_end > SESSION_GAP_SECONDS:
                    add(epath, f"gap of {event.timestamp - activity_end}s to previous "
                               "activity exceeds 1 hour")
            if event.timestamp - sess.start_time > SESSION_SPAN_SECONDS \
                    and not story.sessionless:
                add(epath, "event pushes session span past 12 hours")
            activity_end = event.end_time if activity_end is None \
                else max(activity_end, event.end_time)

            if isinstance(event, WatchEvent):
                if event.item is None or event.duration_minutes is None:
                    if not itemless_ok:
                        add(epath, "watch event is missing item or duration")
                else:
                    if (msg := _check_item_id(event.item.item_id)) is not None:
                        add(f"{epath}.item", msg)
                    if (msg := _check_title(event.item.title)) is not None:
                        add(f"{epath}.item", msg)
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

        if sess.events:
            previous_first_ts = sess.events[0].timestamp
        previous_end = sess.end_time
        if si > 0 and story.sessions[si - 1].start_time > sess.start_time:
            add(spath, "sessions are not ordered by start_time")

    return out


# --- interchange format ----------------------------------------------------

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


def event_from_dict(d: dict) -> Event:
    kind = d.get("type")
    if kind == "watch":
        item = None
        if "item_id" in d:
            item = ItemRef(d["item_id"], d.get("title", ""))
        return WatchEvent(
            timestamp=int(d["timestamp"]),
            hour=int(d["hour"]),
            surface=Surface(d["surface"]),
            carousel=CarouselRef(d.get("carousel", "")),
            item=item,
            duration_minutes=(int(d["duration_minutes"])
                              if "duration_minutes" in d else None),
        )
    if kind == "search":
        return SearchEvent(timestamp=int(d["timestamp"]), hour=int(d["hour"]),
                           query=d["query"])
    raise ValidationError(f"unknown event type {kind!r}")


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
    return UserStory(
        user_id=d["user_id"],
        attributes=AttributeHeader(tuple((k, v) for k, v in d.get("attributes", []))),
        sessions=tuple(
            Session(
                start_time=int(s["start_time"]),
                elapsed_hours=int(s["elapsed_hours"]),
                day_of_week=int(s["day_of_week"]),
                events=tuple(event_from_dict(e) for e in s.get("events", [])),
            )
            for s in d.get("sessions", [])
        ),
        sessionless=bool(d.get("sessionless", False)),
    )


def write_stories(path, stories: Iterable[UserStory], *, header: dict | None = None) -> int:
    """Write line-delimited interchange JSON; returns the story count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"_manifest": header}, sort_keys=True) + "\n")
        for story in stories:
            fh.write(json.dumps(story_to_dict(story), ensure_ascii=False) + "\n")
            n += 1
    return n


def read_stories(path) -> list[UserStory]:
    stories: list[UserStory] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            if "_manifest" in d:
                continue
            story = story_from_dict(d)
            violations = validate_story(story)
            if violations:
                raise ValidationError(
                    f"{path}:{lineno}: invalid story {story.user_id!r}: "
                    + "; ".join(str(v) for v in violations[:3]))
            stories.append(story)
    return stories
