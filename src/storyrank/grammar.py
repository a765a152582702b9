"""Token-grammar serialization of user stories.

One story serializes to one line of text:

    country=US device=tv <|begin_sessions|> <|session|> elapsed=0h day=6
    <|search|> hour=3 lan <|search|> hour=3 lantern <|watch|> hour=3
    <|surface=search|><|carousel()|><|id(SYN201|The Lantern at Exit 13)|> 87m ...

(line breaks here are for display; the serialized form is a single line with
single-space field separation and no trailing whitespace). The surface,
carousel, and item tokens of a watch are concatenated without spaces.

The grammar stores only relative time fields (session elapsed hours, day of
week, per-event hour), so the text carries no absolute timestamps.

See GRAMMAR.md for the full production list.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .stories import (
    AttributeHeader,
    AttributeSubset,
    EMPTY_CAROUSEL,
    Event,
    ItemRef,
    SearchEvent,
    Surface,
    UserStory,
    View,
    WatchEvent,
    check_story,
)

BEGIN_SESSIONS = "<|begin_sessions|>"
SESSION_MARKER = "<|session|>"
WATCH_MARKER = "<|watch|>"
SEARCH_MARKER = "<|search|>"
MARKERS = (BEGIN_SESSIONS, SESSION_MARKER, WATCH_MARKER, SEARCH_MARKER)
MASK_CAROUSEL = "MASK"  # a masked watch's carousel (corpus, item_masked)

# Header keys understood as location context; any other key counts as a
# profile attribute. Used by strip_attributes(profile|location).
LOCATION_KEYS = frozenset({"country", "region", "city", "dma", "timezone", "locale"})


# --- serialization ----------------------------------------------------------

def surface_token(surface: Surface) -> str:
    return f"<|surface={surface.value}|>"


def carousel_token(carousel_id: str) -> str:
    return f"<|carousel({carousel_id})|>"


def item_token(item: ItemRef) -> str:
    return f"<|id({item.item_id}|{item.title})|>"


def watch_clause(hour: int, surface: Surface, carousel_id: str | None = None,
                 item: ItemRef | None = None,
                 duration_minutes: int | None = None) -> str:
    """A watch clause; with no carousel it stops after the surface token
    (a carousel task head, GRAMMAR.md "Prompt mode")."""
    clause = f"{WATCH_MARKER} hour={hour} {surface_token(surface)}"
    if carousel_id is not None:
        clause += carousel_token(carousel_id)
    if item is not None:
        clause += item_token(item)
    if duration_minutes is not None:
        clause += f" {duration_minutes}m"
    return clause


def search_clause(hour: int, query: str) -> str:
    return f"{SEARCH_MARKER} hour={hour} {query}"


def session_clause(elapsed_hours: int, dow: int) -> str:
    return f"{SESSION_MARKER} elapsed={elapsed_hours}h day={dow}"


def event_clause(event: Event) -> str:
    if isinstance(event, WatchEvent):
        return watch_clause(event.hour, event.surface, event.carousel.carousel_id,
                            event.item, event.duration_minutes)
    return search_clause(event.hour, event.query)


def header_clauses(attributes: AttributeHeader) -> list[str]:
    return [f"{k}={v}" for k, v in attributes.pairs]


def serialize_parts(story: UserStory) -> tuple[str, tuple[str, ...]]:
    """The story's text in pieces: the lead (header clauses and the
    begin-sessions marker) and one text per session, "" for a session that
    renders nothing. Every non-empty session text starts with a '<|' marker,
    so the pieces tokenize independently (GRAMMAR.md, "Concatenation")."""
    lead = " ".join(header_clauses(story.attributes) + [BEGIN_SESSIONS])
    texts = []
    for sess in story.sessions:
        clauses = [] if story.sessionless else \
            [session_clause(sess.elapsed_hours, sess.day_of_week)]
        clauses.extend(event_clause(event) for event in sess.events)
        texts.append(" ".join(clauses))
    return lead, tuple(texts)


def serialize(story: UserStory, *, validate: bool = True) -> str:
    """Render a story as one line of grammar text (deterministic, byte-exact)."""
    if validate:
        check_story(story)
    lead, texts = serialize_parts(story)
    return " ".join([lead] + [t for t in texts if t])


# --- task views and ablation transforms -------------------------------------

def strip_view(story: UserStory, view: str) -> UserStory:
    """Reduce a story to one task's conventional inputs.

    item: drop search events, blank carousels (surfaces kept).
    carousel: drop search events, drop item and duration fields.
    search: keep search events and search-surface watches only.
    Session structure and the attribute header are preserved in all views.
    """
    if view not in View.__members__.values():  # `in View` raises before 3.12
        raise ValueError(f"unknown view {view!r}; expected one of "
                         f"{tuple(v.value for v in View)}")
    sessions = []
    for sess in story.sessions:
        events: list[Event] = []
        for e in sess.events:
            if view == View.ITEM:
                if isinstance(e, WatchEvent):
                    events.append(replace(e, carousel=EMPTY_CAROUSEL))
            elif view == View.CAROUSEL:
                if isinstance(e, WatchEvent):
                    events.append(replace(e, item=None, duration_minutes=None))
            elif view == View.SEARCH:
                if isinstance(e, SearchEvent) or \
                        (isinstance(e, WatchEvent) and e.surface == Surface.SEARCH):
                    events.append(e)
        sessions.append(replace(sess, events=tuple(events)))
    return replace(story, sessions=tuple(sessions))


def strip_sessions(story: UserStory) -> UserStory:
    """Remove session clauses: the story serializes as a flat event stream
    (elapsed/day fields dropped). Its sessions stay as they are."""
    return replace(story, sessionless=True)


def strip_attributes(story: UserStory, which: str) -> UserStory:
    """Remove an attribute subset from the header: all, profile, or location."""
    if which not in AttributeSubset.__members__.values():
        raise ValueError(f"unknown attribute subset {which!r}; expected one "
                         f"of {tuple(a.value for a in AttributeSubset)}")
    if which == AttributeSubset.ALL:
        pairs: tuple[tuple[str, str], ...] = ()
    elif which == AttributeSubset.LOCATION:
        pairs = tuple(p for p in story.attributes.pairs if p[0] not in LOCATION_KEYS)
    else:  # profile: keep only location keys
        pairs = tuple(p for p in story.attributes.pairs if p[0] in LOCATION_KEYS)
    return replace(story, attributes=AttributeHeader(pairs))


@dataclass(frozen=True)
class TransformConfig:
    """An ablation variant: the `transform` config section."""
    view: View | None = None
    strip_sessions: bool = False
    strip_attributes: AttributeSubset | None = None


def apply_transform(story: UserStory,
                    transform: TransformConfig = TransformConfig()) -> UserStory:
    """Compose the ablation transforms in a fixed order (view, attrs, sessions)."""
    out = story
    if transform.view:
        out = strip_view(out, transform.view)
    if transform.strip_attributes:
        out = strip_attributes(out, transform.strip_attributes)
    if transform.strip_sessions:
        out = strip_sessions(out)
    return out
