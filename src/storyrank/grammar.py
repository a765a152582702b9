"""Token-grammar serialization of user stories, and its inverse.

One story serializes to one line of text:

    country=US device=tv <|begin_sessions|> <|session|> elapsed=0h day=6
    <|search|> hour=3 lan <|search|> hour=3 lantern <|watch|> hour=3
    <|surface=search|><|carousel()|><|id(SYN201|The Lantern at Exit 13)|> 87m ...

(line breaks here are for display; the serialized form is a single line with
single-space field separation and no trailing whitespace). The surface,
carousel, and item tokens of a watch are concatenated without spaces.

`parse` is the field-level inverse of `serialize`: it checks the grammar and
returns the serialized fields, the same value `story_signature` extracts from
a story. The grammar stores only relative time fields (session elapsed hours,
day of week, per-event hour), so absolute timestamps are not recovered.

See GRAMMAR.md for the full production list.
"""
from __future__ import annotations

from dataclasses import replace

from .stories import (
    AttributeHeader,
    EMPTY_CAROUSEL,
    Event,
    ItemRef,
    SearchEvent,
    Session,
    Surface,
    UserStory,
    ValidationError,
    WatchEvent,
    day_of_week,
    validate_story,
)

BEGIN_SESSIONS = "<|begin_sessions|>"
SESSION_MARKER = "<|session|>"
WATCH_MARKER = "<|watch|>"
SEARCH_MARKER = "<|search|>"

VIEWS = ("item", "carousel", "search")
ATTRIBUTE_SUBSETS = ("all", "profile", "location")

# Header keys understood as location context; any other key counts as a
# profile attribute. Used by strip_attributes(profile|location).
LOCATION_KEYS = frozenset({"country", "region", "city", "dma", "timezone", "locale"})


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, expected: str):
        self.byte_offset = len(text[:pos].encode("utf-8"))
        self.expected = expected
        super().__init__(f"byte {self.byte_offset}: expected {expected}")


# --- serialization ----------------------------------------------------------

def watch_clause(hour: int, surface: Surface, carousel_id: str,
                 item: ItemRef | None = None,
                 duration_minutes: int | None = None) -> str:
    clause = (f"{WATCH_MARKER} hour={hour} "
              f"<|surface={surface.value}|><|carousel({carousel_id})|>")
    if item is not None:
        clause += f"<|id({item.item_id}|{item.title})|>"
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
        violations = validate_story(story, itemless_ok=True)
        if violations:
            raise ValidationError(
                "cannot serialize invalid story: "
                + "; ".join(str(v) for v in violations[:3]))
    lead, texts = serialize_parts(story)
    return " ".join([lead] + [t for t in texts if t])


# --- parsing ----------------------------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def fail(self, expected: str, pos: int | None = None):
        raise ParseError(self.text, self.pos if pos is None else pos, expected)

    def literal(self, lit: str, expected: str | None = None) -> None:
        if not self.text.startswith(lit, self.pos):
            self.fail(expected or repr(lit))
        self.pos += len(lit)

    def peek(self, lit: str) -> bool:
        return self.text.startswith(lit, self.pos)

    def integer(self, what: str, lo: int, hi: int) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(f"integer ({what})", start)
        value = int(self.text[start:self.pos])
        if not lo <= value <= hi:
            self.fail(f"{what} in {lo}..{hi}, got {value}", start)
        return value

    def until(self, stop: str, what: str) -> str:
        end = self.text.find(stop, self.pos)
        if end < 0:
            self.fail(f"{stop!r} closing {what}")
        chunk = self.text[self.pos:end]
        self.pos = end + len(stop)
        return chunk


def _parse_header(sc: _Scanner) -> list[tuple[str, str]]:
    idx = sc.text.find(BEGIN_SESSIONS)
    if idx < 0:
        sc.fail(f"{BEGIN_SESSIONS} marker")
    header = sc.text[:idx]
    sc.pos = idx + len(BEGIN_SESSIONS)
    pairs: list[tuple[str, str]] = []
    if header == "":
        return pairs
    if not header.endswith(" ") or header.endswith("  "):
        sc.fail("single space between header and session marker", max(0, idx - 1))
    chunks = header[:-1].split(" ")
    for ci, chunk in enumerate(chunks):
        if chunk == "":
            sc.fail("attribute pair, found empty chunk", 0)
        if "=" in chunk:
            key, _, value = chunk.partition("=")
            if not key:
                sc.fail("attribute key before '='", 0)
            pairs.append((key, value))
        else:
            if not pairs:
                sc.fail("key=value attribute pair", 0)
            # continuation of a value that contains spaces
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + " " + chunk)
    return pairs


# Parsed clauses take the shape `story_signature` gives them: a watch is
# ("watch", hour, surface, carousel_id, item_id, title, duration_minutes), a
# search ("search", hour, query); fields a prompt-mode partial watch stops
# before are None.

def _parse_watch(sc: _Scanner, partial_ok: bool) -> tuple:
    sc.literal(WATCH_MARKER + " hour=", "watch clause")
    hour = sc.integer("hour", 0, 23)
    if sc.eof() and partial_ok:
        return ("watch", hour, None, None, None, None, None)
    sc.literal(" <|surface=", "'<|surface=' after watch hour")
    surface_pos = sc.pos
    surface = sc.until("|>", "surface token")
    try:
        Surface(surface)
    except ValueError:
        sc.fail(f"unknown surface {surface!r}", surface_pos)
    if sc.eof() and partial_ok:
        return ("watch", hour, surface, None, None, None, None)
    sc.literal("<|carousel(", "'<|carousel(' after surface token")
    carousel_id = sc.until(")|>", "carousel token")
    if "(" in carousel_id:
        sc.fail("carousel id without '('")
    if (sc.eof() and partial_ok) or not sc.peek("<|id("):
        # itemless watch: the carousel-view grammar drops item and duration
        return ("watch", hour, surface, carousel_id, None, None, None)
    sc.literal("<|id(")
    item_pos = sc.pos
    item_id = sc.until("|", "item id")
    if ")" in item_id:
        sc.fail("item id without ')'", item_pos)
    title = sc.until(")|>", "item token")
    if sc.peek(" ") and sc.text[sc.pos + 1:sc.pos + 2].isdigit():
        sc.literal(" ")
        duration = sc.integer("duration", 0, 10**9)
        sc.literal("m", "'m' after watch duration")
        return ("watch", hour, surface, carousel_id, item_id, title, duration)
    if partial_ok:
        return ("watch", hour, surface, carousel_id, item_id, title, None)
    sc.fail("' {minutes}m' duration after item token")


def _parse_search(sc: _Scanner) -> tuple:
    sc.literal(SEARCH_MARKER + " hour=", "search clause")
    hour = sc.integer("hour", 0, 23)
    sc.literal(" ", "space before query text")
    nxt = sc.text.find("<|", sc.pos)
    if nxt < 0:
        query = sc.text[sc.pos:]
        sc.pos = len(sc.text)
    else:
        if nxt == sc.pos or sc.text[nxt - 1] != " ":
            sc.fail("space-separated query before next clause", nxt)
        query = sc.text[sc.pos:nxt - 1]
        sc.pos = nxt - 1
    if not query:
        sc.fail("non-empty query text")
    return ("search", hour, query)


def _scan(text: str, *, partial_ok: bool) -> tuple:
    sc = _Scanner(text)
    pairs = _parse_header(sc)
    sessions: list[tuple[tuple, list]] = []
    sessionless = False
    while not sc.eof():
        sc.literal(" ", "single space between clauses")
        if sc.peek(SESSION_MARKER):
            if sessionless:
                sc.fail("no session clause in a flat (sessionless) story")
            sc.literal(SESSION_MARKER + " elapsed=", "session clause")
            elapsed = sc.integer("elapsed hours", 0, 10**9)
            sc.literal("h day=", "'h day=' in session clause")
            dow = sc.integer("day of week", 0, 6)
            sessions.append(((elapsed, dow), []))
        elif sc.peek(WATCH_MARKER) or sc.peek(SEARCH_MARKER):
            if not sessions:
                sessionless = True
                sessions.append(((None, None), []))
            if sc.peek(WATCH_MARKER):
                sessions[-1][1].append(_parse_watch(sc, partial_ok))
            else:
                sessions[-1][1].append(_parse_search(sc))
        else:
            sc.fail("session, watch, or search clause")
    return (tuple(pairs), sessionless,
            *((clause, tuple(events)) for clause, events in sessions))


def parse(text: str, catalog=None) -> tuple:
    """Parse grammar text back into its serialized fields.

    Returns the value `story_signature` gives for the story the text came
    from. The first grammar violation raises ParseError with a byte offset
    and a description of what was expected. When `catalog` (a
    vocab.CatalogIndex) is given, embedded item titles are checked against
    it; items absent from the catalog are tolerated as-is.
    """
    fields = _scan(text, partial_ok=False)
    if catalog is not None:
        titles = {item.item_id: item.title for item in catalog.items}
        for _, events in fields[2:]:
            for event in events:
                if event[0] != "watch":
                    continue
                item_id, title = event[4:6]
                expected = titles.get(item_id)
                if expected is not None and expected != title:
                    raise ValidationError(
                        f"title mismatch for item {item_id!r}: "
                        f"story has {title!r}, catalog has {expected!r}")
    return fields


def parse_prompt(text: str) -> tuple:
    """Parse prompt-mode text: a trailing partial watch head and a missing
    duration are accepted. Returns the fields as `parse` does."""
    return _scan(text, partial_ok=True)


def story_signature(story: UserStory):
    """The serialized-field content of a story: what a grammar round trip preserves."""
    sig = [tuple(story.attributes.pairs), story.sessionless]
    for sess in story.sessions:
        events = []
        for e in sess.events:
            if isinstance(e, WatchEvent):
                events.append(("watch", e.hour, e.surface.value,
                               e.carousel.carousel_id,
                               None if e.item is None else e.item.item_id,
                               None if e.item is None else e.item.title,
                               e.duration_minutes))
            else:
                events.append(("search", e.hour, e.query))
        clause = (None, None) if story.sessionless \
            else (sess.elapsed_hours, sess.day_of_week)
        sig.append((clause, tuple(events)))
    return tuple(sig)


# --- task views and ablation transforms -------------------------------------

def strip_view(story: UserStory, view: str) -> UserStory:
    """Reduce a story to one task's conventional inputs.

    item: drop search events, blank carousels (surfaces kept).
    carousel: drop search events, drop item and duration fields.
    search: keep search events and search-surface watches only.
    Session structure and the attribute header are preserved in all views.
    """
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}; expected one of {VIEWS}")
    sessions = []
    for sess in story.sessions:
        events: list[Event] = []
        for e in sess.events:
            if view == "item":
                if isinstance(e, WatchEvent):
                    events.append(replace(e, carousel=EMPTY_CAROUSEL))
            elif view == "carousel":
                if isinstance(e, WatchEvent):
                    events.append(replace(e, item=None, duration_minutes=None))
            elif view == "search":
                if isinstance(e, SearchEvent) or \
                        (isinstance(e, WatchEvent) and e.surface == Surface.SEARCH):
                    events.append(e)
        sessions.append(replace(sess, events=tuple(events)))
    return replace(story, sessions=tuple(sessions))


def strip_sessions(story: UserStory) -> UserStory:
    """Remove session clauses: a flat event stream (elapsed/day fields dropped)."""
    events = tuple(story.events())
    if events:
        container = Session(start_time=events[0].timestamp, elapsed_hours=0,
                            day_of_week=day_of_week(events[0].timestamp),
                            events=events)
        sessions: tuple[Session, ...] = (container,)
    else:
        sessions = ()
    return replace(story, sessions=sessions, sessionless=True)


def strip_attributes(story: UserStory, which: str) -> UserStory:
    """Remove an attribute subset from the header: all, profile, or location."""
    if which not in ATTRIBUTE_SUBSETS:
        raise ValueError(f"unknown attribute subset {which!r}; "
                         f"expected one of {ATTRIBUTE_SUBSETS}")
    if which == "all":
        pairs: tuple[tuple[str, str], ...] = ()
    elif which == "location":
        pairs = tuple(p for p in story.attributes.pairs if p[0] not in LOCATION_KEYS)
    else:  # profile: keep only location keys
        pairs = tuple(p for p in story.attributes.pairs if p[0] in LOCATION_KEYS)
    return replace(story, attributes=AttributeHeader(pairs))


def apply_transform(story: UserStory, *, view: str | None = None,
                    drop_sessions: bool = False,
                    drop_attributes: str | None = None) -> UserStory:
    """Compose the ablation transforms in a fixed order (view, attrs, sessions)."""
    out = story
    if view:
        out = strip_view(out, view)
    if drop_attributes:
        out = strip_attributes(out, drop_attributes)
    if drop_sessions:
        out = strip_sessions(out)
    return out
