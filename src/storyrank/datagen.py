"""Synthetic viewer journeys with learnable cross-task structure.

Users carry sharp genre preferences; items carry genres with a within-genre
popularity skew; rewatches repeat earlier items; and a configurable share of
watches is preceded by search-as-you-type events whose queries are prefixes
of the watched title. That last rule is what lets a unified model beat an
item-only view on search ranking: the query determines the watched item
almost uniquely, but only if the model gets to see search events.

Generation is per-user with counter-based streams keyed on (seed, user
index), so output is byte-identical regardless of generation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stories import (
    AttributeHeader,
    CarouselRef,
    EMPTY_CAROUSEL,
    ItemRef,
    SearchEvent,
    Surface,
    UserStory,
    WatchEvent,
    search,
    segment_sessions,
    watch,
)
from .vocab import CatalogIndex

GENRE_POOL = (
    "noir", "horror", "comedy", "romance", "scifi", "western", "thriller",
    "fantasy", "crime", "drama", "mystery", "documentary",
)

_FIRST = (
    "velvet", "crimson", "silent", "neon", "rusty", "golden", "hollow",
    "electric", "paper", "winter", "lunar", "scarlet", "glass", "iron",
    "ember", "violet", "cobalt", "ashen", "midnight", "copper",
)
_SECOND = (
    "lantern", "harbor", "signal", "orchid", "engine", "shadow", "carnival",
    "meridian", "compass", "satellite", "garden", "archive", "mirage",
    "anthem", "cascade", "beacon", "parlor", "junction", "monsoon", "citadel",
)
_THIRD = (
    "returns", "awakens", "protocol", "diaries", "boulevard", "syndicate",
    "frequency", "odyssey", "paradox", "vendetta", "horizon", "chronicles",
    "experiment", "confession", "expedition", "interlude", "reckoning",
    "labyrinth", "serenade", "afterglow",
)
# distinct titles build_catalog can draw: two-word plus three-word
TITLE_SPACE = len(_FIRST) * len(_SECOND) * (1 + len(_THIRD))

_COUNTRIES = ("US", "CA", "BR", "MX", "GB")
_DEVICES = ("tv", "mobile", "web", "tablet")
_PLANS = ("free", "basic")

_GLOBAL_CAROUSELS = (
    "trending_now", "new_this_week", "critically_acclaimed",
    "hidden_treasures", "continue_watching", "leaving_soon",
    "because_you_watched", "weekend_binge",
)


class DatagenError(ValueError):
    pass


@dataclass(frozen=True)
class WorldConfig:
    n_users: int = 1000
    n_items: int = 400
    n_carousels: int = 40
    n_genres: int = 10
    rng_seed: int = 0
    mean_sessions_per_user: float = 24.0
    mean_events_per_user: float = 44.0
    rewatch_prob: float = 0.25
    search_before_watch_prob: float = 0.30
    keystroke_prefix_depth: int = 3
    genre_sharpness: float = 0.12   # Dirichlet concentration of user tastes
    zipf_exponent: float = 1.05     # within-genre popularity skew
    mean_session_gap_hours: float = 10.0
    epoch: int = 4 * 86400          # Monday 1970-01-05, matching the grammar

    def __post_init__(self):
        if self.n_items < 1 or self.n_users < 1 or self.n_carousels < 1:
            raise DatagenError("users, items, and carousels must be positive")
        if self.n_items > TITLE_SPACE:
            raise DatagenError(f"n_items {self.n_items} exceeds the "
                               f"{TITLE_SPACE} distinct item titles")
        if not 1 <= self.n_genres <= min(self.n_items, len(GENRE_POOL)):
            raise DatagenError(
                f"n_genres must be in 1..{min(self.n_items, len(GENRE_POOL))}")
        for name in ("rewatch_prob", "search_before_watch_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DatagenError(f"{name} must be a probability")
        if self.keystroke_prefix_depth < 1:
            raise DatagenError("keystroke_prefix_depth must be >= 1")
        if self.mean_events_per_user < self.mean_sessions_per_user * 0.5:
            raise DatagenError("mean_events_per_user too low for the "
                               "configured session rate")

    @property
    def mean_queries_per_flow(self) -> float:
        return (1 + self.keystroke_prefix_depth) / 2

    @property
    def mean_watches_per_session(self) -> float:
        per_watch = 1.0 + self.search_before_watch_prob * self.mean_queries_per_flow
        return self.mean_events_per_user / (self.mean_sessions_per_user * per_watch)


@dataclass(frozen=True)
class WorldItem:
    ref: ItemRef
    genre: str


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def build_catalog(cfg: WorldConfig) -> tuple[list[WorldItem], list[str]]:
    """Deterministic item and carousel inventory for the world."""
    rng = _rng(cfg.rng_seed, 0)
    genres = GENRE_POOL[:cfg.n_genres]
    titles_seen = set()
    items: list[WorldItem] = []
    i = 0
    while len(items) < cfg.n_items:
        a = _FIRST[int(rng.integers(len(_FIRST)))]
        b = _SECOND[int(rng.integers(len(_SECOND)))]
        if rng.random() < 0.55:
            title = f"{a.capitalize()} {b.capitalize()} " \
                    f"{_THIRD[int(rng.integers(len(_THIRD)))].capitalize()}"
        else:
            title = f"{a.capitalize()} {b.capitalize()}"
        if title in titles_seen:
            continue
        titles_seen.add(title)
        genre = genres[len(items) % len(genres)]
        items.append(WorldItem(ItemRef(f"M{i:05d}", title), genre))
        i += 1
    carousels: list[str] = []
    for genre in genres:
        carousels.append(f"{genre}_picks")
        carousels.append(f"{genre}_gems")
    carousels.extend(_GLOBAL_CAROUSELS)
    if len(carousels) < cfg.n_carousels:
        carousels.extend(f"collection_{j:02d}"
                         for j in range(cfg.n_carousels - len(carousels)))
    return items, carousels[:cfg.n_carousels]


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), exponent)
    return w / w.sum()


def _query_prefixes(title: str, n_queries: int,
                    rng: np.random.Generator) -> list[str]:
    """Search-as-you-type states: strictly lengthening prefixes of the
    lowercased title. The last state usually completes the first word, which
    gives lexical baselines a term to match."""
    lowered = title.lower()
    first_word_end = lowered.find(" ")
    if first_word_end < 0:
        first_word_end = len(lowered)
    if rng.random() < 0.6 or len(lowered) <= 4:
        final = first_word_end
    else:
        final = int(rng.integers(4, min(len(lowered), 12) + 1))
    lengths = sorted({max(3, int(round(x)))
                      for x in np.linspace(3, final, n_queries)})
    out = []
    for length in lengths:
        q = lowered[:length].rstrip()
        if q and (not out or q != out[-1]):
            out.append(q)
    return out


def _generate_user(cfg: WorldConfig, user_index: int, items: list[WorldItem],
                   carousels: list[str]) -> UserStory:
    rng = _rng(cfg.rng_seed, 1_000_003 + user_index)
    genres = GENRE_POOL[:cfg.n_genres]
    by_genre = {g: [it for it in items if it.genre == g] for g in genres}
    prefs = rng.dirichlet(np.full(cfg.n_genres, cfg.genre_sharpness))
    genre_carousels = {g: [c for c in carousels if c.startswith(g + "_")]
                       for g in genres}
    global_carousels = [c for c in carousels
                        if not any(c.startswith(g + "_") for g in genres)]

    attributes = AttributeHeader((
        ("country", _COUNTRIES[int(rng.integers(len(_COUNTRIES)))]),
        ("device", _DEVICES[int(rng.integers(len(_DEVICES)))]),
        ("plan", _PLANS[int(rng.integers(len(_PLANS)))]),
    ))

    n_sessions = max(1, int(rng.poisson(cfg.mean_sessions_per_user)))
    mean_watches = max(0.05, cfg.mean_watches_per_session - 1.0)
    events = []
    watched: list[WorldItem] = []
    activity_end = cfg.epoch + int(rng.integers(0, 7 * 86400))
    for _ in range(n_sessions):
        t = activity_end + 3660 + int(rng.exponential(
            cfg.mean_session_gap_hours * 3600))
        n_watches = 1 + int(rng.poisson(mean_watches))
        for _ in range(n_watches):
            if watched and rng.random() < cfg.rewatch_prob:
                item = watched[int(rng.integers(len(watched)))]
            else:
                genre = genres[int(rng.choice(cfg.n_genres, p=prefs))]
                pool = by_genre[genre] or items
                weights = _zipf_weights(len(pool), cfg.zipf_exponent)
                item = pool[int(rng.choice(len(pool), p=weights))]
            duration = int(rng.integers(5, 111))
            if rng.random() < cfg.search_before_watch_prob:
                n_q = int(rng.integers(1, cfg.keystroke_prefix_depth + 1))
                for q in _query_prefixes(item.ref.title, n_q, rng):
                    events.append(search(t, q))
                    t += int(rng.integers(2, 15))
                events.append(watch(t, Surface.SEARCH, EMPTY_CAROUSEL,
                                    item.ref, duration))
            else:
                surface = (Surface.HOME, Surface.BROWSE, Surface.AUTOPLAY)[
                    int(rng.choice(3, p=[0.6, 0.25, 0.15]))]
                if surface == Surface.AUTOPLAY:
                    carousel = EMPTY_CAROUSEL
                else:
                    genre_rows = genre_carousels.get(item.genre) or global_carousels
                    rows = genre_rows if rng.random() < 0.7 and genre_rows \
                        else global_carousels
                    carousel = CarouselRef(rows[int(rng.integers(len(rows)))]) \
                        if rows else EMPTY_CAROUSEL
                events.append(watch(t, surface, carousel, item.ref, duration))
            watched.append(item)
            activity_end = max(activity_end, events[-1].end_time)
            t = events[-1].timestamp + int(rng.integers(60, 2700))
    return UserStory(user_id=f"u{user_index:06d}", attributes=attributes,
                     sessions=segment_sessions(events))


def generate_world(cfg: WorldConfig) -> tuple[CatalogIndex, list[UserStory], dict]:
    """The full synthetic world: catalog, one story per user, and the item
    genre map (for the catalog file). Deterministic given cfg."""
    items, carousels = build_catalog(cfg)
    catalog = CatalogIndex(
        items=tuple(it.ref for it in items),
        carousels=tuple([CarouselRef("")]
                        + [CarouselRef(c) for c in sorted(carousels)]),
        carousel_names={c: c.replace("_", " ") for c in carousels},
    )
    stories = [_generate_user(cfg, i, items, carousels)
               for i in range(cfg.n_users)]
    genre_of = {it.ref.item_id: it.genre for it in items}
    return catalog, stories, genre_of


def world_report(stories) -> dict:
    """Population statistics in the shape of the dataset-statistics table."""
    if not stories:
        raise DatagenError("world_report over an empty story list")
    titles = set()
    carousels = set()
    surfaces = set()
    watches = 0
    searches = 0
    sessions = 0
    for story in stories:
        sessions += len(story.sessions)
        for event in story.events():
            if isinstance(event, WatchEvent):
                watches += 1
                surfaces.add(event.surface.value)
                if event.item is not None:
                    titles.add(event.item.item_id)
                if event.carousel.carousel_id:
                    carousels.add(event.carousel.carousel_id)
            elif isinstance(event, SearchEvent):
                searches += 1
                surfaces.add(Surface.SEARCH.value)
    n = len(stories)
    order = [s.value for s in Surface]
    return {
        "Sampled viewers": n,
        "Unique titles": len(titles),
        "Unique carousels": len(carousels),
        "Total watches": watches,
        "Total searches": searches,
        "Surfaces": ", ".join(s.capitalize() for s in order if s in surfaces),
        "Avg. events/viewer": round((watches + searches) / n, 2),
        "Avg. sessions/viewer": round(sessions / n, 2),
    }
