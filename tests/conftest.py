import copy
import json
import re

import pytest
from hypothesis import strategies as st

from storyrank.stories import (
    AttributeHeader,
    CarouselRef,
    EMPTY_CAROUSEL,
    ItemRef,
    Surface,
    UserStory,
    search,
    segment_sessions,
    watch,
)
from storyrank.vocab import CatalogIndex, build_vocabulary

# Sunday 1970-01-11 UTC (day index 10 -> weekday 6 with Monday == 0)
SUNDAY = 10 * 86400

LANTERN = ItemRef("SYN201", "The Lantern at Exit 13")
MOTEL = ItemRef("SYN202", "Violet Static Motel")
LIGHTHOUSE = ItemRef("SYN301", "The Lighthouse Keeps Breathing")
PIER = ItemRef("SYN302", "Fog on Marigold Pier")
LIFEGUARD = ItemRef("SYN303", "The Clockwork Lifeguard")
MOONPOOL = ItemRef("SYN304", "Mist Above Moonpool Road")

SAMPLE_ITEMS = (LANTERN, MOTEL, LIGHTHOUSE, PIER, LIFEGUARD, MOONPOOL)
SAMPLE_CAROUSELS = (
    CarouselRef(""),
    CarouselRef("after_dark_detours"),
    CarouselRef("campfire_curiosities"),
    CarouselRef("coastal_mysteries"),
    CarouselRef("late_night_legends"),
    CarouselRef("rainy_night_rewinds"),
)


def sample_journey_events():
    """A two-session journey: search-as-you-type into a watch, a browse watch,
    then a rewatch sixteen hours later."""
    t = SUNDAY + 3 * 3600 + 600  # 03:10
    return [
        search(t, "lan"),
        search(t + 60, "lantern"),
        watch(t + 120, Surface.SEARCH, EMPTY_CAROUSEL, LANTERN, 87),
        watch(SUNDAY + 5 * 3600 + 1800, Surface.HOME,
              CarouselRef("after_dark_detours"), MOTEL, 50),
        watch(SUNDAY + 22 * 3600 + 1800, Surface.HOME,
              CarouselRef("rainy_night_rewinds"), LANTERN, 27),
    ]


def make_sample_story(user_id="viewer-1"):
    return UserStory(
        user_id=user_id,
        attributes=AttributeHeader((("country", "US"), ("device", "tv"))),
        sessions=segment_sessions(sample_journey_events()),
    )


SAMPLE_TEXT = (
    "country=US device=tv <|begin_sessions|> "
    "<|session|> elapsed=0h day=6 "
    "<|search|> hour=3 lan "
    "<|search|> hour=3 lantern "
    "<|watch|> hour=3 <|surface=search|><|carousel()|>"
    "<|id(SYN201|The Lantern at Exit 13)|> 87m "
    "<|watch|> hour=5 <|surface=home|><|carousel(after_dark_detours)|>"
    "<|id(SYN202|Violet Static Motel)|> 50m "
    "<|session|> elapsed=16h day=6 "
    "<|watch|> hour=22 <|surface=home|><|carousel(rainy_night_rewinds)|>"
    "<|id(SYN201|The Lantern at Exit 13)|> 27m"
)


@pytest.fixture(scope="session")
def sample_catalog():
    return CatalogIndex(SAMPLE_ITEMS, SAMPLE_CAROUSELS)


@pytest.fixture(scope="session")
def sample_vocab(sample_catalog):
    return build_vocabulary(sample_catalog)


@pytest.fixture()
def sample_story():
    return make_sample_story()


# --- mutated JSON records, for the decoder properties ------------------------

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 30), st.just(2 ** 70), st.floats(),
    st.text(max_size=6), st.sampled_from(["1753726", "home", "tv", "watch", "search"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(), max_size=2))


def _nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _nodes(child, path + (index,))


@st.composite
def mutated(draw, record, new_keys=("extra",)):
    """`record` with 1 to 3 changes, each at a random node: the node set to a
    random JSON value (null, bool, small or 2**70 integer, float with NaN and
    inf, string, list or object) or deleted, or a key from `new_keys` added
    to it."""
    record = copy.deepcopy(record)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(record))))
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        node = parent[path[-1]] if path else record
        action = draw(st.sampled_from(["set", "delete", "add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(new_keys))] = draw(JSON_VALUES)
        elif action == "delete" and path:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            record = draw(JSON_VALUES)
    return record


def assert_path_into(record, message):
    """`message` starts with a path into `record` ('record' for the record
    itself): every step of it exists, except a last key reported missing."""
    path, sep, rest = message.partition(": ")
    assert sep, message
    if path == "record":
        assert not isinstance(record, dict), message
        return
    steps = re.findall(r"\[(\d+)\]|([^.\[\]]+)", path)
    assert "".join(f"[{i}]" if i else f".{k}" for i, k in steps).lstrip(".") == path, message
    node = record
    for n, (index, key) in enumerate(steps):
        if index:
            assert isinstance(node, list) and int(index) < len(node), message
            node = node[int(index)]
        elif n == len(steps) - 1 and rest == "missing":
            assert isinstance(node, dict) and key not in node, message
        else:
            assert isinstance(node, dict) and key in node, message
            node = node[key]


def json_text(value) -> str:
    """JSON text, so that 1, 1.0 and true compare unequal, with sorted keys,
    so that two objects with the same members compare equal whatever order
    their keys were added in."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True)
