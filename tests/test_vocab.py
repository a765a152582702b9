import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storyrank.datagen import WorldConfig, generate_world
from storyrank.grammar import serialize
from storyrank.stories import CarouselRef, ItemRef
from storyrank.vocab import (
    CLASS_BYTE,
    CLASS_ITEM,
    CatalogIndex,
    TokenizeError,
    VocabularyError,
    _byte_runs,
    _learn_merges,
    _split_domain,
    build_vocabulary,
    read_catalog,
    read_vocab,
    tokenize,
    write_catalog,
    write_vocab,
)

from conftest import SAMPLE_TEXT, assert_path_into, json_text, make_sample_story, \
    mutated
from oracles import byte_runs, detokenize, learn_merges, \
    prefix_freedom_violations, rescan_tokenize


def small_catalog():
    return CatalogIndex(
        items=(ItemRef("A1", "Fog Pier"), ItemRef("B2", "Night Shift"),
               ItemRef("C3", "Last Exit")),
        carousels=(CarouselRef("top_picks"), CarouselRef("noir_nights")),
    )


def test_vocabulary_size_three_items_two_carousels():
    vocab = build_vocabulary(small_catalog())
    # 256 bytes + 4 markers + 4 surfaces + 2 specials + 2 carousels + 3 items
    assert vocab.size == 271


def test_vocabulary_size_empty_catalog():
    vocab = build_vocabulary(CatalogIndex((), ()))
    assert vocab.size == 266


def test_token_ids_contiguous_with_domain_block_above_base():
    vocab = build_vocabulary(small_catalog())
    assert vocab.classes[:256] == (CLASS_BYTE,) * 256
    domain = [i for i, c in enumerate(vocab.classes) if c != CLASS_BYTE]
    assert domain == list(range(256, vocab.size))


def test_build_is_deterministic(tmp_path):
    v1 = build_vocabulary(small_catalog())
    v2 = build_vocabulary(small_catalog())
    write_vocab(tmp_path / "a.tsv", v1)
    write_vocab(tmp_path / "b.tsv", v2)
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert v1.vocab_hash() == v2.vocab_hash()


def test_duplicate_catalog_ids_rejected():
    # read_catalog refuses a repeated id by path:line; a catalog built in
    # memory is refused by build_vocabulary
    with pytest.raises(VocabularyError,
                       match="item id 'A1' already has token"):
        build_vocabulary(CatalogIndex(
            (ItemRef("A1", "x"), ItemRef("A1", "y")), ()))
    with pytest.raises(VocabularyError,
                       match=re.escape("duplicate surface form "
                                       "'<|carousel(r)|>'")):
        build_vocabulary(CatalogIndex(
            (), (CarouselRef("r"), CarouselRef("r"))))


def test_tokenize_mixes_domain_and_byte_tokens(sample_vocab):
    ids = tokenize("<|watch|> hour=3 <|surface=search|>", sample_vocab)
    watch_id = sample_vocab.domain_to_id[b"<|watch|>"]
    search_id = sample_vocab.surface_ids["search"]
    assert ids[0] == watch_id
    assert ids[-1] == search_id
    middle = ids[1:-1]
    assert middle == [ord(c) for c in " hour=3 "]


def test_tokenize_empty_string(sample_vocab):
    assert tokenize("", sample_vocab) == []


def test_item_tokens_are_atomic(sample_vocab):
    ids = tokenize(SAMPLE_TEXT, sample_vocab)
    # every '<|' in the text opens exactly one domain token
    n_domain = sum(1 for i in ids if sample_vocab.classes[i] != CLASS_BYTE)
    assert n_domain == SAMPLE_TEXT.count("<|")
    item_ids = [i for i in ids if sample_vocab.classes[i] == CLASS_ITEM]
    assert len(item_ids) == 3  # three watches, one item token each


def test_roundtrip_sample_text(sample_vocab):
    assert detokenize(tokenize(SAMPLE_TEXT, sample_vocab), sample_vocab) == SAMPLE_TEXT


def test_unknown_domain_span_is_a_hard_error(sample_vocab):
    with pytest.raises(TokenizeError, match=r"<\|id\(SYN999\|Ghost Title\)\|>"):
        tokenize("before <|id(SYN999|Ghost Title)|> after", sample_vocab)


def test_title_drift_is_an_unknown_span(sample_vocab):
    drifted = SAMPLE_TEXT.replace("Violet Static Motel", "Violet Static Hotel")
    with pytest.raises(TokenizeError):
        tokenize(drifted, sample_vocab)


def test_prefix_freedom(sample_vocab):
    assert prefix_freedom_violations(sample_vocab) == []
    nested = CatalogIndex(
        items=(ItemRef("A", "T"), ItemRef("AB", "T2")),
        carousels=(CarouselRef("row"), CarouselRef("row_2")),
    )
    assert prefix_freedom_violations(build_vocabulary(nested)) == []


def test_vocab_file_roundtrip(tmp_path, sample_vocab):
    path = tmp_path / "vocab.tsv"
    write_vocab(path, sample_vocab, manifest_hash="deadbeef")
    loaded = read_vocab(path)
    assert loaded.vocab_hash() == sample_vocab.vocab_hash()
    assert tokenize(SAMPLE_TEXT, loaded) == tokenize(SAMPLE_TEXT, sample_vocab)
    assert loaded.item_token_ids == sample_vocab.item_token_ids


@pytest.mark.parametrize("bad_form", [
    "<|id(A1|Fog <|Pier)|>",  # '<|' inside a title
    "<|id(A1<|Fog Pier)|>",   # an item id ending in '<' meets the separator
    "<|id(A1|Fog Pier)",      # no closing '|>'
])
def test_vocab_file_with_inner_anchor_rejected(tmp_path, bad_form):
    path = tmp_path / "vocab.tsv"
    write_vocab(path, build_vocabulary(small_catalog()))
    text = path.read_text()
    assert "<|id(A1|Fog Pier)|>" in text
    path.write_text(text.replace("<|id(A1|Fog Pier)|>", bad_form))
    with pytest.raises(VocabularyError, match="must start with"):
        read_vocab(path)


def test_catalog_form_with_inner_anchor_rejected_before_merge_learning():
    catalog = CatalogIndex((ItemRef("A1", "Fog <|Pier"),), ())
    with pytest.raises(VocabularyError, match="must start with"):
        build_vocabulary(catalog, merges=2,
                         merge_training_text="ab <|id(A1|Fog <|Pier)|> ab")


def test_vocab_file_escapes_nonprintable_bytes(tmp_path, sample_vocab):
    path = tmp_path / "vocab.tsv"
    write_vocab(path, sample_vocab)
    lines = path.read_text().splitlines()
    assert lines[1].split("\t") == ["0", "byte", "\\x00"]
    assert lines[10].split("\t") == ["9", "byte", "\\x09"]  # tab is escaped
    assert lines[ord("a") + 1].split("\t") == [str(ord("a")), "byte", "a"]


# --- learned merges ---------------------------------------------------------

def test_merges_learned_and_applied():
    text = serialize(make_sample_story())
    catalog = CatalogIndex(
        items=(ItemRef("SYN201", "The Lantern at Exit 13"),
               ItemRef("SYN202", "Violet Static Motel")),
        carousels=(CarouselRef(""), CarouselRef("after_dark_detours"),
                   CarouselRef("rainy_night_rewinds")),
    )
    plain = build_vocabulary(catalog, merges=0)
    merged = build_vocabulary(catalog, merges=16, merge_training_text=text)
    assert merged.base_size == 256 + 16
    ids_plain = tokenize(text, plain)
    ids_merged = tokenize(text, merged)
    assert len(ids_merged) < len(ids_plain)
    assert detokenize(ids_merged, merged) == text
    again = build_vocabulary(catalog, merges=16, merge_training_text=text)
    assert again.merge_pairs == merged.merge_pairs


def test_merge_learning_sees_only_spans_between_domain_tokens():
    text = "ab <|id(A1|Fog Pier)|><|carousel(top_picks)|> cd<|session|>"
    assert _byte_runs(text, build_vocabulary(small_catalog()).domain_to_id) == \
        [b"ab ", b" cd"]


def test_unknown_span_in_merge_text_is_named():
    text = "fog pier <|id(A1|Fog Pier)|> fog <|id(SYN999|Ghost Title)|> pier"
    with pytest.raises(TokenizeError, match=r"<\|id\(SYN999\|Ghost Title\)\|>"):
        build_vocabulary(small_catalog(), merges=4, merge_training_text=text)


def test_merges_require_training_text():
    with pytest.raises(VocabularyError, match="merge_training_text"):
        build_vocabulary(small_catalog(), merges=4)


def _world_text(n_users):
    cfg = WorldConfig(n_users=n_users, n_items=400, n_carousels=40, n_genres=10)
    catalog, stories, _ = generate_world(cfg)
    return catalog, "\n".join(serialize(s) for s in stories)


# six users' text runs out of pairs seen twice after 325 merges
@pytest.mark.parametrize("n_users, merges",
                         [(12, 1), (12, 48), (12, 400), (6, 400)])
def test_merges_equal_the_recounting_oracle(n_users, merges):
    catalog, text = _world_text(n_users)
    domain = build_vocabulary(catalog).domain_to_id
    segments = _byte_runs(text, domain)
    assert _learn_merges(segments, merges, set(domain)) == \
        learn_merges(segments, merges, set(domain))


def test_merge_ties_go_to_the_smallest_pair_and_overlaps_count():
    # (x, y) and (a, b) both occur twice; (a, b) is the smaller pair
    assert _learn_merges([b"xy", b"ab", b"xy", b"ab"], 1, set()) == \
        ([(97, 98)], [b"ab"])
    # every occurrence counts, so "aaa" holds (a, a) twice
    assert _learn_merges([b"aaa"], 2, set()) == ([(97, 97)], [b"aa"])
    # short spans hold no pair, and a lone pair is not merged
    assert _learn_merges([b"", b"a", b"ab"], 4, set()) == ([], [])


def test_merge_skips_a_form_that_is_already_taken():
    segments = [b"abab", b"abc", b"bc"]
    pairs, forms = _learn_merges(segments, 3, {b"ab"})
    assert b"ab" not in forms
    assert (pairs, forms) == learn_merges(segments, 3, {b"ab"})


@given(st.lists(st.binary(max_size=12).map(lambda b: bytes(x % 3 + 97 for x in b)),
                max_size=30),
       st.integers(0, 12),
       st.sets(st.sampled_from([b"ab", b"ba", b"aa", b"abc", b"cab", b"ccc"])))
@settings(max_examples=300, deadline=None)
def test_tie_heavy_merges_equal_the_oracle(segments, merges, taken):
    assert _learn_merges(segments, merges, taken) == \
        learn_merges(segments, merges, taken)


def test_catalog_item_without_a_title_is_refused(tmp_path):
    # an absent title would read as "" and be written back as "title": ""
    path = tmp_path / "catalog.jsonl"
    write_catalog(path, small_catalog())
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({"item_id": "B2"})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(VocabularyError,
                       match=r"catalog\.jsonl:2: title: missing$"):
        read_catalog(path)
    lines[1] = json.dumps({"item_id": "B2", "title": ""})  # explicit "" is kept
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    again = tmp_path / "again.jsonl"
    write_catalog(again, read_catalog(path))
    assert again.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")


CATALOG_LINES = [{"item_id": "A1", "title": "Fog Pier", "genre": "noir"},
                 {"carousel_id": "top_picks", "name": "top picks"}]
MANIFEST_LINE = json.dumps({"_manifest": {"hash": "h"}}, sort_keys=True)


@given(st.sampled_from(CATALOG_LINES).flatmap(lambda line: mutated(
    line, new_keys=("extra", "item_id", "title", "genre", "carousel_id", "name")))
       .map(json_text))
@example(text=json_text({"name": "top picks", "carousel_id": ""}))
# U+0085 is written raw, and str.splitlines() splits a line at it
@example(text=json_text({"genre": "noir", "item_id": "\x85", "title": "Fog Pier"}))
@settings(max_examples=300, deadline=None)
def test_mutated_catalog_line_is_refused_by_path_or_round_trips(tmp_path_factory,
                                                               text):
    path = tmp_path_factory.mktemp("catalog") / "catalog.jsonl"
    path.write_text(f"{MANIFEST_LINE}\n{text}\n", encoding="utf-8")
    try:
        catalog = read_catalog(path)
    except VocabularyError as exc:
        prefix = f"{path}:2: "
        assert str(exc).startswith(prefix)
        assert_path_into(json.loads(text), str(exc)[len(prefix):])
        return
    # the reader checks an item's genre but keeps no genre: hand it back
    line = json.loads(text)
    again = path.with_name("again.jsonl")
    write_catalog(again, catalog, header={"hash": "h"},
                  genres={line["item_id"]: line["genre"]} if "genre" in line else None)
    # a record ends at "\n" only, as read_records splits
    assert [json_text(json.loads(line)) for line in
            again.read_text(encoding="utf-8").split("\n")[:-1]] == \
        [json_text(json.loads(MANIFEST_LINE)), text]


@pytest.mark.parametrize("line, message", [
    ({"item_id": 5, "title": "t"}, r"catalog\.jsonl:2: item_id: expected a string, "
                                   r"got 5$"),
    ({"item_id": "A", "title": 7}, r"catalog\.jsonl:2: title: expected a string, "
                                   r"got 7$"),
    ({"item_id": "A", "title": "t", "_manifest": {}},
     r"catalog\.jsonl:2: _manifest: unknown key$"),
    ({"carousel_id": "c", "item_id": "A"}, r"catalog\.jsonl:2: item_id: unknown key$"),
    # a line without carousel_id is an item line
    ({"name": "n"}, r"catalog\.jsonl:2: item_id: missing$"),
    ([1, 2], r"catalog\.jsonl:2: record: expected a JSON object, got \[1, 2\]$"),
    # GRAMMAR.md's character table: this item's token would name item "A"
    ({"item_id": "A|B", "title": "Fog Pier"},
     r"catalog\.jsonl:2: item_id: item_id contains reserved character '\|'$"),
    ({"item_id": "", "title": "Fog Pier"},
     r"catalog\.jsonl:2: item_id: item_id is empty$"),
    ({"item_id": "A1", "title": "Fog <|watch|> Pier"},
     r"catalog\.jsonl:2: title: title contains reserved sequence '<\|'$"),
    ({"carousel_id": "top(picks)"},
     r"catalog\.jsonl:2: carousel_id: carousel_id contains reserved "
     r"character '\('$"),
    # the catalog corpus tokenizes a name into its `has name` statement
    ({"carousel_id": "top", "name": "top <|watch|> picks"},
     r"catalog\.jsonl:2: name: name contains reserved sequence '<\|'$"),
])
def test_catalog_line_faults_name_the_file_line_and_field(tmp_path, line, message):
    path = tmp_path / "catalog.jsonl"
    path.write_text(f"{MANIFEST_LINE}\n{json.dumps(line)}\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match=message):
        read_catalog(path)


@pytest.mark.parametrize("repeat, message", [
    ({"item_id": "A1", "title": "Fog Pier II"},
     r"catalog\.jsonl:5: item_id: 'A1' repeats an earlier line's$"),
    ({"carousel_id": "top_picks"},
     r"catalog\.jsonl:5: carousel_id: 'top_picks' repeats an earlier line's$"),
])
def test_repeated_catalog_id_names_the_file_and_line(tmp_path, repeat, message):
    # an item and a carousel may share an id: only a repeat of its own kind
    path = tmp_path / "catalog.jsonl"
    lines = [MANIFEST_LINE, *map(json.dumps, CATALOG_LINES
                                 + [{"carousel_id": "A1"}, repeat])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match=message):
        read_catalog(path)


def test_generated_catalog_file_round_trips(tmp_path):
    catalog, _, genres = generate_world(WorldConfig(n_users=3, n_items=40))
    path, again = tmp_path / "catalog.jsonl", tmp_path / "again.jsonl"
    write_catalog(path, catalog, header={"hash": "h"}, genres=genres)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert all(line["genre"] == genres[line["item_id"]]
               for line in lines if "item_id" in line)
    assert all("name" in line for line in lines if "carousel_id" in line)
    write_catalog(again, read_catalog(path), header={"hash": "h"}, genres=genres)
    assert again.read_bytes() == path.read_bytes()


def test_empty_carousel_is_a_token_but_no_carousel_candidate(sample_vocab):
    empty = sample_vocab.domain_to_id[b"<|carousel()|>"]
    assert "" not in sample_vocab.carousel_token_of_id
    assert empty not in sample_vocab.carousel_id_of_token
    assert empty not in sample_vocab.carousel_token_ids
    assert len(sample_vocab.carousel_token_ids) == 5  # six catalog carousels
    assert tokenize("<|carousel()|>", sample_vocab) == [empty]


def test_desk_vocabulary_is_pinned():
    # recorded when merge learning was first written; a change here shifts
    # every corpus, checkpoint and benchmark digest downstream of build-vocab
    catalog, text = _world_text(60)
    vocab = build_vocabulary(catalog, merges=48, merge_training_text=text)
    assert vocab.vocab_hash() == "41a84eca75ea0de5"


@given(st.text(alphabet=st.characters(blacklist_characters="<", min_codepoint=32,
                                      max_codepoint=0x2FF), max_size=80))
@settings(max_examples=150, deadline=None)
def test_plain_text_roundtrips(sample_vocab, text):
    assert detokenize(tokenize(text, sample_vocab), sample_vocab) == text


# --- the domain scan and the merge rule against the rescanning oracle ------

# Forms that nest: each carousel form below extends the one before it past a
# '|>', and titles hold '|>', so the longest match and the '|>' inside a
# form are both exercised. The stories rules refuse a ')' in a carousel id;
# the vocabulary and the tokenizer do not rely on that.
NESTED_CATALOG = CatalogIndex(
    items=(ItemRef("A1", "x|>y"), ItemRef("A2", "|>"), ItemRef("B", "é|> b")),
    carousels=(CarouselRef("c"), CarouselRef("c)|>d"), CarouselRef("c)|>d)|>e")),
)
NESTED_FORMS = sorted(f.decode() for f in build_vocabulary(NESTED_CATALOG).domain_to_id)
_piece = st.sampled_from(NESTED_FORMS) | st.text(alphabet="ab", max_size=8) \
    | st.sampled_from([" ", ")", "é", "|>"])
_stray = st.sampled_from(["<|", "|>", "<", "|", ">", "<|id(A1|x|>", "<|carousel(c)|>d)"])
_ragged = st.builds(lambda form, cut: form[:cut], st.sampled_from(NESTED_FORMS),
                    st.integers(0, 24))


def _outcome(encode, text, *args):
    try:
        return encode(text, *args)
    except TokenizeError as exc:
        return str(exc)


@given(st.lists(_piece | _stray | _ragged, max_size=12).map("".join),
       st.lists(_piece, min_size=8, max_size=40).map("".join),
       st.integers(0, 20))
@settings(max_examples=300, deadline=None)
def test_tokenize_equals_the_rescanning_oracle(text, training_text, merges):
    vocab = build_vocabulary(NESTED_CATALOG, merges=merges,
                             merge_training_text=training_text)
    assert _outcome(tokenize, text, vocab) == _outcome(rescan_tokenize, text, vocab)
    assert _outcome(_byte_runs, text, vocab.domain_to_id) == \
        _outcome(byte_runs, text, vocab.domain_to_id)


@pytest.mark.parametrize("merges", [0, 48, 400])
def test_desk_world_tokenizes_as_the_oracle_does(merges):
    catalog, text = _world_text(200)
    vocab = build_vocabulary(catalog, merges=merges, merge_training_text=text)
    assert tokenize(text, vocab) == rescan_tokenize(text, vocab)
    assert _byte_runs(text, vocab.domain_to_id) == byte_runs(text, vocab.domain_to_id)


def test_domain_scan_probes_no_further_than_the_longest_form(sample_vocab):
    probed = []

    class Probe(dict):
        def get(self, key, default=None):
            probed.append(len(key))
            return super().get(key, default)

    longest = max(map(len, sample_vocab.domain_to_id))
    text = "<|search|> " + "q|>" * 2000 + " <|session|>"
    pieces = list(_split_domain(text.encode(), Probe(sample_vocab.domain_to_id),
                                longest))
    assert [tid for _, tid in pieces] == tokenize(
        "<|search|><|session|>", sample_vocab) + [None]
    assert max(probed) <= longest


# --- what read_vocab refuses ------------------------------------------------

def _forward_pair(meta, lines):
    meta["merge_pairs"][0][1] = 257


def _dropped_pair(meta, lines):
    del meta["merge_pairs"][-1]


def _duplicated_pair(meta, lines):
    pairs = meta["merge_pairs"]
    pairs[10] = pairs[9]


def _repeated_form(meta, lines):
    pairs = meta["merge_pairs"]
    pairs[10] = pairs[9]
    lines[266] = "266" + lines[265][3:]


def _byte_swapped(meta, lines):
    lines[65] = "65\tbyte\tB"


def _merge_form_changed(meta, lines):
    lines[256] += "x"


def _short_escape(meta, lines):
    lines[300] += "\\x4"


def _non_utf8_byte(meta, lines):
    lines[300] += "\udcff"  # written as the byte 0xff


def _non_ascii_form(meta, lines):
    lines[300] += "\u20ac"  # UTF-8, but forms escape every non-ASCII byte


def _two_fields(meta, lines):
    lines[9] = "9\tbyte"


def _word_id(meta, lines):
    lines[9] = "nine" + lines[9][1:]


def _gapped_id(meta, lines):
    lines[9] = "10" + lines[9][1:]


def _meta_not_json(meta, lines):
    lines.insert(0, '# {"merge_pairs": [[97, 98]')


def _pair_not_two_integers(meta, lines):
    pairs = meta["merge_pairs"]
    pairs[5] = [pairs[5][0], "x"]


def _other_format(meta, lines):
    meta["format"] = "storyrank-vocab-v0"


def _no_metadata(meta, lines):
    meta.clear()  # no metadata, no metadata line


def _late_metadata(meta, lines):
    lines.append('# {"format": "other", "merge_pairs": []}')


def _tokens(lines, cls):
    """(token id, form) of each token of class `cls`."""
    return [(tid, form) for tid, (_, c, form) in
            enumerate(line.split("\t") for line in lines) if c == cls]


def _marker_as_item(meta, lines):  # it loaded as a candidate named "ch"
    tid, form = _tokens(lines, "marker")[2]
    lines[tid] = f"{tid}\titem\t{form}"


def _item_as_marker(meta, lines):  # it left the candidates
    tid, form = _tokens(lines, "item")[0]
    lines[tid] = f"{tid}\tmarker\t{form}"


def _unk_as_item(meta, lines):
    tid, form = _tokens(lines, "special")[1]
    lines[tid] = f"{tid}\titem\t{form}"


def _item_id_twice(meta, lines):  # both candidates, only the second a target
    (_, first), *_, (tid, last) = _tokens(lines, "item")
    lines[tid] = f"{tid}\titem\t<|{first.split('|')[1]}|{last.split('|')[2]}|>"


def _non_utf8_item(meta, lines):
    tid, form = _tokens(lines, "item")[0]
    lines[tid] = f"{tid}\titem\t{form[:-3]}\\xff)|>"


@pytest.mark.parametrize("edit, message", [
    pytest.param(edit, message, id=edit.__name__.lstrip("_")) for edit, message in [
        (_forward_pair, r"vocab\.tsv: merge 256 joins \(\d+, 257\): both ids must be below 256"),
        (_dropped_pair, r"vocab\.tsv: 47 merge pairs need as many merge tokens"),
        (_duplicated_pair, r"vocab\.tsv: token 266 must be the merge"),
        (_repeated_form, r"vocab\.tsv: merge 266 repeats the form"),
        (_byte_swapped, r"vocab\.tsv: token 65 must be the byte"),
        (_merge_form_changed, r"vocab\.tsv: token 256 must be the merge"),
        (_short_escape, r"vocab\.tsv:302: malformed \\x escape"),
        (_non_utf8_byte, r"vocab\.tsv:302: not UTF-8"),
        (_non_ascii_form, r"vocab\.tsv:302: malformed .* non-ASCII character"),
        (_two_fields, r"vocab\.tsv:11: 2 tab-separated fields, not 3"),
        (_word_id, r"vocab\.tsv:11: token id 'nine' is not an integer"),
        (_gapped_id, r"vocab\.tsv:11: non-contiguous token id 10 at position 9"),
        (_meta_not_json, r"vocab\.tsv:2: metadata is not JSON"),
        (_pair_not_two_integers,
         r"vocab\.tsv:1: merge pair \[\d+, 'x'\] is not two integers"),
        (_other_format, r"vocab\.tsv:1: metadata format 'storyrank-vocab-v0' is not "
                        "'storyrank-vocab-v1'"),
        (_no_metadata, r"vocab\.tsv:1: no '# ' metadata line"),
        (_late_metadata, r"vocab\.tsv:\d+: a metadata line after line 1"),
        (_marker_as_item, r"vocab\.tsv: token 306: class 'item' does not match "
                          r"the form '<\|watch\|>'$"),
        (_item_as_marker, r"vocab\.tsv: token \d+: class 'marker' does not "
                          r"match the form '<\|id\("),
        (_unk_as_item, r"vocab\.tsv: token 313: class 'item' does not match the "
                       r"form '<\|id\(UNK\)\|>'$"),
        (_item_id_twice, r"vocab\.tsv: token \d+: item id '\w+' already has "
                         r"token \d+$"),
        (_non_utf8_item, r"vocab\.tsv: token \d+: form is not UTF-8: "),
    ]])
def test_vocab_file_that_would_tokenize_wrongly_is_refused(tmp_path, edit, message):
    catalog, text = _world_text(12)
    path = tmp_path / "vocab.tsv"
    write_vocab(path, build_vocabulary(catalog, merges=48, merge_training_text=text))
    header, *lines = path.read_text().splitlines()
    meta = json.loads(header[2:])
    edit(meta, lines)
    head = ["# " + json.dumps(meta)] if meta else []
    path.write_bytes(("\n".join(head + lines) + "\n").encode("utf-8",
                                                            "surrogateescape"))
    with pytest.raises(VocabularyError, match=message):
        read_vocab(path)
