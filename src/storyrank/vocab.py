"""Mixed vocabulary: byte-level base tokens (plus optional learned merges)
interleaved with atomic domain tokens for markers, surfaces, carousels, and
catalog items.

A domain token is one vocabulary entry whatever its surface length, so an
item like <|id(SYN201|The Lantern at Exit 13)|> costs one token and one
forward pass scores the whole catalog off the next-token logits. One scan,
`_split_domain`, cuts text into domain forms and the byte gaps between them;
tokenizing merges each gap, and merge learning reads the same gaps.

Merges are learned and applied by one rule: in rank order, each once, as
`str.replace` on a gap held as a str of chr(token id). One pass ends where
repeatedly merging the lowest-rank pair present would, because merge r joins
ids below 256 + r: a pair that a merge creates holds its new id, so only a
later merge can take it.
"""
from __future__ import annotations

import hashlib
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from . import grammar
from .stories import CarouselRef, ItemRef, Size, Surface, _check_carousel_id, \
    _check_item_id, _check_title, check_ranges, fields, read_records, write_records

CLASS_BYTE = "byte"
CLASS_MERGE = "merge"
CLASS_MARKER = "marker"
CLASS_SURFACE = "surface"
CLASS_CAROUSEL = "carousel"
CLASS_ITEM = "item"
CLASS_SPECIAL = "special"

MASK_CAROUSEL_FORM = grammar.carousel_token(grammar.MASK_CAROUSEL)
UNK_ITEM_FORM = "<|id(UNK)|>"

N_BYTES = 256


class VocabularyError(ValueError):
    pass


class TokenizeError(ValueError):
    pass


@dataclass(frozen=True)
class VocabConfig:
    merges: Size = 0  # learned byte-pair merges over the base layer

    def __post_init__(self):
        check_ranges(self, VocabularyError)


@dataclass(frozen=True)
class CatalogIndex:
    """The item and carousel inventory a vocabulary is minted from."""
    items: tuple[ItemRef, ...]
    carousels: tuple[CarouselRef, ...]
    carousel_names: dict = field(default_factory=dict)

    def carousel_name(self, carousel_id: str) -> str:
        return self.carousel_names.get(carousel_id, carousel_id)


@dataclass(frozen=True)
class Vocabulary:
    classes: tuple[str, ...]
    forms: tuple[bytes, ...]  # UTF-8 surface form for every token
    merge_pairs: tuple[tuple[int, int], ...]  # merge id 256+r merges merge_pairs[r]

    # derived lookups, filled by _finish()
    domain_to_id: dict = field(default_factory=dict, compare=False)
    item_token_to_id: dict = field(default_factory=dict, compare=False)
    item_id_of_token: dict = field(default_factory=dict, compare=False)
    carousel_id_of_token: dict = field(default_factory=dict, compare=False)
    carousel_token_of_id: dict = field(default_factory=dict, compare=False)
    surface_ids: dict = field(default_factory=dict, compare=False)
    item_token_ids: tuple[int, ...] = field(default=(), compare=False)
    carousel_token_ids: tuple[int, ...] = field(default=(), compare=False)
    # (pair as a str of two chr(id), chr(merged id)) in rank order
    _merges: tuple = field(default=(), compare=False)
    _longest: int = field(default=0, compare=False)  # longest domain form

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def base_size(self) -> int:
        return N_BYTES + len(self.merge_pairs)

    @property
    def mask_carousel_id(self) -> int:
        return self.domain_to_id[MASK_CAROUSEL_FORM.encode()]

    @property
    def unk_item_id(self) -> int:
        return self.domain_to_id[UNK_ITEM_FORM.encode()]

    def vocab_hash(self) -> str:
        h = hashlib.sha256()
        for line in _token_lines(self):
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()[:16]


def _finish(vocab: Vocabulary) -> Vocabulary:
    _check_base(vocab)
    for tid in range(vocab.base_size, vocab.size):
        cls, form = vocab.classes[tid], vocab.forms[tid]
        if form in vocab.domain_to_id:
            raise VocabularyError(
                f"duplicate surface form {form.decode('utf-8', 'replace')!r}")
        _check_domain_form(form)
        vocab.domain_to_id[form] = tid
        key = _domain_key(tid, cls, form)
        if cls == CLASS_SURFACE:
            vocab.surface_ids[key] = tid
        elif cls == CLASS_CAROUSEL and key:
            # the empty carousel is no carousel task's target
            vocab.carousel_id_of_token[tid] = key
            vocab.carousel_token_of_id[key] = tid
        elif cls == CLASS_ITEM:
            item_id = key.split("|", 1)[0]
            if item_id in vocab.item_token_to_id:
                raise VocabularyError(
                    f"token {tid}: item id {item_id!r} already has token "
                    f"{vocab.item_token_to_id[item_id]}")
            vocab.item_id_of_token[tid] = item_id
            vocab.item_token_to_id[item_id] = tid
    # token ids were added in ascending order, so these are sorted
    object.__setattr__(vocab, "item_token_ids", tuple(vocab.item_id_of_token))
    object.__setattr__(vocab, "carousel_token_ids",
                       tuple(vocab.carousel_id_of_token))
    object.__setattr__(vocab, "_merges", tuple(
        (chr(a) + chr(b), chr(N_BYTES + r))
        for r, (a, b) in enumerate(vocab.merge_pairs)))
    object.__setattr__(vocab, "_longest", max(map(len, vocab.domain_to_id),
                                              default=0))
    return vocab


def _check_base(vocab: Vocabulary) -> None:
    """Refuse a byte and merge block that `_bpe_encode` would misread: ids
    0-255 are the bytes, then exactly one merge token per merge pair. Merge
    r joins two ids below its own id 256 + r (the rank-order argument in the
    module docstring), its form is their forms joined, and no two merges
    share a form (so no pair is listed twice)."""
    expected = [bytes([i]) for i in range(N_BYTES)]
    for tid, (a, b) in enumerate(vocab.merge_pairs, N_BYTES):
        if not (0 <= a < tid and 0 <= b < tid):
            raise VocabularyError(
                f"merge {tid} joins ({a}, {b}): both ids must be below {tid}")
        expected.append(expected[a] + expected[b])
    seen = set()
    for tid, form in enumerate(expected):
        cls = CLASS_BYTE if tid < N_BYTES else CLASS_MERGE
        if vocab.classes[tid:tid + 1] != (cls,) or vocab.forms[tid:tid + 1] != (form,):
            raise VocabularyError(f"token {tid} must be the {cls} {_escape(form)!r}")
        if form in seen:
            raise VocabularyError(f"merge {tid} repeats the form {_escape(form)!r}")
        seen.add(form)
    if vocab.classes.count(CLASS_MERGE) != len(vocab.merge_pairs):
        raise VocabularyError(f"{len(vocab.merge_pairs)} merge pairs need as many "
                              "merge tokens")


# The class of each domain form that is one of a fixed few (a marker or a
# special), and the opening and closing of each other domain class's form
# around its key (a surface name, a carousel id, an item's id|title).
_FIXED_FORMS = {**dict.fromkeys(grammar.MARKERS, CLASS_MARKER),
                MASK_CAROUSEL_FORM: CLASS_SPECIAL, UNK_ITEM_FORM: CLASS_SPECIAL}
_KEYED_FORMS = {CLASS_SURFACE: ("<|surface=", "|>"),
                CLASS_CAROUSEL: ("<|carousel(", ")|>"),
                CLASS_ITEM: ("<|id(", ")|>")}


def _domain_key(tid: int, cls: str, form: bytes) -> str:
    """The key of domain token `tid`'s form, "" for a marker or special;
    refuses a class the form is not of."""
    try:
        text = form.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise VocabularyError(f"token {tid}: form is not UTF-8: {exc}") \
            from None
    if text in _FIXED_FORMS:
        if _FIXED_FORMS[text] == cls:
            return ""
    elif cls in _KEYED_FORMS:
        opening, closing = _KEYED_FORMS[cls]
        if text.startswith(opening) and text.endswith(closing):
            return text[len(opening):-len(closing)]
    raise VocabularyError(f"token {tid}: class {cls!r} does not match the "
                          f"form {text!r}")


def _check_domain_form(form: bytes) -> None:
    # the domain scan relies on this (GRAMMAR.md, "Concatenation"): a form
    # closes at a '|>' before the next '<|' anchor
    if not (form.startswith(b"<|") and form.endswith(b"|>")) \
            or b"<|" in form[1:]:
        raise VocabularyError(
            f"domain form {form.decode('utf-8', 'replace')!r} must "
            "start with '<|', end with '|>' and hold no other '<|'")


def _split_domain(data: bytes, domain: dict, longest: int):
    """Yield (gap, token id) for each domain form in `data`, the gap being
    the bytes before it, then (the bytes after the last form, None).

    A form opens at a '<|' anchor and closes at a '|>' at most `longest`
    bytes on. Those '|>' are tried from the farthest back, so the longest
    form wins; as no form holds another '<|', none reaches past the next
    anchor. Raises TokenizeError on an anchor that opens no form.
    """
    pos = 0
    anchor = data.find(b"<|")
    while anchor >= 0:
        close = data.rfind(b"|>", anchor + 1, anchor + longest)
        while close >= 0:
            tid = domain.get(data[anchor:close + 2])
            if tid is not None:
                break
            close = data.rfind(b"|>", anchor + 1, close + 1)
        else:
            close = data.find(b"|>", anchor + 2)
            span = data[anchor:close + 2 if close >= 0 else anchor + 40]
            raise TokenizeError(
                f"unknown domain token span {span.decode('utf-8', 'replace')!r} "
                f"at byte {anchor}")
        yield data[pos:anchor], tid
        pos = close + 2
        anchor = data.find(b"<|", pos)
    yield data[pos:], None


def _byte_runs(text: str, domain_forms) -> list[bytes]:
    """The non-empty gaps between domain forms in `text` (merge-learning
    input)."""
    domain = dict.fromkeys(domain_forms, N_BYTES)
    return [gap for gap, _ in _split_domain(text.encode("utf-8"), domain,
                                            max(map(len, domain), default=0))
            if gap]


def _learn_merges(segments: list[bytes], n_merges: int,
                  existing_forms: set[bytes]) -> tuple[list[tuple[int, int]], list[bytes]]:
    """Greedy pair-merge learning over byte segments; returns (pairs, expansions).

    Each round merges the adjacent pair that occurs most often over all
    segments of two or more bytes, every occurrence counted (so `aaa` holds
    `(a, a)` twice), and at least twice. Ties go to the smallest (left, right)
    id pair. A pair whose merged bytes are already a form (a domain form or
    an earlier merge) is skipped, and learning stops early when no pair is
    left. A merge replaces the pair's occurrences left to right.

    Each distinct segment is counted once, weighted by how often it occurs,
    and a merge recounts only the segments that held its pair (Sennrich et
    al., 2016). A segment is held as a str of chr(token id), so a pair is a
    2-character str that sorts as its id pair does, and `str.replace` makes
    the left-to-right merge.
    """
    occurrences = Counter(seg.decode("latin-1") for seg in segments
                          if len(seg) >= 2)
    seqs = list(occurrences)
    weights = list(occurrences.values())
    held = [_pair_counts(seq) for seq in seqs]
    counts: Counter = Counter()
    # the segments each pair occurs in, or occurred in before a merge
    holders: dict[str, set[int]] = defaultdict(set)
    for si, pair_counts in enumerate(held):
        for p, c in pair_counts.items():
            counts[p] += c * weights[si]
            holders[p].add(si)
    expansion: list[bytes] = [bytes([i]) for i in range(N_BYTES)]
    pairs: list[tuple[int, int]] = []
    taken = set(existing_forms)
    for _ in range(n_merges):
        pair, best = None, 1
        for p, c in counts.items():
            if (c > best or (c == best and pair is not None and p < pair)) \
                    and expansion[ord(p[0])] + expansion[ord(p[1])] not in taken:
                pair, best = p, c
        if pair is None:
            break
        new_id = chr(N_BYTES + len(pairs))
        merged_form = expansion[ord(pair[0])] + expansion[ord(pair[1])]
        pairs.append((ord(pair[0]), ord(pair[1])))
        expansion.append(merged_form)
        taken.add(merged_form)
        for si in holders.pop(pair):
            if pair not in seqs[si]:
                continue
            w, before = weights[si], held[si]
            seqs[si] = seqs[si].replace(pair, new_id)
            held[si] = after = _pair_counts(seqs[si])
            for p, c in before.items():
                counts[p] -= c * w
            for p, c in after.items():
                counts[p] += c * w
                if p not in before:
                    holders[p].add(si)
        del counts[pair]
    return pairs, expansion[N_BYTES:]


def _pair_counts(seq: str) -> Counter:
    return Counter(map(str.__add__, seq, seq[1:]))


def build_vocabulary(catalog: CatalogIndex, merges: int = 0,
                     merge_training_text: str | None = None) -> Vocabulary:
    """Mint the full vocabulary for a catalog. Deterministic given inputs.

    Token layout: 256 byte tokens, `merges` learned merges, then the domain
    block (markers, surfaces, MASK/UNK specials, carousels sorted by id,
    items sorted by id).
    """
    classes: list[str] = [CLASS_BYTE] * N_BYTES
    forms: list[bytes] = [bytes([i]) for i in range(N_BYTES)]

    domain_entries: list[tuple[str, str]] = (
        [(CLASS_MARKER, form) for form in grammar.MARKERS]
        + [(CLASS_SURFACE, grammar.surface_token(s)) for s in Surface]
        + [(CLASS_SPECIAL, MASK_CAROUSEL_FORM), (CLASS_SPECIAL, UNK_ITEM_FORM)]
        + [(CLASS_CAROUSEL, grammar.carousel_token(c.carousel_id))
           for c in sorted(catalog.carousels, key=lambda c: c.carousel_id)]
        + [(CLASS_ITEM, grammar.item_token(i))
           for i in sorted(catalog.items, key=lambda i: i.item_id)])

    merge_pairs: tuple[tuple[int, int], ...] = ()
    if merges > 0:
        if merge_training_text is None:
            raise VocabularyError("merges > 0 requires merge_training_text")
        for _, form in domain_entries:  # _byte_runs scans with them before _finish
            _check_domain_form(form.encode())
        existing = {form.encode() for _, form in domain_entries}
        segments = _byte_runs(merge_training_text, existing)
        pairs, expansions = _learn_merges(segments, merges, existing)
        merge_pairs = tuple(pairs)
        classes += [CLASS_MERGE] * len(expansions)
        forms += expansions

    classes += [cls for cls, _ in domain_entries]
    forms += [form.encode() for _, form in domain_entries]

    return _finish(Vocabulary(tuple(classes), tuple(forms), merge_pairs))


def _bpe_encode(gap: bytes, merges: tuple) -> list[int]:
    """Byte-code a gap and apply the learned merges: in rank order, each
    once, as `str.replace` on the gap held as a str of chr(token id), the
    rule `_learn_merges` learned them by.

    One pass suffices: merge r joins ids below 256 + r, so a pair that a
    merge creates holds its new id and only a later merge can take it, and a
    replace leaves no occurrence of its own pair. `_check_base` refuses a
    merge table that breaks this.
    """
    seq = gap.decode("latin-1")
    for pair, merged in merges:
        seq = seq.replace(pair, merged)
    return list(map(ord, seq))


def tokenize(text: str, vocabulary: Vocabulary) -> list[int]:
    """Encode text; domain tokens longest-match, the rest is byte/merge coded.

    A '<|...|>' span matching no domain token is a hard error: catalog drift
    (an item or carousel the vocabulary was not minted with) is never mapped
    silently here.
    """
    out: list[int] = []
    for gap, tid in _split_domain(text.encode("utf-8"), vocabulary.domain_to_id,
                                  vocabulary._longest):
        if gap:
            out += _bpe_encode(gap, vocabulary._merges)
        if tid is not None:
            out.append(tid)
    return out


# --- vocabulary file --------------------------------------------------------

VOCAB_FORMAT = "storyrank-vocab-v1"
_PRINTABLE = set(range(0x20, 0x7F)) - {ord("\\")}
_ESCAPE = re.compile(r"\\x([0-9a-fA-F]{2})")


def _escape(form: bytes) -> str:
    return "".join(chr(b) if b in _PRINTABLE else f"\\x{b:02x}" for b in form)


def _unescape(text: str) -> bytes | None:
    """The bytes of an escaped form, or None when a backslash opens no
    `\\xNN` escape or a character is not ASCII (`_escape` writes every
    other byte as `\\xNN`)."""
    parts = _ESCAPE.split(text)  # literal, hex digits, literal, ...
    if any("\\" in literal or not literal.isascii() for literal in parts[::2]):
        return None
    parts[1::2] = [chr(int(digits, 16)) for digits in parts[1::2]]
    return "".join(parts).encode("latin-1")


def _token_lines(vocabulary: Vocabulary):
    for tid, (cls, form) in enumerate(zip(vocabulary.classes, vocabulary.forms)):
        yield f"{tid}\t{cls}\t{_escape(form)}"


def write_vocab(path, vocabulary: Vocabulary, *, manifest_hash: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        meta = {"format": VOCAB_FORMAT,
                "merge_pairs": [list(p) for p in vocabulary.merge_pairs]}
        if manifest_hash:
            meta["manifest"] = manifest_hash
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        for line in _token_lines(vocabulary):
            fh.write(line + "\n")


def _merge_pairs(meta_text: str, where: str, lineno: int
                 ) -> list[tuple[int, int]]:
    """The merge pairs of a `# ` metadata line at `where` (path:line), which
    must be line 1 and name the format."""
    try:
        meta = json.loads(meta_text)
    except json.JSONDecodeError as exc:
        raise VocabularyError(f"{where}: metadata is not JSON: {exc}") \
            from None
    if lineno != 1:
        raise VocabularyError(f"{where}: a metadata line after line 1; "
                              "a vocabulary file has one, as its first line")
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != VOCAB_FORMAT:
        raise VocabularyError(f"{where}: metadata format {fmt!r} is not "
                              f"{VOCAB_FORMAT!r}")
    pairs = meta.get("merge_pairs", [])
    if not isinstance(pairs, list):
        raise VocabularyError(f"{where}: metadata has no merge_pairs list")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(i) is int for i in pair)):
            raise VocabularyError(f"{where}: merge pair {pair!r} is not "
                                  "two integers")
    return [tuple(pair) for pair in pairs]


def read_vocab(path) -> Vocabulary:
    """The vocabulary file `write_vocab` writes. A fault raises
    VocabularyError naming path:line, or the path alone for a fault of the
    token table as a whole."""
    classes: list[str] = []
    forms: list[bytes] = []
    merge_pairs: list[tuple[int, int]] | None = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise VocabularyError(f"{where}: not UTF-8: {exc}") from None
            if not line:
                continue
            if line.startswith("# "):
                merge_pairs = _merge_pairs(line[2:], where, lineno)
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise VocabularyError(f"{where}: {len(fields)} tab-separated "
                                      "fields, not 3 (id, class, form)")
            tid_s, cls, escaped = fields
            if not (tid_s.isascii() and tid_s.isdigit()):
                raise VocabularyError(f"{where}: token id {tid_s!r} is "
                                      "not an integer")
            if int(tid_s) != len(classes):
                raise VocabularyError(f"{where}: non-contiguous token id "
                                      f"{tid_s} at position {len(classes)}")
            form = _unescape(escaped)
            if form is None:
                raise VocabularyError(f"{where}: malformed \\x escape "
                                      f"or non-ASCII character in {escaped!r}")
            classes.append(cls)
            forms.append(form)
    if merge_pairs is None:
        raise VocabularyError(f"{path}:1: no '# ' metadata line; a "
                              "vocabulary file starts with one")
    vocab = Vocabulary(tuple(classes), tuple(forms), tuple(merge_pairs))
    try:
        return _finish(vocab)
    except VocabularyError as exc:  # a fault of the whole file
        raise VocabularyError(f"{path}: {exc}") from None


# --- catalog file -----------------------------------------------------------

_ITEM, _ITEM_OPTIONAL = {"item_id": str, "title": str}, {"genre": str}
_CAROUSEL, _CAROUSEL_OPTIONAL = {"carousel_id": str}, {"name": str}


def write_catalog(path, catalog: CatalogIndex, *, header: dict | None = None,
                  genres: dict | None = None) -> None:
    """Item lines (`genre` from `genres`), then carousel lines (`name` if any)."""
    genres = genres or {}
    lines = [{"item_id": i.item_id, "title": i.title, "genre": genres.get(i.item_id)}
             for i in catalog.items] + [
        {"carousel_id": c.carousel_id, "name": catalog.carousel_names.get(c.carousel_id)}
        for c in catalog.carousels]
    write_records(path, [{k: v for k, v in line.items() if v is not None}
                         for line in lines], header=header)


def read_catalog(path) -> CatalogIndex:
    """The catalog file's items and carousels. A fault, a repeated item or
    carousel id or a character GRAMMAR.md reserves too (a carousel name is
    held to the title rule), raises VocabularyError naming path:line."""
    items, carousels, names, seen = [], [], {}, set()

    def held(key: str, value: str, rule) -> None:
        # GRAMMAR.md's character table, then no earlier line's id
        if (message := rule(value)) is not None:
            raise VocabularyError(f"{key}: {message}")
        if (key, value) in seen:
            raise VocabularyError(f"{key}: {value!r} repeats an earlier line's")
        seen.add((key, value))

    def line(d) -> None:
        if type(d) is dict and "carousel_id" in d:
            carousel_id, name = fields(d, "", _CAROUSEL, _CAROUSEL_OPTIONAL)
            held("carousel_id", carousel_id, _check_carousel_id)
            carousels.append(CarouselRef(carousel_id))
            if name is not None:
                if (message := _check_title(name, "name")) is not None:
                    raise VocabularyError(f"name: {message}")
                names[carousel_id] = name
        else:
            item_id, title, _ = fields(d, "", _ITEM, _ITEM_OPTIONAL)
            held("item_id", item_id, _check_item_id)
            if (message := _check_title(title)) is not None:
                raise VocabularyError(f"title: {message}")
            items.append(ItemRef(item_id, title))
    read_records(path, line, VocabularyError)
    return CatalogIndex(tuple(items), tuple(carousels), names)
