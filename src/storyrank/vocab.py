"""Mixed vocabulary: byte-level base tokens (plus optional learned merges)
interleaved with atomic domain tokens for markers, surfaces, carousels, and
catalog items.

Domain tokens are single vocabulary entries regardless of their surface
length; tokenization longest-matches them anchored on '<|', so an item like
<|id(SYN201|The Lantern at Exit 13)|> always costs exactly one token and one
forward pass can score the whole catalog off the next-token logits. The spans
between domain tokens are byte coded, then merged by the learned pair ranks;
merge learning takes its byte spans from the same domain scan.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .stories import CarouselRef, ItemRef

CLASS_BYTE = "byte"
CLASS_MERGE = "merge"
CLASS_MARKER = "marker"
CLASS_SURFACE = "surface"
CLASS_CAROUSEL = "carousel"
CLASS_ITEM = "item"
CLASS_SPECIAL = "special"

MARKER_FORMS = ("<|begin_sessions|>", "<|session|>", "<|watch|>", "<|search|>")
SURFACE_FORMS = ("<|surface=home|>", "<|surface=search|>",
                 "<|surface=browse|>", "<|surface=autoplay|>")
MASK_CAROUSEL_FORM = "<|carousel(MASK)|>"
UNK_ITEM_FORM = "<|id(UNK)|>"

N_BYTES = 256


class VocabularyError(ValueError):
    pass


class TokenizeError(ValueError):
    pass


@dataclass(frozen=True)
class CatalogIndex:
    """The item and carousel inventory a vocabulary is minted from."""
    items: tuple[ItemRef, ...]
    carousels: tuple[CarouselRef, ...]
    carousel_names: dict = field(default_factory=dict)

    def __post_init__(self):
        item_ids = [i.item_id for i in self.items]
        if len(set(item_ids)) != len(item_ids):
            dup = sorted({x for x in item_ids if item_ids.count(x) > 1})
            raise VocabularyError(f"duplicate item ids in catalog: {dup[:5]}")
        car_ids = [c.carousel_id for c in self.carousels]
        if len(set(car_ids)) != len(car_ids):
            dup = sorted({x for x in car_ids if car_ids.count(x) > 1})
            raise VocabularyError(f"duplicate carousel ids in catalog: {dup[:5]}")

    def carousel_name(self, carousel_id: str) -> str:
        return self.carousel_names.get(carousel_id, carousel_id)


def item_token_form(item: ItemRef) -> str:
    return f"<|id({item.item_id}|{item.title})|>"


def carousel_token_form(carousel_id: str) -> str:
    return f"<|carousel({carousel_id})|>"


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
    marker_ids: dict = field(default_factory=dict, compare=False)
    surface_ids: dict = field(default_factory=dict, compare=False)
    _lengths: tuple = field(default=(), compare=False)
    _merge_ranks: dict = field(default_factory=dict, compare=False)

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

    @property
    def item_token_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.item_id_of_token))

    @property
    def carousel_token_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.carousel_id_of_token))

    def vocab_hash(self) -> str:
        h = hashlib.sha256()
        for line in _token_lines(self):
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()[:16]


def _finish(vocab: Vocabulary) -> Vocabulary:
    for tid, (cls, form) in enumerate(zip(vocab.classes, vocab.forms)):
        if cls in (CLASS_MARKER, CLASS_SURFACE, CLASS_CAROUSEL, CLASS_ITEM,
                   CLASS_SPECIAL):
            if form in vocab.domain_to_id:
                raise VocabularyError(
                    f"duplicate surface form {form.decode('utf-8', 'replace')!r}")
            # tokenizing a story piece by piece relies on this (GRAMMAR.md,
            # "Concatenation"): a match never runs into the next '<|' anchor
            if not (form.startswith(b"<|") and form.endswith(b"|>")) \
                    or b"<|" in form[1:]:
                raise VocabularyError(
                    f"domain form {form.decode('utf-8', 'replace')!r} must "
                    "start with '<|', end with '|>' and hold no other '<|'")
            vocab.domain_to_id[form] = tid
            text = form.decode("utf-8")
            if cls == CLASS_MARKER:
                vocab.marker_ids[text] = tid
            elif cls == CLASS_SURFACE:
                vocab.surface_ids[text[len("<|surface="):-2]] = tid
            elif cls == CLASS_CAROUSEL:
                cid = text[len("<|carousel("):-3]
                vocab.carousel_id_of_token[tid] = cid
                vocab.carousel_token_of_id[cid] = tid
            elif cls == CLASS_ITEM:
                item_id = text[len("<|id("):].split("|", 1)[0]
                vocab.item_id_of_token[tid] = item_id
                vocab.item_token_to_id[item_id] = tid
    lengths = sorted({len(f) for f in vocab.domain_to_id}, reverse=True)
    object.__setattr__(vocab, "_lengths", tuple(lengths))
    ranks = {pair: (rank, N_BYTES + rank)
             for rank, pair in enumerate(vocab.merge_pairs)}
    object.__setattr__(vocab, "_merge_ranks", ranks)
    return vocab


def _byte_runs(text: str, domain_forms) -> list[bytes]:
    """Byte spans of `text` between domain tokens (merge-learning input): the
    merge-free encoding with every domain form mapped to id N_BYTES, split at
    those ids."""
    domain = dict.fromkeys(domain_forms, N_BYTES)
    lengths = tuple(sorted({len(f) for f in domain}, reverse=True))
    runs: list[bytes] = []
    run: list[int] = []
    for tid in _encode_text(text.encode("utf-8"), domain, lengths, {}):
        if tid < N_BYTES:
            run.append(tid)
        elif run:
            runs.append(bytes(run))
            run = []
    if run:
        runs.append(bytes(run))
    return runs


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

    domain_entries: list[tuple[str, str]] = []
    for form in MARKER_FORMS:
        domain_entries.append((CLASS_MARKER, form))
    for form in SURFACE_FORMS:
        domain_entries.append((CLASS_SURFACE, form))
    domain_entries.append((CLASS_SPECIAL, MASK_CAROUSEL_FORM))
    domain_entries.append((CLASS_SPECIAL, UNK_ITEM_FORM))
    for carousel in sorted(catalog.carousels, key=lambda c: c.carousel_id):
        domain_entries.append((CLASS_CAROUSEL, carousel_token_form(carousel.carousel_id)))
    for item in sorted(catalog.items, key=lambda i: i.item_id):
        domain_entries.append((CLASS_ITEM, item_token_form(item)))

    merge_pairs: tuple[tuple[int, int], ...] = ()
    if merges > 0:
        if merge_training_text is None:
            raise VocabularyError("merges > 0 requires merge_training_text")
        existing = {form.encode() for _, form in domain_entries}
        segments = _byte_runs(merge_training_text, existing)
        pairs, expansions = _learn_merges(segments, merges, existing)
        merge_pairs = tuple(pairs)
        for exp in expansions:
            classes.append(CLASS_MERGE)
            forms.append(exp)

    for cls, form in domain_entries:
        classes.append(cls)
        forms.append(form.encode())

    return _finish(Vocabulary(tuple(classes), tuple(forms), merge_pairs))


def _bpe_encode(ids: list[int], ranks: dict) -> list[int]:
    """Apply learned merges to a byte-id sequence.

    ranks maps (left_id, right_id) -> (rank, merged_id); the lowest rank is
    merged first, all occurrences left to right, until no pair applies.
    """
    if not ranks or len(ids) < 2:
        return ids
    while True:
        best_rank = -1
        best_new = -1
        best_a = best_b = -1
        for i in range(len(ids) - 1):
            entry = ranks.get((ids[i], ids[i + 1]))
            if entry is not None and (best_rank < 0 or entry[0] < best_rank):
                best_rank, best_new = entry
                best_a, best_b = ids[i], ids[i + 1]
        if best_rank < 0:
            return ids
        out = []
        i = 0
        n = len(ids)
        while i < n:
            if i + 1 < n and ids[i] == best_a and ids[i + 1] == best_b:
                out.append(best_new)
                i += 2
            else:
                out.append(ids[i])
                i += 1
        ids = out


def _encode_text(data: bytes, domain: dict, lengths: tuple, ranks: dict) -> list[int]:
    """Tokenize UTF-8 bytes: longest-match domain tokens anchored on '<|',
    byte/merge encoding for everything in between.

    domain maps surface-form bytes -> token id; lengths is the descending
    tuple of distinct surface-form lengths. Raises TokenizeError on a '<|...'
    span that matches no domain token.
    """
    out: list[int] = []
    pos = 0
    n = len(data)
    while pos < n:
        anchor = data.find(b"<|", pos)
        if anchor < 0:
            anchor = n
        if anchor > pos:
            out.extend(_bpe_encode(list(data[pos:anchor]), ranks))
            pos = anchor
        if pos >= n:
            break
        matched = -1
        for length in lengths:
            if pos + length > n:
                continue
            tid = domain.get(data[pos:pos + length])
            if tid is not None:
                matched = length
                out.append(tid)
                break
        if matched < 0:
            close = data.find(b"|>", pos + 2)
            span = data[pos:close + 2 if close >= 0 else min(n, pos + 40)]
            raise TokenizeError(
                f"unknown domain token span {span.decode('utf-8', 'replace')!r} "
                f"at byte {pos}")
        pos += matched
    return out


def tokenize(text: str, vocabulary: Vocabulary) -> list[int]:
    """Encode text; domain tokens longest-match, the rest is byte/merge coded.

    A '<|...|>' span matching no domain token is a hard error: catalog drift
    (an item or carousel the vocabulary was not minted with) is never mapped
    silently here.
    """
    return _encode_text(text.encode("utf-8"), vocabulary.domain_to_id,
                        vocabulary._lengths, vocabulary._merge_ranks)


# --- vocabulary file --------------------------------------------------------

_PRINTABLE = set(range(0x20, 0x7F)) - {ord("\\")}


def _escape(form: bytes) -> str:
    out = []
    for b in form:
        if b in _PRINTABLE:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def _unescape(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 3 < len(text) + 1 and text[i + 1] == "x":
            out.append(int(text[i + 2:i + 4], 16))
            i += 4
        else:
            out.append(ord(text[i]))
            i += 1
    return bytes(out)


def _token_lines(vocabulary: Vocabulary):
    for tid, (cls, form) in enumerate(zip(vocabulary.classes, vocabulary.forms)):
        yield f"{tid}\t{cls}\t{_escape(form)}"


def write_vocab(path, vocabulary: Vocabulary, *, manifest_hash: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        meta = {"format": "storyrank-vocab-v1",
                "merge_pairs": [list(p) for p in vocabulary.merge_pairs]}
        if manifest_hash:
            meta["manifest"] = manifest_hash
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        for line in _token_lines(vocabulary):
            fh.write(line + "\n")


def read_vocab(path) -> Vocabulary:
    classes: list[str] = []
    forms: list[bytes] = []
    merge_pairs: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                meta = json.loads(line[2:])
                merge_pairs = [tuple(p) for p in meta.get("merge_pairs", [])]
                continue
            tid_s, cls, escaped = line.split("\t")
            if int(tid_s) != len(classes):
                raise VocabularyError(
                    f"non-contiguous token id {tid_s} at position {len(classes)}")
            classes.append(cls)
            forms.append(_unescape(escaped))
    vocab = Vocabulary(tuple(classes), tuple(forms), tuple(merge_pairs))
    return _finish(vocab)


# --- catalog file -----------------------------------------------------------

def write_catalog(path, catalog: CatalogIndex, *, header: dict | None = None,
                  item_extra: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"_manifest": header}, sort_keys=True) + "\n")
        for item in catalog.items:
            record = {"item_id": item.item_id, "title": item.title}
            if item_extra and item.item_id in item_extra:
                record.update(item_extra[item.item_id])
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        for carousel in catalog.carousels:
            fh.write(json.dumps({"carousel_id": carousel.carousel_id,
                                 "name": catalog.carousel_name(carousel.carousel_id)},
                                ensure_ascii=False) + "\n")


def read_catalog(path) -> CatalogIndex:
    items: list[ItemRef] = []
    carousels: list[CarouselRef] = []
    names: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            if "_manifest" in d:
                continue
            if "item_id" in d:
                items.append(ItemRef(d["item_id"], d.get("title", "")))
            elif "carousel_id" in d:
                carousels.append(CarouselRef(d["carousel_id"]))
                if "name" in d:
                    names[d["carousel_id"]] = d["name"]
            else:
                raise VocabularyError(f"catalog line without item_id or carousel_id: {d}")
    return CatalogIndex(tuple(items), tuple(carousels), names)
