"""Training corpora: stochastic masking, the catalog corpus, the 20:1
story/catalog mixture, and the binary record stream on disk.

Masking is training-time only. Carousel masking replaces a watch's
surface+carousel token pair with <|surface=home|><|carousel(MASK)|> so the
model learns a container-independent next-item score; item UNK substitution
teaches it to survive catalog drift between token refreshes. Both draws come
from a counter-based generator keyed on (seed, sequence index), so corpora
are reproducible regardless of worker count or platform.
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import grammar
from .manifest import read_header
from .stories import Count, Probability, Width, check_ranges
from .vocab import CLASS_CAROUSEL, CLASS_ITEM, CLASS_SURFACE, \
    CatalogIndex, Vocabulary, tokenize

ORIGIN_STORY = 0
ORIGIN_CATALOG = 1

_MAGIC = b"SRCORP1\n"


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class MaskingConfig:
    p_carousel_mask: Probability = 0.1
    p_item_unk: Probability = 0.001
    rng_seed: int = 0

    def __post_init__(self):
        check_ranges(self, CorpusError)


@dataclass(frozen=True)
class MixtureConfig:
    story_weight: Count = 20
    catalog_weight: Count = 1
    context_length: Width = 256
    rng_seed: int = 0

    def __post_init__(self):
        check_ranges(self, CorpusError)


@dataclass(frozen=True)
class TrainingExample:
    token_ids: tuple[int, ...]
    origin: int  # ORIGIN_STORY or ORIGIN_CATALOG


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def apply_masking(token_ids, cfg: MaskingConfig, vocabulary: Vocabulary,
                  sequence_index: int = 0) -> list[int]:
    """Mask one tokenized story. Deterministic given (seed, sequence_index).

    Per watch event (a surface token followed by a carousel token), with
    probability p_carousel_mask the pair becomes home+MASK. Independently,
    each item token becomes UNK with probability p_item_unk. Sequence length
    never changes.
    """
    classes = vocabulary.classes
    pair_positions = []
    item_positions = []
    for i, tid in enumerate(token_ids):
        cls = classes[tid]
        if cls == CLASS_SURFACE and i + 1 < len(token_ids):
            nxt = classes[token_ids[i + 1]]
            if nxt == CLASS_CAROUSEL or token_ids[i + 1] == vocabulary.mask_carousel_id:
                pair_positions.append(i)
        elif cls == CLASS_ITEM:
            item_positions.append(i)
    out = list(token_ids)
    rng = _rng(cfg.rng_seed, sequence_index)
    draws = rng.random(len(pair_positions))
    for pos, u in zip(pair_positions, draws):
        if u < cfg.p_carousel_mask:
            out[pos] = vocabulary.surface_ids["home"]
            out[pos + 1] = vocabulary.mask_carousel_id
    draws = rng.random(len(item_positions))
    for pos, u in zip(item_positions, draws):
        if u < cfg.p_item_unk:
            out[pos] = vocabulary.unk_item_id
    return out


def build_catalog_corpus(catalog: CatalogIndex,
                         vocabulary: Vocabulary) -> list[TrainingExample]:
    """Token-to-text statements: one per item ('<token> has title ...') and
    one per carousel ('<token> has name ...'), each token found by its form,
    so the empty carousel's too."""
    statements = [f"{grammar.item_token(item)} has title {item.title}"
                  for item in sorted(catalog.items, key=lambda i: i.item_id)]
    statements += [f"{grammar.carousel_token(c.carousel_id)} has name "
                   f"{catalog.carousel_name(c.carousel_id)}"
                   for c in sorted(catalog.carousels, key=lambda c: c.carousel_id)]
    return [TrainingExample(tuple(tokenize(text.rstrip(), vocabulary)),
                            ORIGIN_CATALOG) for text in statements]


def sample_mixture(story_examples, catalog_examples, cfg: MixtureConfig,
                   n: int, masking: MaskingConfig | None = None,
                   vocabulary: Vocabulary | None = None) -> Iterator[TrainingExample]:
    """Draw n training examples, stories vs catalog at the configured weights
    (20:1 by default, i.e. story with probability 20/21), uniform within each
    corpus. Story draws are masked (when a masking config is given); every
    draw is then cut to its first context_length tokens.
    """
    if n <= 0:
        raise CorpusError(f"sample count must be positive, got {n}")
    if not story_examples or not catalog_examples:
        raise CorpusError("both corpora must be non-empty")
    if masking is not None and vocabulary is None:
        raise CorpusError("masking requires the vocabulary")
    p_story = cfg.story_weight / (cfg.story_weight + cfg.catalog_weight)
    rng = _rng(cfg.rng_seed, 0)
    for i in range(n):
        if rng.random() < p_story:
            ex = story_examples[int(rng.integers(len(story_examples)))]
            ids, origin = ex.token_ids, ORIGIN_STORY
            if masking is not None:
                ids = apply_masking(ids, masking, vocabulary, sequence_index=i)
        else:
            ex = catalog_examples[int(rng.integers(len(catalog_examples)))]
            ids, origin = ex.token_ids, ex.origin
        yield TrainingExample(tuple(ids[:cfg.context_length]), origin)


def tokenize_stories(texts: Iterable[str],
                     vocabulary: Vocabulary) -> list[TrainingExample]:
    """Tokenize serialized stories into ORIGIN_STORY examples (unmasked,
    untruncated); sequences shorter than two tokens carry no prediction
    target and are dropped."""
    out = []
    for text in texts:
        ids = tokenize(text, vocabulary)
        if len(ids) >= 2:
            out.append(TrainingExample(tuple(ids), ORIGIN_STORY))
    return out


# --- binary record stream ---------------------------------------------------
#
# Layout: magic, a JSON meta line (vocab hash, manifest hash), then records.
# Each record is one origin byte, a 4-byte little-endian token count, and
# that many 4-byte little-endian token ids.

def write_examples(path, examples: Iterable[TrainingExample],
                   *, vocab_hash: str = "", manifest_hash: str = "") -> int:
    n = 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        meta = json.dumps({"vocab_hash": vocab_hash, "manifest": manifest_hash},
                          sort_keys=True)
        fh.write(meta.encode("utf-8") + b"\n")
        for ex in examples:
            fh.write(struct.pack("<BI", ex.origin, len(ex.token_ids)))
            fh.write(np.asarray(ex.token_ids, dtype="<u4").tobytes())
            n += 1
    return n


def read_examples(path, vocabulary: Vocabulary | None = None
                  ) -> tuple[list[TrainingExample], dict]:
    """The examples and the metadata of a record stream. Each record's
    origin and token count are checked against the file before its payload
    is read, so a corrupt count is an error naming the record's byte offset,
    not a read of up to 16 GB. Given the vocabulary, the file must have been
    tokenized with it (same hash) and every token id must be below its size."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        expect = None if vocabulary is None else vocabulary.vocab_hash()
        meta = read_header(fh, path, _MAGIC, "corpus file", CorpusError, expect)
        examples = []
        pos = fh.tell()  # the next record's byte offset
        while head := fh.read(5):
            if len(head) < 5:
                raise CorpusError(f"{path}: truncated record header at byte "
                                  f"{pos}")
            origin, count = struct.unpack("<BI", head)
            if origin not in (ORIGIN_STORY, ORIGIN_CATALOG):
                raise CorpusError(f"{path}: record at byte {pos} has origin "
                                  f"{origin}, not {ORIGIN_STORY} (story) or "
                                  f"{ORIGIN_CATALOG} (catalog)")
            left = size - pos - 5
            if 4 * count > left:
                raise CorpusError(f"{path}: truncated record payload at byte "
                                  f"{pos}: {count} token ids need {4 * count} "
                                  f"bytes, {left} left")
            ids = np.frombuffer(fh.read(4 * count), dtype="<u4")
            if vocabulary is not None and count and ids.max() >= vocabulary.size:
                raise CorpusError(f"{path}: record at byte {pos} has token id "
                                  f"{ids.max()}, not below the vocabulary's "
                                  f"{vocabulary.size} tokens")
            examples.append(TrainingExample(tuple(int(x) for x in ids), origin))
            pos += 5 + 4 * count
    return examples, meta
