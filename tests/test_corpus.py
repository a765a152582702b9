import hashlib
import struct

import numpy as np
import pytest
from scipy import stats

from storyrank.corpus import (
    CorpusError,
    MaskingConfig,
    MixtureConfig,
    ORIGIN_CATALOG,
    ORIGIN_STORY,
    TrainingExample,
    apply_masking,
    build_catalog_corpus,
    read_examples,
    sample_mixture,
    tokenize_stories,
    write_examples,
)
from storyrank.datagen import WorldConfig, generate_world
from storyrank.grammar import serialize
from storyrank.stories import ItemRef
from storyrank.vocab import CLASS_ITEM, CatalogIndex, TokenizeError, \
    build_vocabulary, tokenize

from conftest import SAMPLE_TEXT
from oracles import detokenize


@pytest.fixture(scope="module")
def sample_ids(sample_vocab):
    return tokenize(SAMPLE_TEXT, sample_vocab)


def test_zero_probabilities_are_identity(sample_vocab, sample_ids):
    cfg = MaskingConfig(p_carousel_mask=0.0, p_item_unk=0.0, rng_seed=7)
    assert apply_masking(sample_ids, cfg, sample_vocab) == sample_ids


def test_full_carousel_masking_rewrites_every_watch(sample_vocab, sample_ids):
    cfg = MaskingConfig(p_carousel_mask=1.0, p_item_unk=0.0, rng_seed=7)
    masked = apply_masking(sample_ids, cfg, sample_vocab)
    assert len(masked) == len(sample_ids)
    text = detokenize(masked, sample_vocab)
    assert text.count("<|surface=home|><|carousel(MASK)|>") == 3
    assert "<|surface=search|>" not in text
    # everything outside the surface/carousel pairs is untouched
    assert text.count("<|search|>") == 2
    assert text.count("<|id(") == 3


def test_full_unk_masking_rewrites_every_item(sample_vocab, sample_ids):
    cfg = MaskingConfig(p_carousel_mask=0.0, p_item_unk=1.0, rng_seed=7)
    text = detokenize(apply_masking(sample_ids, cfg, sample_vocab), sample_vocab)
    assert text.count("<|id(UNK)|>") == 3
    assert "SYN201" not in text


def test_masking_preserves_length_and_is_deterministic(sample_vocab, sample_ids):
    cfg = MaskingConfig(rng_seed=123)
    a = apply_masking(sample_ids, cfg, sample_vocab, sequence_index=5)
    b = apply_masking(sample_ids, cfg, sample_vocab, sequence_index=5)
    c = apply_masking(sample_ids, cfg, sample_vocab, sequence_index=6)
    assert a == b
    assert len(a) == len(sample_ids)
    assert a != c or a == sample_ids  # different stream, usually different draws


def test_empirical_masking_rates(sample_vocab, sample_ids):
    # ~119k watch pairs / item tokens across repeated sequences at defaults
    cfg = MaskingConfig(rng_seed=2024)
    n_watches = 0
    n_masked = 0
    n_items = 0
    n_unk = 0
    mask_tok = sample_vocab.mask_carousel_id
    unk_tok = sample_vocab.unk_item_id
    for i in range(39700):
        masked = apply_masking(sample_ids, cfg, sample_vocab, sequence_index=i)
        n_watches += 3
        n_items += 3
        n_masked += sum(1 for t in masked if t == mask_tok)
        n_unk += sum(1 for t in masked if t == unk_tok)
    mask_rate = n_masked / n_watches
    unk_rate = n_unk / n_items
    assert 0.095 <= mask_rate <= 0.105
    # p_item_unk=0.001 over ~119k items: widen by exact binomial quantiles
    lo, hi = stats.binom.ppf([1e-9, 1 - 1e-9], n_items, 0.001) / n_items
    assert lo <= unk_rate <= hi


def test_catalog_corpus_statements(sample_catalog, sample_vocab):
    corpus = build_catalog_corpus(sample_catalog, sample_vocab)
    assert len(corpus) == len(sample_catalog.items) + len(sample_catalog.carousels)
    assert all(ex.origin == ORIGIN_CATALOG for ex in corpus)
    texts = [detokenize(ex.token_ids, sample_vocab) for ex in corpus]
    assert ("<|id(SYN201|The Lantern at Exit 13)|> has title "
            "The Lantern at Exit 13") in texts
    assert "<|carousel(after_dark_detours)|> has name after_dark_detours" in texts
    for ex in corpus:
        assert len(ex.token_ids) >= 2
        assert ex.token_ids[0] >= 256  # atomic token first, then subwords


def test_catalog_corpus_refuses_a_title_the_vocabulary_lacks(sample_vocab):
    # each statement's token is found by its form, which holds the title
    drifted = CatalogIndex((ItemRef("SYN201", "The Lantern at Exit 14"),), ())
    with pytest.raises(TokenizeError, match="Exit 14"):
        build_catalog_corpus(drifted, sample_vocab)


def test_catalog_corpus_empty_catalog(sample_vocab):
    from storyrank.vocab import CatalogIndex
    assert build_catalog_corpus(CatalogIndex((), ()), sample_vocab) == []


def test_mixture_ratio_and_truncation(sample_vocab, sample_ids, sample_catalog):
    stories = [TrainingExample(tuple(sample_ids), ORIGIN_STORY)] * 5
    catalog = build_catalog_corpus(sample_catalog, sample_vocab)
    cfg = MixtureConfig(context_length=64, rng_seed=99)
    n = 210_000
    drawn = list(sample_mixture(stories, catalog, cfg, n,
                                masking=MaskingConfig(rng_seed=1),
                                vocabulary=sample_vocab))
    assert len(drawn) == n
    frac = sum(1 for ex in drawn if ex.origin == ORIGIN_STORY) / n
    assert 0.947 <= frac <= 0.958
    assert all(len(ex.token_ids) <= 64 for ex in drawn)
    assert all(len(ex.token_ids) >= 2 for ex in drawn)


def test_mixture_is_deterministic(sample_vocab, sample_ids, sample_catalog):
    stories = [TrainingExample(tuple(sample_ids), ORIGIN_STORY)]
    catalog = build_catalog_corpus(sample_catalog, sample_vocab)
    cfg = MixtureConfig(context_length=128, rng_seed=5)
    a = list(sample_mixture(stories, catalog, cfg, 500))
    b = list(sample_mixture(stories, catalog, cfg, 500))
    assert a == b


def test_mixture_guards():
    with pytest.raises(CorpusError,
                       match="^catalog_weight must be at least 1, got 0$"):
        MixtureConfig(story_weight=1, catalog_weight=0)
    stories = [TrainingExample((1, 2, 3), ORIGIN_STORY)]
    catalog = [TrainingExample((4, 5), ORIGIN_CATALOG)]
    with pytest.raises(CorpusError, match="sample count"):
        list(sample_mixture(stories, catalog, MixtureConfig(), 0))
    with pytest.raises(CorpusError, match="non-empty"):
        list(sample_mixture([], catalog, MixtureConfig(), 10))


def test_head_truncation_keeps_prefix(sample_vocab, sample_ids,
                                     sample_catalog):
    stories = [TrainingExample(tuple(sample_ids), ORIGIN_STORY)]
    catalog = build_catalog_corpus(sample_catalog, sample_vocab)
    assert len(sample_ids) > 10 and max(len(ex.token_ids) for ex in catalog) > 10
    drawn = list(sample_mixture(stories, catalog,
                                MixtureConfig(context_length=10, rng_seed=4), 200))
    assert {ex.origin for ex in drawn} == {ORIGIN_STORY, ORIGIN_CATALOG}
    wholes = {tuple(sample_ids)} | {ex.token_ids for ex in catalog}
    for ex in drawn:
        assert isinstance(ex.token_ids, tuple)
        assert any(ex.token_ids == whole[:10] for whole in wholes)


def test_masking_rate_invariance_under_truncation(sample_vocab, sample_ids,
                                                  sample_catalog):
    # the mixture masks each whole story, then keeps the first
    # context_length tokens of the masked story
    stories = [TrainingExample(tuple(sample_ids), ORIGIN_STORY)]
    catalog = build_catalog_corpus(sample_catalog, sample_vocab)
    cfg = MaskingConfig(p_carousel_mask=0.5, p_item_unk=0.2, rng_seed=3)
    drawn = list(sample_mixture(stories, catalog,
                                MixtureConfig(context_length=120, rng_seed=4),
                                60, masking=cfg, vocabulary=sample_vocab))
    masked = [i for i, ex in enumerate(drawn) if ex.origin == ORIGIN_STORY]
    assert masked
    for i in masked:
        full = apply_masking(sample_ids, cfg, sample_vocab, sequence_index=i)
        assert list(drawn[i].token_ids) == full[:120]
    assert len(sample_ids) > 120  # the cut falls after two watches
    assert any(list(drawn[i].token_ids) != list(sample_ids[:120])
               for i in masked)


def test_record_stream_roundtrip(tmp_path, sample_vocab, sample_ids, sample_catalog):
    examples = tokenize_stories([SAMPLE_TEXT], sample_vocab) \
        + build_catalog_corpus(sample_catalog, sample_vocab)
    path = tmp_path / "corpus.bin"
    n = write_examples(path, examples, vocab_hash=sample_vocab.vocab_hash(),
                       manifest_hash="cafe")
    assert n == len(examples)
    loaded, meta = read_examples(path, sample_vocab)
    assert loaded == examples
    assert meta["manifest"] == "cafe"


def test_record_stream_rejects_wrong_vocab(tmp_path, sample_vocab, sample_ids):
    path = tmp_path / "corpus.bin"
    write_examples(path, tokenize_stories([SAMPLE_TEXT], sample_vocab),
                   vocab_hash="1111111111111111")
    with pytest.raises(CorpusError, match="vocabulary 1111111111111111, "
                                          f"expected {sample_vocab.vocab_hash()}"):
        read_examples(path, sample_vocab)


def test_record_stream_without_vocab_hash_is_refused_when_one_is_expected(
        tmp_path, sample_vocab):
    path = tmp_path / "corpus.bin"
    # no vocab_hash: the file records ""
    write_examples(path, tokenize_stories([SAMPLE_TEXT], sample_vocab))
    with pytest.raises(CorpusError, match=r"vocabulary \(none\), expected "
                                          + sample_vocab.vocab_hash()):
        read_examples(path, sample_vocab)
    read_examples(path)  # nothing expected, nothing checked


def test_record_with_a_token_id_past_the_vocabulary_is_refused(tmp_path,
                                                               sample_vocab):
    path = tmp_path / "corpus.bin"
    size = sample_vocab.size
    write_examples(path, [TrainingExample((1, 2, 3), ORIGIN_STORY),
                          TrainingExample((1, 2, size - 1), ORIGIN_CATALOG),
                          TrainingExample((1, 2, size), ORIGIN_STORY)],
                   vocab_hash=sample_vocab.vocab_hash())
    data = path.read_bytes()
    third = data.index(b"}\n") + 2 + 2 * (5 + 12)  # past two 3-token records
    with pytest.raises(CorpusError, match=f"record at byte {third} has token "
                                          f"id {size}, not below the "
                                          f"vocabulary's {size} tokens"):
        read_examples(path, sample_vocab)
    assert len(read_examples(path)[0]) == 3  # no vocabulary, no id bound


def test_record_stream_truncated_file(tmp_path, sample_vocab):
    path = tmp_path / "corpus.bin"
    write_examples(path, tokenize_stories([SAMPLE_TEXT], sample_vocab))
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(CorpusError, match="truncated"):
        read_examples(path)


@pytest.mark.parametrize("offset, fmt, value, message", [
    (1, "<I", 2**32 - 1, r"truncated record payload at byte {first}: "
                         r"4294967295 token ids"),
    (0, "<B", 7, r"record at byte {first} has origin 7"),
])
def test_corrupt_record_header_is_refused_before_its_payload_is_read(
        tmp_path, sample_vocab, offset, fmt, value, message):
    # the first record's 5-byte header: origin byte, then the token count
    path = tmp_path / "corpus.bin"
    write_examples(path, tokenize_stories([SAMPLE_TEXT], sample_vocab))
    data = bytearray(path.read_bytes())
    first = data.index(b"}\n") + 2  # past the metadata line
    struct.pack_into(fmt, data, first + offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(CorpusError, match=message.format(first=first)):
        read_examples(path)


def test_record_stream_metadata_that_is_not_json_is_refused(tmp_path,
                                                            sample_vocab):
    path = tmp_path / "corpus.bin"
    write_examples(path, tokenize_stories([SAMPLE_TEXT], sample_vocab))
    data = path.read_bytes()
    path.write_bytes(data.replace(b'{"manifest"', b'\xff"manifest"', 1))
    with pytest.raises(CorpusError, match=r"metadata line at byte \d+ is not "
                                          "JSON"):
        read_examples(path)


def test_desk_corpus_is_pinned(tmp_path):
    # recorded with the rescanning tokenizer that tests/oracles.py keeps; a
    # tokenizer change that moves any token id fails here, before it shifts
    # every checkpoint and benchmark digest downstream of build-corpus
    catalog, stories, _ = generate_world(
        WorldConfig(n_users=60, n_items=400, n_carousels=40, n_genres=10))
    texts = [serialize(s) for s in stories]
    vocab = build_vocabulary(catalog, merges=48, merge_training_text="\n".join(texts))
    examples = tokenize_stories(texts, vocab) + build_catalog_corpus(catalog, vocab)
    write_examples(tmp_path / "corpus.bin", examples, vocab_hash=vocab.vocab_hash())
    digest = hashlib.sha256((tmp_path / "corpus.bin").read_bytes()).hexdigest()
    assert digest == \
        "e9dc9f69cb17e58668920d2a66a071ec3b309f25d36938ace16daf05717ec22f"
