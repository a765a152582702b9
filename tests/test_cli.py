import io
import json
import re
import threading
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest

from storyrank import grammar
from storyrank.cli import main
from storyrank.config import DEFAULTS, ConfigError, load_config
from storyrank.corpus import ORIGIN_STORY, CorpusError, MaskingConfig, \
    MixtureConfig, read_examples, tokenize_stories
from storyrank.datagen import DatagenError, WorldConfig
from storyrank.evaluate import EvalConfig, EvalError, split_users
from storyrank.model import ModelConfig, ModelError, TrainConfig
from storyrank.stories import read_stories, story_to_dict
from storyrank.vocab import VocabConfig, VocabularyError, build_vocabulary, \
    read_catalog, read_vocab

from oracles import detokenize, read_metrics


TINY = [
    "--set", "world.n_users=60", "--set", "world.n_items=40",
    "--set", "world.n_carousels=12", "--set", "world.n_genres=4",
    "--set", "world.mean_sessions_per_user=6",
    "--set", "world.mean_events_per_user=12",
]
TINY_MODEL = [
    "--set", "model.layers=1", "--set", "model.heads=2",
    "--set", "model.model_dim=16", "--set", "model.context_length=96",
    "--set", "train.macro_steps=12", "--set", "train.batch_size=2",
    "--set", "train.warmup_steps=2", "--set", "model.dtype=float64",
]

ROOT = Path(__file__).resolve().parent.parent


def run_pipeline(root: Path, extra=()):
    d = root / "run"
    d.mkdir(parents=True, exist_ok=True)
    assert main(["gen-data", "--out-dir", str(d / "data"), *TINY]) == 0
    assert main(["build-vocab", "--catalog", str(d / "data/catalog.jsonl"),
                 "--out", str(d / "vocab.tsv")]) == 0
    assert main(["build-corpus", "--stories", str(d / "data/stories.jsonl"),
                 "--catalog", str(d / "data/catalog.jsonl"),
                 "--vocab", str(d / "vocab.tsv"),
                 "--out", str(d / "corpus.bin"), *TINY, *extra]) == 0
    assert main(["train", "--corpus", str(d / "corpus.bin"),
                 "--vocab", str(d / "vocab.tsv"),
                 "--out", str(d / "model.ckpt"), "--log-every", "0",
                 *TINY_MODEL, *extra]) == 0
    return d


def test_full_tiny_pipeline(tmp_path, capsys):
    d = run_pipeline(tmp_path)
    # TINY_MODEL sets model.context_length=96 and no other context key; the
    # corpus holds longer stories, which training cut there
    examples, _ = read_examples(d / "corpus.bin")
    assert max(len(e.token_ids) for e in examples) > 96
    assert main(["eval", "--stories", str(d / "data/stories.jsonl"),
                 "--vocab", str(d / "vocab.tsv"),
                 "--model", str(d / "model.ckpt"),
                 "--catalog", str(d / "data/catalog.jsonl"),
                 "--tasks", "item,search", "--methods", "model,popularity,bm25",
                 "--out", str(d / "metrics.jsonl"),
                 *TINY_MODEL,
                 "--set", "eval.max_eval_users=4",
                 "--set", "eval.max_positions_per_user=3"]) == 0
    table = capsys.readouterr().out
    assert "HR@8" in table and "popularity" in table and "bm25" in table
    rows = read_metrics(d / "metrics.jsonl")
    methods = {r["method"] for r in rows}
    assert methods == {"model", "popularity", "bm25"}
    for row in rows:
        if row["hr"] is not None:
            assert 0 <= row["ndcg"] <= row["hr"] <= 1


def test_corpus_is_the_train_split_and_holds_no_held_out_story(tmp_path):
    d = run_pipeline(tmp_path)
    train, held = split_users(read_stories(d / "data/stories.jsonl"),
                              load_config().read("eval"))
    vocab = read_vocab(d / "vocab.tsv")

    def story_ids(stories):
        return [list(e.token_ids) for e in tokenize_stories(
            (grammar.serialize(s, validate=False) for s in stories), vocab)]

    examples, _ = read_examples(d / "corpus.bin")
    corpus = [list(e.token_ids) for e in examples if e.origin == ORIGIN_STORY]
    assert corpus == story_ids(train)
    assert held and not {tuple(ids) for ids in story_ids(held)} & \
        {tuple(ids) for ids in corpus}


def test_build_vocab_learns_merges_from_the_train_split(tmp_path, capsys):
    # merges without --stories are refused before any file is read
    gone = tmp_path / "gone"
    assert main(["build-vocab", "--catalog", str(gone / "catalog.jsonl"),
                 "--out", str(tmp_path / "v.tsv"),
                 "--set", "vocab.merges=64"]) == 1
    assert capsys.readouterr().err == \
        "storyrank-error: ValueError: vocab.merges=64 needs --stories\n"
    data = tmp_path / "data"
    assert main(["gen-data", "--out-dir", str(data), *TINY]) == 0
    assert main(["build-vocab", "--catalog", str(data / "catalog.jsonl"),
                 "--stories", str(data / "stories.jsonl"),
                 "--out", str(tmp_path / "v.tsv"), *TINY,
                 "--set", "vocab.merges=16"]) == 0
    train, _ = split_users(read_stories(data / "stories.jsonl"),
                           load_config().read("eval"))
    want = build_vocabulary(read_catalog(data / "catalog.jsonl"), merges=16,
                            merge_training_text="\n".join(
                                grammar.serialize(s) for s in train))
    assert read_vocab(tmp_path / "v.tsv").merge_pairs == want.merge_pairs
    manifest = json.loads((tmp_path / "v.manifest.json").read_text())
    assert set(manifest["inputs"]) == {"catalog", "stories"}


MISREAD_VALUES = [
    ("eval.max_positions_per_user=0",
     "max_positions_per_user must be null or at least 1, got 0"),
    ("eval.max_positions_per_user=-2",
     "max_positions_per_user must be null or at least 1, got -2"),
    ("eval.max_eval_users=-1", "max_eval_users must be null or at least 1, "
                               "got -1"),
    ("eval.max_eval_users=none", "eval.max_eval_users: expected an integer "
                                 "or null, got 'none'"),
    ("eval.max_positions_per_user=2.5", "eval.max_positions_per_user: "
                                        "expected an integer or null, got 2.5"),
    # "07" is not JSON: the string would split the users as no seed does
    ("eval.rng_seed=07", "eval.rng_seed: expected an integer, got '07'"),
    # a cutoff is a metric row's "K"
    ("eval.cutoffs=[1.5]", r"cutoffs must be sorted integers of at least 1, "
                           r"got \[1\.5\]"),
    ("eval.cutoffs=[true]", r"cutoffs must be sorted integers of at least 1, "
                            r"got \[True\]"),
    ('eval.cutoffs=["a"]', r"cutoffs must be sorted integers of at least 1, "
                           r"got \['a'\]"),
    ("model.tie_embeddings=False", "model.tie_embeddings: expected true or "
                                   "false, got 'False'"),
    ("model.tie_embeddings=no", "model.tie_embeddings: expected true or "
                                "false, got 'no'"),
    ("model.rope_base=inf", "model.rope_base: expected a number, got 'inf'"),
    ("model.model_dim=12", r"model_dim / heads must be even, got 12 / 4 = 3"),
    ("model.layers=0", "layers must be at least 1, got 0"),
    ("model.model_dim=0", "model_dim must be at least 1, got 0"),
    ("model.mlp_hidden_dim=-4", "mlp_hidden_dim must be at least 0, got -4"),
    ("vocab.merges=-5", "merges must be at least 0, got -5"),
    ("vocab.merges=2.9", "vocab.merges: expected an integer, got 2.9"),
    ("vocab.merges=true", "vocab.merges: expected an integer, got True"),
    ("transform.strip_sessions=no", "transform.strip_sessions: expected true "
                                    "or false, got 'no'"),
    ("transform.strip_sessions=1", "transform.strip_sessions: expected true "
                                   "or false, got 1"),
    ("transform.view=false", "transform.view: expected null or one of "
                             "'item', 'carousel', 'search', got False"),
    ("transform.view=bogus", "transform.view: expected null or one of "
                             "'item', 'carousel', 'search', got 'bogus'"),
    ("transform.strip_attributes=true", "transform.strip_attributes: "
                                        "expected null or one of 'all', "
                                        "'profile', 'location', got True"),
]


def read_section(override: str, section: str | None = None):
    """Load the config with one override and read its section (or
    `section`) as the stage that uses it does."""
    section = section or override.partition(".")[0]
    return load_config(None, [override]).read(
        section, **({"vocab_size": 300} if section == "model" else {}))


@pytest.mark.parametrize("override, message", MISREAD_VALUES,
                         ids=[override for override, _ in MISREAD_VALUES])
def test_config_value_the_code_would_misread_is_refused_by_key(override,
                                                               message):
    with pytest.raises((EvalError, ModelError, VocabularyError, ConfigError),
                       match=f"^{message}$"):
        read_section(override)


# each stage's config class, by its section, and the error it refuses with
STAGES = {"world": (WorldConfig, DatagenError),
          "vocab": (VocabConfig, VocabularyError),
          "masking": (MaskingConfig, CorpusError),
          "mixture": (MixtureConfig, CorpusError),
          "model": (ModelConfig, ModelError), "train": (TrainConfig, ModelError),
          "eval": (EvalConfig, EvalError)}
RANGE_KINDS = {  # kind: (its range as refused, a value just outside it)
    "Count": ("at least 1", 0), "Count | None": ("null or at least 1", 0),
    "Width": ("at least 2", 1), "Size": ("at least 0", -1),
    "Probability": ("in [0, 1]", 1.001), "Fraction": ("in (0, 1)", 1),
    "Positive": ("finite and above 0", 0),
    "NonNegative": ("finite and at least 0", -0.001),
    "Ceiling": ("above 0", 0)}
NUMBER_KINDS = {"Probability", "Fraction", "Positive", "NonNegative",
                "Ceiling"}
# (section, key, kind) of every field with a range
RANGED = [(section, f.name, f.type) for section, (cls, _) in STAGES.items()
          for f in dataclass_fields(cls) if f.type in RANGE_KINDS]
# a number kind is also held to refuse NaN and an infinity: a Ceiling takes
# Infinity (no ceiling), so it is held to refuse -Infinity
OUTSIDE = [(section, key, kind, value) for section, key, kind in RANGED
           for value in (RANGE_KINDS[kind][1], *(
               [float("nan"), float("-inf" if kind == "Ceiling" else "inf")]
               if kind in NUMBER_KINDS else []))]


@pytest.mark.parametrize("section, key, kind, value", OUTSIDE,
                         ids=[f"{s}.{k}={v}" for s, k, _, v in OUTSIDE])
def test_value_outside_its_fields_range_is_refused_by_key(section, key, kind,
                                                          value):
    # NaN passed every `x < 0` test: a NaN learning rate trained one step;
    # an infinite rms_eps trained and saved a checkpoint
    message = f"{key} must be {RANGE_KINDS[kind][0]}, got {value!r}"
    cls, error = STAGES[section]
    # the mixture's context length is read from the model section
    dotted = "model.context_length" if key not in DEFAULTS[section] \
        else f"{section}.{key}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read_section(f"{dotted}={json.dumps(value)}", section)
    sized = {"vocab_size": 300} if cls is ModelConfig else {}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(**{key: value}, **sized)


def test_every_config_number_field_names_its_range():
    # a field annotated bare `float` would be held to no range
    assert {f.type for cls, _ in STAGES.values()
            for f in dataclass_fields(cls)} <= {*RANGE_KINDS, "int", "bool",
                                                "str", "tuple[int, ...]"}
    # an infinite clip norm (1e400 reads as inf) means no clipping
    assert read_section("train.grad_clip_norm=1e400").grad_clip_norm == \
        float("inf")


STRING_KEYS = {"model.dtype", "transform.view", "transform.strip_attributes"}
EVERY_KEY = [f"{section}.{key}" for section in DEFAULTS
             for key in DEFAULTS[section]]


@pytest.mark.parametrize("dotted", EVERY_KEY)
def test_every_config_key_refuses_a_value_of_another_kind(dotted):
    # a key whose field has no kind in the table fails here too
    wrong = 7 if dotted in STRING_KEYS else "x"
    with pytest.raises(ConfigError, match=f"^{re.escape(dotted)}: expected "
                                          f"[a-z ',]+, got {wrong!r}$"):
        read_section(f"{dotted}={json.dumps(wrong)}")


# the string "false" is true to Python: it built a sessionless corpus
FALSE_STRING = ({"transform": {"strip_sessions": "false"}},
                "ConfigError: transform.strip_sessions: expected true or "
                "false, got 'false'")
# the eval section splits the users: it was read only after the inputs
BAD_SPLIT = ({"vocab": {"merges": 4}, "eval": {"holdout_fraction": 2}},
             "EvalError: holdout_fraction must be in (0, 1), got 2")
BEFORE_A_FILE = [
    pytest.param("build-corpus", *FALSE_STRING, id="build-corpus"),
    pytest.param("eval", *FALSE_STRING, id="eval"),
    pytest.param("build-vocab", *BAD_SPLIT, id="build-vocab-eval-section"),
    pytest.param("build-corpus", *BAD_SPLIT, id="build-corpus-eval-section"),
    pytest.param("eval", *BAD_SPLIT, id="eval-eval-section")]


@pytest.mark.parametrize("command, sections, error", BEFORE_A_FILE)
def test_transform_is_refused_by_key_before_reading_a_file(tmp_path, capsys,
                                                           command, sections,
                                                           error):
    # each stage reads its config sections before any input file
    config = tmp_path / "config.json"
    config.write_text(json.dumps(sections))
    gone = tmp_path / "gone"
    stories, vocab = str(gone / "stories.jsonl"), str(gone / "vocab.tsv")
    inputs = {"build-vocab": ["--stories", stories],
              "build-corpus": ["--stories", stories, "--vocab", vocab],
              "eval": ["--stories", stories, "--vocab", vocab,
                       "--methods", "popularity"]}[command]
    if command != "eval":
        inputs += ["--catalog", str(gone / "catalog.jsonl"),
                   "--out", str(tmp_path / "out")]
    assert main([command, "--config", str(config), *inputs]) == 1
    assert capsys.readouterr().err == f"storyrank-error: {error}\n"
    assert list(tmp_path.iterdir()) == [config]


def test_config_file_that_is_not_an_object_is_refused_by_name(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    message = f"config file {config}: expected one JSON object"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(str(config))


# (--set text, the value): JSON, or the text itself when it is not JSON
SET_VALUES = [("12", 12), ("-3", -3), ("2.5", 2.5), ("1e-4", 1e-4),
              ("Infinity", float("inf")), ("null", None), ("true", True),
              ("false", False), ("[8, 50]", [8, 50]), ('"item"', "item"),
              ("item", "item"), ("none", "none"), ("None", "None"),
              ("True", "True"), ("inf", "inf"), ("007", "007"),
              ("1_000", "1_000"), ("", "")]


@pytest.mark.parametrize("text, value", SET_VALUES,
                         ids=[text or "empty" for text, _ in SET_VALUES])
def test_set_value_reads_as_a_config_file_holding_it(tmp_path, text, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"transform": {"view": value}}))
    from_file = load_config(str(config)).raw["transform"]["view"]
    from_flag = load_config(None, [f"transform.view={text}"]).raw[
        "transform"]["view"]
    for read in (from_file, from_flag):
        assert type(read) is type(value) and read == value, (text, read)


def test_config_file_that_is_not_json_is_refused_by_name(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"world": ')
    assert main(["gen-data", "--config", str(config),
                 "--out-dir", str(tmp_path / "data")]) == 1
    assert capsys.readouterr() == ("", (
        f"storyrank-error: ConfigError: config file {config}: not JSON: "
        "Expecting value: line 1 column 11 (char 10)\n"))
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("from_stdin", [False, True],
                         ids=["request-file", "stdin"])
def test_rank_request_that_is_not_json_is_refused_by_name(tmp_path, capsys,
                                                          monkeypatch,
                                                          from_stdin):
    # neither the vocabulary nor the model exists: the request is read first
    gone = tmp_path / "gone"
    argv = ["rank", "--model", str(gone / "model.ckpt"),
            "--vocab", str(gone / "vocab.tsv")]
    request = tmp_path / "request.json"
    if from_stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO('{"id": 1,'))
    else:
        request.write_text('{"id": 1,')
        argv += ["--request", str(request)]
    assert main(argv) == 1
    where = "<stdin>" if from_stdin else request
    assert capsys.readouterr() == ("", (
        f"storyrank-error: ValidationError: request {where}: not JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 10 "
        "(char 9)\n"))


WORLD_COUNTS = [
    ("world.n_users=2.5", "ConfigError: world.n_users: expected an integer, "
                          "got 2.5"),
    ("world.n_users=0", "DatagenError: n_users must be at least 1, got 0"),
    ("world.n_users=none", "ConfigError: world.n_users: expected an integer, "
                           "got 'none'"),
    ("world.n_items=true", "ConfigError: world.n_items: expected an integer, "
                           "got True"),
    ("world.n_carousels=-1", "DatagenError: n_carousels must be at least 1, "
                             "got -1"),
    ("world.n_genres=0", "DatagenError: n_genres must be at least 1, got 0"),
    ("world.keystroke_prefix_depth=1.0", "ConfigError: "
     "world.keystroke_prefix_depth: expected an integer, got 1.0"),
    # a bare TypeError, naming no key, came from the probability check
    ("world.rewatch_prob=none", "ConfigError: world.rewatch_prob: expected a "
                                "number, got 'none'"),
    # each crashed generation, naming no key, after the out dir was made
    ("world.mean_session_gap_hours=-1", "DatagenError: mean_session_gap_hours "
                                        "must be finite and at least 0, got -1"),
    ("world.genre_sharpness=0", "DatagenError: genre_sharpness must be finite "
                                "and above 0, got 0"),
    ("world.mean_sessions_per_user=0", "DatagenError: mean_sessions_per_user "
                                       "must be finite and above 0, got 0"),
    ("world.genre_sharpness=NaN", "DatagenError: genre_sharpness must be "
                                  "finite and above 0, got nan"),
    ("world.zipf_exponent=NaN", "DatagenError: zipf_exponent must be finite "
                                "and at least 0, got nan"),
    ("world.genre_sharpness=Infinity", "DatagenError: genre_sharpness must "
                                       "be finite and above 0, got inf"),
    ("world.mean_session_gap_hours=Infinity", "DatagenError: "
     "mean_session_gap_hours must be finite and at least 0, got inf"),
    # finite and in range, but too large for the generator's Poisson draw:
    # the error names no key, and no out dir is left behind
    ("world.mean_events_per_user=1e300", "ValueError: lam value too large"),
]


@pytest.mark.parametrize("override, message", WORLD_COUNTS,
                         ids=[override for override, _ in WORLD_COUNTS])
def test_world_count_is_refused_by_key_before_the_out_dir_is_made(
        tmp_path, capsys, override, message):
    assert main(["gen-data", "--out-dir", str(tmp_path / "data"),
                 "--set", "world.n_users=2", "--set", override]) == 1
    assert capsys.readouterr() == ("", f"storyrank-error: {message}\n")
    assert list(tmp_path.iterdir()) == []


TRAIN_SETTINGS = [
    ("train.batch_size=0", "ModelError: batch_size must be at least 1, "
                           "got 0"),
    ("mixture.story_weight=0",
     "CorpusError: story_weight must be at least 1, got 0"),
    ("masking.p_item_unk=2", "CorpusError: p_item_unk must be in [0, 1], "
                             "got 2"),
    ("train.batch_size=2.5", "ConfigError: train.batch_size: expected an "
                             "integer, got 2.5"),
    ("mixture.story_weight=1.5", "ConfigError: mixture.story_weight: "
                                 "expected an integer, got 1.5"),
    # true would read as 1: every item token would become UNK
    ("masking.p_item_unk=true", "ConfigError: masking.p_item_unk: expected "
                                "a number, got True"),
    # a NaN rate trained a step; NaN decay and clipping turned them off
    ("train.learning_rate=NaN", "ModelError: learning_rate must be finite "
                                "and at least 0, got nan"),
    ("train.weight_decay=NaN", "ModelError: weight_decay must be finite and "
                               "at least 0, got nan"),
    ("train.learning_rate=Infinity", "ModelError: learning_rate must be "
                                     "finite and at least 0, got inf"),
    ("train.grad_clip_norm=NaN", "ModelError: grad_clip_norm must be above "
                                 "0, got nan"),
]


@pytest.mark.parametrize("override, error", TRAIN_SETTINGS,
                         ids=[override for override, _ in TRAIN_SETTINGS])
def test_train_refuses_its_settings_before_reading_a_file(tmp_path, capsys,
                                                          override, error):
    # none of the named inputs exists: reading one would fail otherwise
    gone = tmp_path / "gone"
    assert main(["train", "--corpus", str(gone / "corpus.bin"),
                 "--vocab", str(gone / "vocab.tsv"),
                 "--out", str(tmp_path / "model.ckpt"),
                 "--set", override]) == 1
    assert capsys.readouterr() == ("", f"storyrank-error: {error}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["build-vocab", "build-corpus", "train",
                                     "eval"])
def test_out_in_a_missing_directory_is_refused_before_reading_a_file(
        tmp_path, capsys, command):
    # the output was written last: the stage's whole work was lost
    gone = tmp_path / "gone"
    inputs = {"build-vocab": ["--catalog"],
              "build-corpus": ["--stories", "--catalog", "--vocab"],
              "train": ["--corpus", "--vocab"],
              "eval": ["--stories", "--vocab"]}[command]
    argv = [arg for flag in inputs for arg in (flag, str(gone / flag[2:]))]
    if command == "eval":
        argv += ["--methods", "popularity"]
    assert main([command, *argv, "--out", str(gone / "out")]) == 1
    assert capsys.readouterr() == ("", "storyrank-error: ValueError: --out: "
                                       f"directory {gone} does not exist\n")
    assert list(tmp_path.iterdir()) == []


def test_rank_subcommand(tmp_path, capsys):
    d = run_pipeline(tmp_path)
    stories = read_stories(d / "data/stories.jsonl")
    request = {"id": 9, "story": story_to_dict(stories[0]), "task": "search",
               "context": {"query": "fog"}, "top_k": 4}
    req_path = d / "request.json"
    req_path.write_text(json.dumps(request))
    capsys.readouterr()  # drain pipeline chatter
    assert main(["rank", "--model", str(d / "model.ckpt"),
                 "--vocab", str(d / "vocab.tsv"),
                 "--request", str(req_path)]) == 0
    response = json.loads(capsys.readouterr().out.strip())
    assert response["id"] == 9
    assert len(response["candidates"]) == 4
    assert response["latency_us"] >= 1


def test_rank_refusal_names_its_own_exception_class(tmp_path, capsys):
    # serve counts this fault as a ValidationError; rank names it so too
    d = run_pipeline(tmp_path)
    story = story_to_dict(read_stories(d / "data/stories.jsonl")[0])
    first = story["sessions"][0]["events"][0]
    first["timestamp"] = str(first["timestamp"])
    req_path = d / "request.json"
    req_path.write_text(json.dumps({"id": 9, "story": story,
                                    "task": "item_masked"}))
    capsys.readouterr()  # drain pipeline chatter
    assert main(["rank", "--model", str(d / "model.ckpt"),
                 "--vocab", str(d / "vocab.tsv"),
                 "--request", str(req_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("storyrank-error: ValidationError: "
                          "sessions[0].events[0].timestamp: expected an "
                          "integer"), err


@pytest.mark.parametrize("flags, message", [
    ([], "--methods model needs --model"),
    (["--methods", "popularity,bm25"], "--methods bm25 needs --catalog"),
    (["--methods", "popularity", "--tasks", "item,item_masked"],
     "--tasks: 'item_masked' repeats the task item_masked"),
    (["--methods", "popularity,popularity"],
     "--methods: the method name 'popularity' repeats"),
    (["--methods", "model,popularity", "--model", "m.ckpt",
      "--model-name", "popularity"],
     "--methods: the method name 'popularity' repeats"),
])
def test_eval_refuses_bad_arguments_before_reading_a_file(tmp_path, capsys,
                                                          flags, message):
    # none of the named files exists: reading one would fail otherwise
    gone = tmp_path / "gone"
    assert main(["eval", "--stories", str(gone / "stories.jsonl"),
                 "--vocab", str(gone / "vocab.tsv"),
                 "--config", str(gone / "config.json"), *flags]) == 1
    assert capsys.readouterr().err == \
        f"storyrank-error: ValueError: {message}\n"


_WINDOW_MAX = f"{threading.TIMEOUT_MAX * 1000:.0f}"


@pytest.mark.parametrize("flags, message", [
    (["--max-batch", "0"],
     "--max-batch: expected an integer of at least 1, got 0"),
    (["--batch-window-ms", "nan"], "--batch-window-ms: expected milliseconds "
                                   f"from 0 to {_WINDOW_MAX}, got nan"),
    (["--batch-window-ms", "-5"], "--batch-window-ms: expected milliseconds "
                                  f"from 0 to {_WINDOW_MAX}, got -5.0"),
    (["--batch-window-ms", "inf", "--port", "1"],
     f"--batch-window-ms: expected milliseconds from 0 to {_WINDOW_MAX}, "
     "got inf"),
    (["--max-connections", "0", "--port", "1"],
     "--max-connections: expected an integer of at least 1, got 0"),
    (["--max-connections", "-2", "--port", "1"],
     "--max-connections: expected an integer of at least 1, got -2"),
    # 0 served stdio instead; the others failed in bind() once loaded
    (["--port", "0"], "--port: expected a port from 1 to 65535, got 0"),
    (["--port", "70000"], "--port: expected a port from 1 to 65535, "
                          "got 70000"),
    (["--port", "-1"], "--port: expected a port from 1 to 65535, got -1"),
])
def test_serve_refuses_batching_settings_before_reading_a_file(
        tmp_path, capsys, flags, message):
    # neither named file exists: reading one would fail otherwise
    gone = tmp_path / "gone"
    assert main(["serve", "--model", str(gone / "model.ckpt"),
                 "--vocab", str(gone / "vocab.tsv"), *flags]) == 1
    assert capsys.readouterr().err == \
        f"storyrank-error: ValueError: {message}\n"


def test_serve_subcommand_on_stdio(tmp_path, capsys, monkeypatch):
    d = run_pipeline(tmp_path)
    stories = read_stories(d / "data/stories.jsonl")
    request = {"id": 5, "story": story_to_dict(stories[0]),
               "task": "item_masked", "top_k": 3}
    lines = [json.dumps(request), "{not json", ""]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    capsys.readouterr()  # drain pipeline chatter
    assert main(["serve", "--model", str(d / "model.ckpt"),
                 "--vocab", str(d / "vocab.tsv")]) == 0
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    replies = [r for r in records if "summary" not in r]
    summaries = [r["summary"] for r in records if "summary" in r]
    assert len(replies) == len(lines)
    assert replies[0]["id"] == 5 and len(replies[0]["candidates"]) == 3
    assert all("error" in r for r in replies[1:])
    assert len(summaries) == 1 and records[-1]["summary"] == summaries[0]
    assert summaries[0]["n"] == 3
    assert summaries[0]["batches"] == 3
    assert summaries[0]["batch_sizes"] == {"1": 3}
    assert summaries[0]["errors"] == {"JSONDecodeError": 1, "ValueError": 1}
    assert err == ""


def test_serve_on_stdio_that_cannot_be_read_exits_1(tmp_path, capsys,
                                                    monkeypatch):
    d = run_pipeline(tmp_path)
    stories = read_stories(d / "data/stories.jsonl")
    request = {"id": 5, "story": story_to_dict(stories[0]),
               "task": "item_masked", "top_k": 3}

    def stdin():
        yield json.dumps(request) + "\n"
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    monkeypatch.setattr("sys.stdin", stdin())
    capsys.readouterr()  # drain pipeline chatter
    status = []
    thread = threading.Thread(daemon=True, target=lambda: status.append(main(
        ["serve", "--model", str(d / "model.ckpt"),
         "--vocab", str(d / "vocab.tsv")])))
    thread.start()
    thread.join(timeout=30)
    assert status == [1], "serve did not exit 1 after its input failed"
    out, err = capsys.readouterr()
    reply, summary = [json.loads(line) for line in out.splitlines()]
    assert reply["id"] == 5 and len(reply["candidates"]) == 3
    assert summary["summary"]["n"] == 1
    assert err.startswith("storyrank-error: UnicodeDecodeError: ")


def test_stage_failures_are_machine_parseable(tmp_path, capsys):
    assert main(["build-vocab", "--catalog", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "v.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("storyrank-error: ")
    assert "\n" == err[err.index("\n"):]  # single line


def test_rerun_determinism(tmp_path):
    d1 = run_pipeline(tmp_path / "a")
    d2 = run_pipeline(tmp_path / "b")
    for rel in ("data/stories.jsonl", "data/catalog.jsonl", "vocab.tsv",
                "corpus.bin", "model.ckpt"):
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel


def test_eval_and_build_vocab_time_themselves_outside_hashed_files(
        tmp_path, capsys):
    d = run_pipeline(tmp_path)
    timings = json.loads((d / "vocab.manifest.json").read_text())["timings_s"]
    assert set(timings) == {"build_vocabulary"}
    assert main(["build-vocab", "--catalog", str(d / "data/catalog.jsonl"),
                 "--out", str(d / "again.tsv")]) == 0
    assert (d / "again.tsv").read_bytes() == (d / "vocab.tsv").read_bytes()
    capsys.readouterr()  # drain pipeline chatter
    for name in ("metrics", "again"):
        assert main(["eval", "--stories", str(d / "data/stories.jsonl"),
                     "--vocab", str(d / "vocab.tsv"),
                     "--model", str(d / "model.ckpt"),
                     "--tasks", "item", "--methods", "model,popularity",
                     "--out", str(d / f"{name}.jsonl"), *TINY_MODEL,
                     "--set", "eval.max_eval_users=2",
                     "--set", "eval.max_positions_per_user=3"]) == 0
    assert (d / "again.jsonl").read_bytes() == (d / "metrics.jsonl").read_bytes()
    timings = json.loads((d / "metrics.manifest.json").read_text())["timings_s"]
    assert set(timings) == {"eval"}
    (positions,) = {r["n_positions"] for r in read_metrics(d / "metrics.jsonl")
                    if r["method"] == "model"}
    out, err = capsys.readouterr()
    assert "HR@8" in out and "eval:" not in out
    line = (rf"eval: {positions} model-scored positions in \d+\.\d{{3}} s "
            r"\(\d+\.\d positions/s\)")
    assert [bool(re.fullmatch(line, got)) for got in err.splitlines()] == \
        [True, True], err


def test_evals_of_two_checkpoints_write_different_manifests(tmp_path):
    d = run_pipeline(tmp_path)
    assert main(["train", "--corpus", str(d / "corpus.bin"),
                 "--vocab", str(d / "vocab.tsv"),
                 "--out", str(d / "other.ckpt"), "--log-every", "0",
                 *TINY_MODEL, "--set", "train.macro_steps=4"]) == 0
    manifests = []
    for name in ("model", "other"):
        assert main(["eval", "--stories", str(d / "data/stories.jsonl"),
                     "--vocab", str(d / "vocab.tsv"),
                     "--model", str(d / f"{name}.ckpt"),
                     "--tasks", "item", "--methods", "model",
                     "--out", str(d / f"{name}.jsonl"), *TINY_MODEL,
                     "--set", "eval.max_eval_users=1",
                     "--set", "eval.max_positions_per_user=1"]) == 0
        manifests.append((d / f"{name}.jsonl").read_text().splitlines()[0])
        inputs = json.loads((d / f"{name}.manifest.json").read_text())["inputs"]
        assert set(inputs) == {"stories", "vocab", "model"}
    assert manifests[0] != manifests[1]


def test_train_writes_its_history_as_jsonl(tmp_path):
    d = run_pipeline(tmp_path)
    assert (d / "model.train.jsonl").read_text(encoding="utf-8") == ""
    assert main(["train", "--corpus", str(d / "corpus.bin"),
                 "--vocab", str(d / "vocab.tsv"),
                 "--out", str(d / "logged.ckpt"), "--log-every", "4",
                 *TINY_MODEL]) == 0
    lines = (d / "logged.train.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["step"] for r in records] == [4, 8, 12]
    for r in records:
        assert set(r) == {"step", "loss", "grad_norm", "lr", "elapsed_s",
                          "tokens_per_s", "peak_rss_mb"}
        assert r["loss"] > 0 and r["grad_norm"] > 0 and r["lr"] > 0
        assert r["tokens_per_s"] > 0 and r["peak_rss_mb"] > 0
    # a high-water mark never falls
    assert [r["peak_rss_mb"] for r in records] == \
        sorted(r["peak_rss_mb"] for r in records)
    assert [r["elapsed_s"] for r in records] == \
        sorted(r["elapsed_s"] for r in records)
    # logging does not reach the checkpoint
    assert (d / "logged.ckpt").read_bytes() == (d / "model.ckpt").read_bytes()

def test_unknown_config_key_rejected(tmp_path, capsys):
    assert main(["gen-data", "--out-dir", str(tmp_path / "x"),
                 "--set", "world.n_viewers=5"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_ablation_corpus_flags(tmp_path):
    d = run_pipeline(tmp_path, extra=["--set", "transform.strip_sessions=true"])
    from storyrank.vocab import read_vocab
    vocab = read_vocab(d / "vocab.tsv")
    examples, _ = read_examples(d / "corpus.bin")
    story_texts = [detokenize(e.token_ids, vocab) for e in examples
                   if e.origin == 0]
    assert story_texts
    assert all("<|session|>" not in t for t in story_texts)


def test_mixture_context_length_is_not_a_key(tmp_path, capsys):
    assert main(["train", "--corpus", str(tmp_path / "corpus.bin"),
                 "--vocab", str(tmp_path / "vocab.tsv"),
                 "--out", str(tmp_path / "model.ckpt"),
                 "--set", "mixture.context_length=96"]) == 1
    assert capsys.readouterr().err == (
        "storyrank-error: ConfigError: unknown config key "
        "'mixture.context_length'\n")


@pytest.mark.parametrize("name", sorted(
    p.name for p in (ROOT / "configs").glob("*.json")))
def test_shipped_config_builds_every_stage(name):
    cfg = load_config(str(ROOT / "configs" / name))
    for section in DEFAULTS.keys() - {"model"}:
        cfg.read(section)
    model = cfg.read("model", vocab_size=300)
    assert cfg.read("mixture").context_length == model.context_length


def test_config_hashes_are_pinned():
    # every artifact's manifest hash is built over one of these configs, so
    # a change to a default, a key or a shipped value moves one of them
    assert load_config().hash == "ef53af44ddb3dc70"
    assert load_config(str(ROOT / "configs/desk.json")).hash == \
        "b3f9382aea422711"
    assert load_config(str(ROOT / "configs/paper.json")).hash == \
        "9a78cafd6043e91b"


def test_formats_config_table_lists_every_key():
    # rng_seed, one per stochastic stage, is described below the table
    text = (ROOT / "FORMATS.md").read_text(encoding="utf-8")
    section_text = text.split("## Configuration keys", 1)[1].split("\n## ")[0]
    rows = [line for line in section_text.splitlines()
            if line.startswith("| ")][1:]  # after the header row
    documented = set()
    for row in rows:
        section, _, names = row.split("|")[1].strip().partition(".")
        documented.update(f"{section}.{key.strip()}"
                          for key in names.split("/"))
    assert documented == {f"{section}.{key}"
                          for section, keys in DEFAULTS.items()
                          for key in keys if key != "rng_seed"}
