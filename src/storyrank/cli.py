"""Command-line pipeline: gen-data, build-vocab, build-corpus, train, eval,
rank, serve, report. Stage failures exit nonzero with a single
machine-parseable `storyrank-error:` line on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import grammar
from .config import load_config
from .corpus import (
    ORIGIN_CATALOG,
    ORIGIN_STORY,
    build_catalog_corpus,
    read_examples,
    tokenize_stories,
    write_examples,
)
from .datagen import generate_world, world_report
from .evaluate import (
    BM25Index,
    Bm25Scorer,
    ModelScorer,
    evaluate,
    format_table,
    popularity_scorer,
    split_users,
    write_metrics,
)
from .manifest import RunManifest
from .model import AdamState, init_model, load_checkpoint, save_checkpoint
from .prompts import TaskKind
from .serve import check_batching, check_tcp, score_request, \
    serve_lines, serve_tcp
from .stories import ValidationError, read_stories, write_stories
from .training import train as run_training
from .vocab import build_vocabulary, read_catalog, read_vocab, write_catalog, \
    write_vocab


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (defaults when omitted)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="override a config key")


def _check_out(out: str | None) -> None:
    """Refuse an `--out` whose directory does not exist, before any work."""
    if out is not None and not Path(out).parent.is_dir():
        raise ValueError(f"--out: directory {Path(out).parent} does not exist")


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.overrides)
    world = cfg.world()  # checked before the out dir is made
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.build("gen-data", cfg.raw)
    started = time.perf_counter()
    catalog, stories, genre_of = generate_world(world)
    manifest.record("generate", time.perf_counter() - started)
    write_stories(out / "stories.jsonl", stories, header={"hash": manifest.hash})
    write_catalog(out / "catalog.jsonl", catalog, header={"hash": manifest.hash},
                  genres=genre_of)
    report = world_report(stories)
    with open(out / "world_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    manifest.write(out / "manifest.json")
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


def cmd_build_vocab(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config, args.overrides)
    merges = cfg.merges()
    if merges > 0 and not args.stories:
        raise ValueError(f"vocab.merges={merges} needs --stories")
    catalog = read_catalog(args.catalog)
    inputs = {"catalog": args.catalog}
    merge_text = None
    if merges > 0:
        # merges are learned from the train split's stories only
        stories = split_users(read_stories(args.stories), cfg.eval())[0]
        merge_text = "\n".join(grammar.serialize(s, validate=False)
                                for s in stories)
        inputs["stories"] = args.stories
    manifest = RunManifest.build("build-vocab", cfg.raw, inputs)
    started = time.perf_counter()
    vocab = build_vocabulary(catalog, merges=merges,
                             merge_training_text=merge_text)
    manifest.record("build_vocabulary", time.perf_counter() - started)
    write_vocab(args.out, vocab, manifest_hash=manifest.hash)
    manifest.write(Path(args.out).with_suffix(".manifest.json"))
    print(f"vocabulary: {vocab.size} tokens ({vocab.base_size} base, "
          f"hash {vocab.vocab_hash()})")
    return 0


def cmd_build_corpus(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config, args.overrides)
    transform = cfg.transform()  # checked before any file is read
    vocab = read_vocab(args.vocab)
    catalog = read_catalog(args.catalog)
    # the users eval holds out are not trained on
    stories = split_users(read_stories(args.stories), cfg.eval())[0]
    manifest = RunManifest.build(
        "build-corpus", cfg.raw,
        {"stories": args.stories, "vocab": args.vocab, "catalog": args.catalog})
    started = time.perf_counter()
    texts = (grammar.serialize(grammar.apply_transform(s, **transform),
                               validate=False)
             for s in stories)
    examples = tokenize_stories(texts, vocab)
    examples.extend(build_catalog_corpus(catalog, vocab))
    manifest.record("tokenize", time.perf_counter() - started)
    n = write_examples(args.out, examples, vocab_hash=vocab.vocab_hash(),
                       manifest_hash=manifest.hash)
    manifest.write(Path(args.out).with_suffix(".manifest.json"))
    print(f"corpus: {n} records "
          f"({sum(1 for e in examples if e.origin == ORIGIN_STORY)} story, "
          f"{sum(1 for e in examples if e.origin == ORIGIN_CATALOG)} catalog)")
    return 0


def cmd_train(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config, args.overrides)
    # these sections are checked before any file is read; the model's needs
    # the vocabulary's size
    train, mixture, masking = cfg.train(), cfg.mixture(), cfg.masking()
    vocab = read_vocab(args.vocab)
    examples, meta = read_examples(args.corpus, vocab)
    story_examples = [e for e in examples if e.origin == ORIGIN_STORY]
    catalog_examples = [e for e in examples if e.origin == ORIGIN_CATALOG]
    manifest = RunManifest.build(
        "train", cfg.raw, {"corpus": args.corpus, "vocab": args.vocab})
    model = init_model(cfg.model(vocab.size), seed=train.rng_seed)
    opt = AdamState.for_model(model)
    started = time.perf_counter()
    history = run_training(model, opt, story_examples, catalog_examples,
                           mixture, masking, vocab, train,
                           log_every=args.log_every)
    manifest.record("train", time.perf_counter() - started)
    save_checkpoint(args.out, model, opt if args.save_optimizer else None,
                    vocab_hash=vocab.vocab_hash(), manifest_hash=manifest.hash)
    manifest.write(Path(args.out).with_suffix(".manifest.json"))
    write_metrics(Path(args.out).with_suffix(".train.jsonl"), history)
    print(f"trained {model.step} steps -> {args.out}")
    return 0


def _task_kinds(spec: str) -> list[TaskKind]:
    alias = {"item": TaskKind.ITEM_MASKED, "carousel": TaskKind.CAROUSEL,
             "search": TaskKind.SEARCH,
             "item_masked": TaskKind.ITEM_MASKED,
             "item_contextual": TaskKind.ITEM_CONTEXTUAL}
    kinds = []
    for name in spec.split(","):
        name = name.strip()
        if name not in alias:
            raise ValueError(f"unknown task {name!r}")
        if alias[name] in kinds:
            raise ValueError(f"--tasks: {name!r} repeats the task "
                             f"{alias[name].value}")
        kinds.append(alias[name])
    return kinds


def _eval_methods(args) -> list[str]:
    """`eval`'s methods, each with the flag it needs and under a name no
    other method's metric rows have."""
    methods = [m.strip() for m in args.methods.split(",")]
    names = [args.model_name if m == "model" else m for m in methods]
    for i, (method, name) in enumerate(zip(methods, names)):
        if method not in ("model", "popularity", "bm25"):
            raise ValueError(f"unknown method {method!r}")
        if name in names[:i]:
            raise ValueError(f"--methods: the method name {name!r} repeats")
    for method, flag in (("model", "model"), ("bm25", "catalog")):
        if method in methods and getattr(args, flag) is None:
            raise ValueError(f"--methods {method} needs --{flag}")
    return methods


def cmd_eval(args) -> int:
    # the arguments and the transform are checked before any file is read
    methods, kinds = _eval_methods(args), _task_kinds(args.tasks)
    _check_out(args.out)
    cfg = load_config(args.config, args.overrides)
    transform = cfg.transform()
    vocab = read_vocab(args.vocab)
    stories = read_stories(args.stories)
    train_split, eval_split = split_users(stories, cfg.eval())
    scorers = []
    for method in methods:
        if method == "model":
            model, _, _ = load_checkpoint(args.model,
                                          expect_vocab_hash=vocab.vocab_hash())
            scorers.append(ModelScorer(model, name=args.model_name,
                                       transform=transform))
        elif method == "popularity":
            scorers.append(popularity_scorer(train_split, vocab))
        elif method == "bm25":
            catalog = read_catalog(args.catalog)
            scorers.append(Bm25Scorer(BM25Index.build(catalog.items)))
    given = {"stories": args.stories, "vocab": args.vocab,
             "model": args.model, "catalog": args.catalog}
    manifest = RunManifest.build(
        "eval", cfg.raw, {name: path for name, path in given.items() if path})
    started = time.perf_counter()
    rows = evaluate(scorers, eval_split, kinds, cfg.eval(),
                    vocab, config_hash=cfg.hash)
    seconds = time.perf_counter() - started
    manifest.record("eval", seconds)
    model_names = {s.name for s in scorers if isinstance(s, ModelScorer)}
    positions = sum(r["n_positions"] for r in rows if r["method"] in model_names
                    and r["K"] == cfg.eval().cutoffs[0])
    print(f"eval: {positions} model-scored positions in {seconds:.3f} s "
          f"({positions / seconds:.1f} positions/s)", file=sys.stderr)
    if args.out:
        write_metrics(args.out, rows, manifest_hash=manifest.hash)
        manifest.write(Path(args.out).with_suffix(".manifest.json"))
    print(format_table(rows))
    return 0


def cmd_rank(args) -> int:
    raw = Path(args.request).read_text(encoding="utf-8") if args.request \
        else sys.stdin.read()
    try:  # before the model is loaded
        request = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"request {args.request or '<stdin>'}: not "
                              f"JSON: {exc}") from None
    vocab = read_vocab(args.vocab)
    model, _, _ = load_checkpoint(args.model,
                                  expect_vocab_hash=vocab.vocab_hash())
    started = time.perf_counter_ns()
    response = score_request(request, model, vocab)
    latency_us = max(1, (time.perf_counter_ns() - started) // 1000)
    print(json.dumps(dict(response, latency_us=int(latency_us)),
                     sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    # the batching settings, the port and the connection count are checked
    # before any file is read
    check_batching(args.batch_window_ms, args.max_batch,
                   names=("--batch-window-ms", "--max-batch"))
    check_tcp(args.port, args.max_connections,
              names=("--port", "--max-connections"))
    vocab = read_vocab(args.vocab)
    model, _, _ = load_checkpoint(args.model,
                                  expect_vocab_hash=vocab.vocab_hash())
    if args.port is not None:
        serve_tcp(model, vocab, args.port, batch_window_ms=args.batch_window_ms,
                  max_batch=args.max_batch,
                  max_connections=args.max_connections)
    else:
        serve_lines(sys.stdin, model, vocab, sys.stdout.write,
                    batch_window_ms=args.batch_window_ms,
                    max_batch=args.max_batch)
    return 0


def cmd_report(args) -> int:
    stories = read_stories(args.stories)
    for key, value in world_report(stories).items():
        print(f"{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storyrank",
        description="Unified generative ranking over serialized user stories")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic world")
    _add_config_args(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("build-vocab", help="mint the mixed vocabulary")
    _add_config_args(p)
    p.add_argument("--catalog", required=True)
    p.add_argument("--stories", help="merge-training text (its train split), "
                   "required when vocab.merges > 0")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_vocab)

    p = sub.add_parser("build-corpus", help="tokenize stories + catalog corpus")
    _add_config_args(p)
    p.add_argument("--stories", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_corpus)

    p = sub.add_parser("train", help="train the causal LM on the mixture")
    _add_config_args(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log-every", type=int, default=100)
    p.add_argument("--save-optimizer", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="offline metrics on the held-out split")
    _add_config_args(p)
    p.add_argument("--stories", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", help="checkpoint (required for method=model)")
    p.add_argument("--model-name", default="model",
                   help="method label in the metrics output")
    p.add_argument("--catalog", help="catalog file (required for method=bm25)")
    p.add_argument("--tasks", default="item,carousel,search")
    p.add_argument("--methods", default="model,popularity,bm25")
    p.add_argument("--out", help="metrics JSONL output path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("rank", help="score one rank request")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--request", help="request file (stdin when omitted)")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("serve", help="serve rank requests over stdio or TCP")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--port", type=int, help="TCP port (stdio when omitted)")
    p.add_argument("--batch-window-ms", type=float, default=0.0)
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--max-connections", type=int, default=None)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("report", help="world statistics for a story file")
    p.add_argument("--stories", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"storyrank-error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
