"""The three workloads. Each drives storyrank in-process through the same
library functions the CLI calls, and sees only inputs made from the seed.

A workload has `setup(tracer)` (timed as setup_s), `run(state, tracer)`, which
returns an Outcome with the end-to-end metrics, and `check(state, outcome)`,
which returns the correctness failures. `tracer.phase` tags the spans of each
part of a run when the tracer is installed; otherwise it is only a label.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from storyrank import corpus, evaluate, grammar, serve, training
from storyrank import model as model_mod
from storyrank import vocab as vocab_mod
from storyrank.prompts import TaskKind
from storyrank.stories import WatchEvent, story_to_dict

from common import corpus_pass, digest, make_model, make_world, median, \
    percentile

@dataclass
class Outcome:
    metrics: dict            # end-to-end metric name -> value
    attempted: int
    failed: int
    digests: dict
    report: list = field(default_factory=list)   # human-readable lines
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)     # inputs to per-layer metrics


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


# --- serve_mixed -------------------------------------------------------------

@dataclass
class ServeState:
    model: object
    vocab: object
    phases: dict   # phase -> (lines, expected outcomes, arrival offsets, requests)


class ServeMixed:
    """serve.serve_lines over generated request lines: an open-loop phase of
    seeded Poisson arrivals at a fixed rate, then saturation bursts with
    every line of a burst due at once."""

    name = "serve_mixed"
    USERS = 300
    RATE_RPS = 16.0          # about half the saturation capacity on 2 cores
    OPEN_SHARE = 0.5         # share of --seconds spent in the open loop
    COLD_SHARE = 0.5         # the rest are full-history viewers
    BURST_LINES = 96         # three batches of MAX_BATCH, all due at once
    BURSTS_PER_S = 0.2       # saturation bursts per --seconds
    WINDOW_MS = 5.0
    MAX_BATCH = 32           # serve_lines' default
    TOP_K = 10
    TASK_MIX = {"item_masked": 4, "item_contextual": 2, "carousel": 3,
                "search": 3}
    BAD_JSON_SHARE = 0.02    # unparseable JSON text
    UNKNOWN_TASK_SHARE = 0.02
    WARMUP_LINES = 4
    CHECK_PER_PHASE = 4      # replies per phase compared with score_request

    def __init__(self, seed: int, seconds: int, workdir):
        self.seed = seed
        self.workdir = workdir
        # at least 200 latency samples, so 10 lie beyond p95
        self.n_open = max(200, round(self.RATE_RPS * self.OPEN_SHARE * seconds))
        self.saturation = [f"saturation.{i}" for i in
                           range(max(2, round(self.BURSTS_PER_S * seconds)))]

    def traffic(self) -> dict:
        return {"rate_rps": self.RATE_RPS, "open_lines": self.n_open,
                "saturation_bursts": len(self.saturation),
                "burst_lines": self.BURST_LINES, "window_ms": self.WINDOW_MS,
                "max_batch": self.MAX_BATCH,
                "history_mix": {"cold_start_last_1_2_sessions": self.COLD_SHARE,
                                "full_history": 1 - self.COLD_SHARE},
                "task_mix": self.TASK_MIX,
                "client_errors": {"bad_json": self.BAD_JSON_SHARE,
                                  "unknown_task": self.UNKNOWN_TASK_SHARE},
                "users": self.USERS}

    def setup(self, tracer) -> ServeState:
        catalog, stories, _ = make_world(self.seed, self.USERS)
        vocabulary = vocab_mod.build_vocabulary(catalog)
        model, _ = make_model(vocabulary, self.workdir)
        viewers = [s for s in stories
                   if any(isinstance(e, WatchEvent) for e in s.events())]
        phases = {}
        sizes = [("warmup", self.WARMUP_LINES), ("open", self.n_open)] + [
            (burst, self.BURST_LINES) for burst in self.saturation]
        for stream, (phase, n) in enumerate(sizes, 1):
            rng = _rng(self.seed, stream)
            lines, expect, requests = self._lines(rng, viewers, catalog, n,
                                                  errors=phase != "warmup")
            if phase == "open":
                offsets = np.cumsum(rng.exponential(1.0 / self.RATE_RPS, n))
            else:
                offsets = np.zeros(n)
            phases[phase] = (lines, expect, offsets.tolist(), requests)
        state = ServeState(model, vocabulary, phases)
        self._phase(state, "warmup", tracer)
        return state

    def _lines(self, rng, viewers, catalog, n, errors: bool):
        pattern = [k for k, w in self.TASK_MIX.items() for _ in range(w)]
        tasks = [pattern[i % len(pattern)] for i in range(n)]
        rng.shuffle(tasks)
        cold = np.arange(n) < round(n * self.COLD_SHARE)
        rng.shuffle(cold)
        expect = ["ok"] * n
        if errors:
            n_bad = max(1, round(n * self.BAD_JSON_SHARE))
            n_unknown = max(1, round(n * self.UNKNOWN_TASK_SHARE))
            picks = rng.permutation(n)
            for i in picks[:n_bad]:
                expect[i] = "bad_json"
            for i in picks[n_bad:n_bad + n_unknown]:
                expect[i] = "unknown_task"
        carousels = [c.carousel_id for c in catalog.carousels if c.carousel_id]
        titles = [item.title for item in catalog.items]
        lines, requests = [], []
        for i in range(n):
            story = viewers[int(rng.integers(len(viewers)))]
            if cold[i]:
                keep = story.sessions[-int(rng.integers(1, 3)):]
                keep = (replace(keep[0], elapsed_hours=0),) + tuple(keep[1:])
                story = replace(story, sessions=keep)
            task = tasks[i]
            context = {}
            if task == "item_contextual":
                context = {"surface": str(rng.choice(["home", "browse"])),
                           "carousel": carousels[int(rng.integers(len(carousels)))]}
            elif task == "carousel":
                context = {"surface": "home"}
            elif task == "search":
                title = titles[int(rng.integers(len(titles)))]
                context = {"query": title[:int(rng.integers(2, 7))].strip()
                           or title}
            request = {"id": i, "story": story_to_dict(story),
                       "task": "recommend" if expect[i] == "unknown_task" else task,
                       "context": context, "top_k": self.TOP_K}
            line = json.dumps(request)
            if expect[i] == "bad_json":
                line = line[:len(line) // 2]
            lines.append(line)
            requests.append(request)
        return lines, expect, requests

    def _phase(self, state: ServeState, phase: str, tracer) -> dict:
        """Feed one phase's lines to serve_lines through a generator that
        sleeps until each line is due, so serve's own reader thread paces the
        load. Latency runs from the due time to the reply's write."""
        lines, expect, offsets, _ = state.phases[phase]
        due = [0.0] * len(lines)
        lags = []

        def paced():
            t0 = time.perf_counter()
            for i, (line, offset) in enumerate(zip(lines, offsets)):
                due[i] = t0 + offset
                delay = due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags.append(time.perf_counter() - due[i])
                yield line

        parsed_ids = iter([f"{phase}:{i}" for i, e in enumerate(expect)
                           if e != "bad_json"])

        def on_enter(name):
            if name == "stories.story_from_dict":
                tracer.rid = next(parsed_ids, None)
            elif name == "prompts.rank_batch":
                tracer.rid = None

        replies, written = [], []

        def write(text):
            written.append(time.perf_counter())
            replies.append(text)

        tracer.phase, tracer.on_enter = phase.split(".")[0], on_enter
        try:
            serve.serve_lines(paced(), state.model, state.vocab, write,
                              batch_window_ms=self.WINDOW_MS,
                              max_batch=self.MAX_BATCH)
        finally:
            tracer.on_enter, tracer.rid = None, None
        records = [json.loads(r) for r in replies]
        summary = records and "summary" in records[-1]
        if summary:
            records.pop()
            written.pop()
        return {"records": records, "written": written, "due": due,
                "lags": lags, "summary": summary}

    def run(self, state: ServeState, tracer) -> Outcome:
        results = {phase: self._phase(state, phase, tracer)
                   for phase in ["open"] + self.saturation}

        failures, report = [], []
        attempted = failed = 0
        for phase, res in results.items():
            expect = state.phases[phase][1]
            bad = self._wrong_replies(phase, res, expect, failures)
            attempted += len(expect)
            failed += bad
            report.append(f"{phase}: sent {len(expect)}, succeeded "
                          f"{len(expect) - bad}, failed {bad}")
        opened = results["open"]
        latencies = [(w - d) * 1000 for w, d in
                     zip(opened["written"], opened["due"])]
        # replies per second of each burst, from its due time to its last
        # reply; the median rides out a stall of the host within one burst
        capacity = median(len(r["written"]) / (r["written"][-1] - r["due"][0])
                          for r in map(results.get, self.saturation)
                          if r["written"])
        p95 = percentile(latencies, 95)
        beyond = sum(1 for v in latencies if v > p95)
        lag_max = max(opened["lags"], default=0.0) * 1000
        report.append(f"open-loop latency samples {len(latencies)}, {beyond} "
                      f"beyond p95; generator lag max {lag_max:.2f} ms")
        metrics = {"throughput_per_s": capacity}
        report.append(
            f"issue metrics: latency_p50_ms {median(latencies):.3f} ms, "
            f"latency_p95_ms {p95:.3f} ms, capacity_rps {capacity:.3f} req/s, "
            f"failed_frac {failed / max(1, attempted):.4f} ratio")
        served = [[{k: v for k, v in r.items() if k != "latency_us"}
                   for r in res["records"]] for res in results.values()]
        due = {f"open:{i}": d for i, d in enumerate(opened["due"])}
        return Outcome(metrics, attempted, failed,
                       {"rankings": digest(served)}, report, failures,
                       {"due": due, "lag_ms_max": lag_max, "results": results})

    def _wrong_replies(self, phase, res, expect, failures) -> int:
        records = res["records"]
        if not res["summary"]:
            failures.append(f"{phase}: no shutdown summary record")
        if len(records) != len(expect):
            failures.append(f"{phase}: {len(records)} replies to "
                            f"{len(expect)} lines")
        bad = abs(len(records) - len(expect))
        for i, (record, kind) in enumerate(zip(records, expect)):
            if kind == "ok":
                good = record.get("id") == i and "error" not in record \
                    and len(record.get("candidates", ())) == self.TOP_K
            elif kind == "bad_json":
                good = str(record.get("error", "")).startswith("malformed")
            else:
                good = record.get("id") == i and "error" in record
            if not good:
                bad += 1
                if bad <= 3:
                    failures.append(f"{phase} line {i} ({kind}): "
                                    f"unexpected reply {str(record)[:120]}")
        return bad

    def check(self, state: ServeState, outcome: Outcome) -> list:
        """A sample of replies, latency dropped, must equal score_request on
        the request alone, bit for bit (an unknown task must raise the same
        error)."""
        failures = []
        rng = _rng(self.seed, 99)
        for phase, res in outcome.extra["results"].items():
            _, expect, _, requests = state.phases[phase]
            candidates = [i for i, e in enumerate(expect)
                          if e != "bad_json" and i < len(res["records"])]
            sample = rng.choice(candidates, replace=False, size=min(
                len(candidates), self.CHECK_PER_PHASE))
            sample = sorted(set(sample.tolist()) | {
                i for i in candidates if expect[i] == "unknown_task"})
            for i in sample:
                reply = {k: v for k, v in res["records"][i].items()
                         if k != "latency_us"}
                try:
                    alone = json.loads(json.dumps(serve.score_request(
                        requests[i], state.model, state.vocab), sort_keys=True))
                except ValueError as exc:
                    alone = {"id": requests[i]["id"], "error": str(exc)}
                if alone != reply:
                    failures.append(f"{phase} line {i}: served reply differs "
                                    "from score_request on it alone")
        return failures


# --- eval_offline ------------------------------------------------------------

@dataclass
class EvalState:
    model: object
    vocab: object
    held: list
    scorers: list
    cfg: object


class EvalOffline:
    """evaluate.evaluate over a fixed slice of held-out users, one call per
    user, with the model, popularity and BM25 scorers on three tasks."""

    name = "eval_offline"
    USERS_PER_S = 1.4        # held-out users in the slice per --seconds
    KINDS = (TaskKind.ITEM_MASKED, TaskKind.CAROUSEL, TaskKind.SEARCH)
    MAX_POSITIONS_PER_USER = 10   # configs/desk.json

    def __init__(self, seed: int, seconds: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.n_users = max(2, round(self.USERS_PER_S * seconds))
        # a 10% hold-out of this many users averages twice the slice; a
        # shortfall is over three standard deviations away
        self.world_users = max(400, 20 * self.n_users)

    def traffic(self) -> dict:
        return {"users": self.world_users, "slice_users": self.n_users,
                "tasks": [k.value for k in self.KINDS],
                "methods": ["model", "popularity", "bm25"],
                "max_positions_per_user": self.MAX_POSITIONS_PER_USER,
                "merges": 0}

    def setup(self, tracer) -> EvalState:
        catalog, stories, _ = make_world(self.seed, self.world_users)
        cfg = evaluate.EvalConfig(
            holdout_fraction=0.1, rng_seed=self.seed,
            max_positions_per_user=self.MAX_POSITIONS_PER_USER)
        train_split, held = evaluate.split_users(stories, cfg)
        held = sorted(held, key=lambda s: s.user_id)[:self.n_users]
        if len(held) < self.n_users:
            raise RuntimeError(f"only {len(held)} held-out users")
        vocabulary = vocab_mod.build_vocabulary(catalog)
        model, _ = make_model(vocabulary, self.workdir)
        scorers = [evaluate.ModelScorer(model),
                   evaluate.popularity_scorer(train_split, vocabulary),
                   evaluate.Bm25Scorer(evaluate.BM25Index.build(catalog.items))]
        model.forward(np.ones(8, dtype=np.int64))
        return EvalState(model, vocabulary, held, scorers, cfg)

    def run(self, state: EvalState, tracer) -> Outcome:
        tracer.phase = "eval"
        rows_by_user = []
        positions = 0
        busy = 0.0
        for story in state.held:
            started = time.perf_counter()
            rows = evaluate.evaluate(state.scorers, [story], self.KINDS,
                                     state.cfg, state.vocab)
            elapsed = time.perf_counter() - started
            scored = sum(r["n_positions"] for r in rows
                         if r["method"] == "model"
                         and r["K"] == state.cfg.cutoffs[0])
            busy += elapsed
            positions += scored
            rows_by_user.append(rows)
        metrics = {"throughput_per_s": positions / busy}
        report = [f"eval: {len(state.held)} users, {positions} model-scored "
                  f"positions in {busy:.3f} s",
                  f"issue metrics: positions_per_s "
                  f"{metrics['throughput_per_s']:.3f} pos/s"]
        return Outcome(metrics, positions, 0, {"eval_rows": digest(rows_by_user)},
                       report, [], {"rows": rows_by_user})

    def check(self, state: EvalState, outcome: Outcome) -> list:
        failures = []
        for story, rows in zip(state.held, outcome.extra["rows"]):
            for row in rows:
                kind = TaskKind(row["task"])
                want = len(evaluate.eligible_positions(story, kind, state.vocab)
                           [-self.MAX_POSITIONS_PER_USER:])
                if row["n_positions"] != want:
                    outcome.failed += abs(row["n_positions"] - want)
                    failures.append(f"{story.user_id} {row['method']} "
                                    f"{row['task']}: n_positions "
                                    f"{row['n_positions']} != {want}")
                for key in ("hr", "ndcg"):
                    value = row[key]
                    if (value is None) != (want == 0) or \
                            (value is not None and not 0.0 <= value <= 1.0):
                        failures.append(f"{story.user_id} {row['method']} "
                                        f"{row['task']}: {key}={value}")
            for method in {r["method"] for r in rows}:
                for task in {r["task"] for r in rows}:
                    series = [r for r in rows if r["method"] == method
                              and r["task"] == task and r["hr"] is not None]
                    series.sort(key=lambda r: r["K"])
                    for key in ("hr", "ndcg"):
                        vals = [r[key] for r in series]
                        if any(b < a for a, b in zip(vals, vals[1:])):
                            failures.append(f"{story.user_id} {method} {task}:"
                                            f" {key} falls as K grows")
        story, rows = state.held[0], outcome.extra["rows"][0]
        single = evaluate.evaluate([evaluate.ModelScorer(state.model,
                                                         batch_size=1)],
                                   [story], self.KINDS, state.cfg, state.vocab)
        if single != [r for r in rows if r["method"] == "model"]:
            failures.append(f"{story.user_id}: rows differ between "
                            "ModelScorer batch_size=1 and the default")
        return failures


# --- train_pipeline ----------------------------------------------------------

@dataclass
class TrainState:
    model: object
    opt: object
    vocab: object
    catalog: object
    stories: list


class TrainPipeline:
    """Corpus build with a merges > 0 vocabulary, then training.train at the
    desk model and batch size."""

    name = "train_pipeline"
    USERS = 200
    MERGES = 48
    MERGE_TEXT_STORIES = 50
    BATCH_SIZE = 8            # configs/desk.json
    STEPS_PER_S = 2.0         # optimizer steps per --seconds
    CHECK_STEPS = 2

    def __init__(self, seed: int, seconds: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.steps = max(self.CHECK_STEPS, round(self.STEPS_PER_S * seconds))
        self.mixture = corpus.MixtureConfig(context_length=256, rng_seed=seed)
        self.masking = corpus.MaskingConfig(rng_seed=seed)

    def traffic(self) -> dict:
        return {"users": self.USERS, "merges": self.MERGES,
                "merge_text_stories": self.MERGE_TEXT_STORIES,
                "steps": self.steps, "batch_size": self.BATCH_SIZE,
                "context_length": 256}

    def _train_cfg(self, steps: int) -> model_mod.TrainConfig:
        # warmup fits inside the short check run so its losses match the
        # first steps of the full run
        return model_mod.TrainConfig(batch_size=self.BATCH_SIZE,
                                     macro_steps=steps,
                                     warmup_steps=self.CHECK_STEPS,
                                     rng_seed=self.seed)

    def setup(self, tracer) -> TrainState:
        catalog, stories, _ = make_world(self.seed, self.USERS)
        merge_text = "\n".join(grammar.serialize(s)
                               for s in stories[:self.MERGE_TEXT_STORIES])
        vocabulary = vocab_mod.build_vocabulary(catalog, merges=self.MERGES,
                                                merge_training_text=merge_text)
        model, opt = make_model(vocabulary, self.workdir, with_optimizer=True)
        ids = np.ones((1, 8), dtype=np.int64)
        model_mod.forward_backward(model, ids, ids)
        return TrainState(model, opt, vocabulary, catalog, stories)

    def _train(self, model, opt, state, examples, steps):
        """training.train with a log call after every step. Returns the losses
        and the step times."""
        stamps = [time.perf_counter()]
        history = training.train(model, opt, *examples, self.mixture,
                                 self.masking, state.vocab,
                                 self._train_cfg(steps), log_every=1,
                                 log=lambda _: stamps.append(time.perf_counter()))
        step_ms = [(b - a) * 1000 for a, b in zip(stamps, stamps[1:])]
        return [float(h["loss"]) for h in history], step_ms

    def run(self, state: TrainState, tracer) -> Outcome:
        tracer.phase = "corpus"
        started = time.perf_counter()
        mb, story_examples = corpus_pass(state.stories, state.vocab)
        examples = (story_examples,
                    corpus.build_catalog_corpus(state.catalog, state.vocab))
        corpus_mb_per_s = mb / (time.perf_counter() - started)
        tracer.phase = "train"
        losses, step_ms = self._train(state.model, state.opt, state, examples,
                                      self.steps)
        elapsed = sum(step_ms) / 1000
        # non-padding targets, drawn again from the same seeded mixture stream
        tracer.phase = "count"
        targets = sum(max(0, len(ex.token_ids) - 1) for ex in corpus.sample_mixture(
            *examples, self.mixture, n=self.steps * self.BATCH_SIZE,
            masking=self.masking, vocabulary=state.vocab))
        finite = sum(1 for x in losses if math.isfinite(x))
        metrics = {"throughput_per_s": targets / elapsed}
        report = [f"train: {len(losses)} steps, {targets} target tokens "
                  f"in {elapsed:.3f} s, step p50 {median(step_ms):.3f} ms",
                  f"issue metrics: corpus_mb_per_s {corpus_mb_per_s:.3f} MB/s "
                  f"({mb:.3f} MB), train_tokens_per_s "
                  f"{metrics['throughput_per_s']:.1f} tok/s"]
        return Outcome(metrics, self.steps, self.steps - finite,
                       {"losses": digest(losses)}, report, [],
                       {"losses": losses, "examples": examples,
                        "step_ms": step_ms})

    def check(self, state: TrainState, outcome: Outcome) -> list:
        failures = []
        losses = outcome.extra["losses"]
        if len(losses) != self.steps or not all(map(math.isfinite, losses)):
            failures.append(f"losses not all finite or missing: {losses}")
        model, opt, _ = model_mod.load_checkpoint(
            self.workdir / "model.ckpt", expect_vocab_hash=state.vocab.vocab_hash())
        again, _ = self._train(model, opt, state, outcome.extra["examples"],
                                  self.CHECK_STEPS)
        if again != losses[:self.CHECK_STEPS]:
            failures.append(f"rerun losses {again} != {losses[:self.CHECK_STEPS]}")
        return failures


WORKLOADS = {w.name: w for w in (ServeMixed, EvalOffline, TrainPipeline)}
