"""Latency-instrumented serving loop over newline-delimited JSON requests.

One reader, a bounded queue, one scoring context. A batching window > 0
coalesces requests that arrive together into a single forward pass. Ranking
reads each request's logits from its own slot row, which the model computes
alone (GEMM M=1) over the prompt's rows up to the slot, a width fixed by
the slot alone, so a request's logits are identical whether it is scored
alone or inside a batch: batching changes throughput, never results. The
loop answers malformed requests with per-request errors and keeps going;
shutdown emits the latency histogram summary with batch and error counts.
"""
from __future__ import annotations

import json
import math
import queue
import socket
import threading
import time
from collections import Counter

from .prompts import ITEM_KINDS, TaskKind, make_prompt, rank_batch
from .stories import Surface, ValidationError, fields, story_from_dict
from .vocab import Vocabulary

# A rank request's field tables.
_REQUEST = {"story": dict, "task": TaskKind}
_REQUEST_OPTIONAL = {"id": object, "context": dict, "top_k": int,
                     "now": (int, type(None))}
_CONTEXT = {"hour": int, "surface": Surface, "carousel": str, "query": str}


class LatencyHistogram:
    """Latency samples kept as a value -> count map: memory grows with the
    number of distinct values, not with the number of requests, and the
    percentiles stay exact nearest-rank."""

    def __init__(self, samples=()):
        self.counts = Counter(samples)

    @property
    def n(self) -> int:
        return self.counts.total()

    def add(self, sample_us: int) -> None:
        self.counts[sample_us] += 1

    def percentile(self, q: float) -> int:
        """Nearest-rank percentile over the recorded samples."""
        if not self.counts:
            raise ValueError("no latency samples recorded")
        rank = max(1, math.ceil(q / 100.0 * self.n))
        for value in sorted(self.counts):
            rank -= self.counts[value]
            if rank <= 0:
                return value

    def summary(self) -> dict:
        """Sample count and p50/p95/p99; the percentiles are None when no
        request was served."""
        out = {"n": self.n}
        for q in (50, 95, 99):
            out[f"p{q}_us"] = self.percentile(q) if self.counts else None
        return out


def score_request(request: dict, model, vocabulary: Vocabulary) -> dict:
    """One rank request -> response payload (no latency fields). A refused
    request raises its own error (ValidationError, PromptError, ...), whose
    text is the batch path's error reply."""
    prompt, top_k = _request_prompt(request, model, vocabulary)
    return _reply(request, prompt, top_k, rank_batch([prompt], model)[0],
                  model, vocabulary)


def _request_prompt(request, model, vocabulary: Vocabulary):
    """A rank request's prompt and top_k; raises on a malformed request."""
    story, kind, _, context, top_k, now = fields(
        request, "request", _REQUEST, _REQUEST_OPTIONAL)
    story = story_from_dict(story)
    fields(context or {}, "request.context", {}, _CONTEXT)
    if top_k is not None and top_k < 0:
        raise ValidationError(f"request.top_k: expected a non-negative "
                              f"integer, got {top_k}")
    if now is None:
        now = max((e.timestamp for e in story.events()), default=0)
    prompt = make_prompt(story, now, kind, context or {}, vocabulary,
                         model.config.context_length)
    return prompt, 10 if top_k is None else top_k


def _reply(request: dict, prompt, top_k: int, ranked, model,
           vocabulary: Vocabulary) -> dict:
    """The response payload of a request ranked with its prompt."""
    names = vocabulary.item_id_of_token if prompt.kind in ITEM_KINDS \
        else vocabulary.carousel_id_of_token
    candidates = [{"id": names[token_id], "token_id": token_id,
                   "logit": logit} for token_id, logit in ranked.top(top_k)]
    return {"id": request.get("id"), "task": prompt.kind.value,
            "model_step": model.step, "candidates": candidates}


def _score_batch(lines, model, vocabulary: Vocabulary,
                 errors: Counter) -> list[dict]:
    """One reply per request line (`str` or UTF-8 `bytes`), in line order,
    with one forward pass for the prompts built. `errors` counts refusals by
    class; one before the JSON is read replies "malformed request: ..."."""
    replies, built = {}, {}
    for i, line in enumerate(lines):
        request = unread = object()  # `unread` until the JSON is read
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            line = line.strip()
            if not line:
                raise ValueError("empty request line")
            request = json.loads(line)
            built[i] = (request, *_request_prompt(request, model, vocabulary))
        except Exception as exc:
            errors[type(exc).__name__] += 1
            if request is unread:
                replies[i] = {"error": f"malformed request: {exc}"}
                continue
            request_id = request.get("id") if type(request) is dict else None
            replies[i] = {"id": request_id, "error": str(exc)}
    if built:
        ranked = rank_batch([prompt for _, prompt, _ in built.values()], model)
        for (i, (request, prompt, top_k)), row in zip(built.items(), ranked):
            replies[i] = _reply(request, prompt, top_k, row, model, vocabulary)
    return [replies[i] for i in range(len(lines))]


def check_batching(batch_window_ms: float, max_batch: int,
                   names=("batch_window_ms", "max_batch")) -> None:
    """Refuse (ValueError, naming the setting by `names`) a batching window
    that is NaN, negative or longer than a thread can wait, and a batch
    bound below 1."""
    window_max = threading.TIMEOUT_MAX * 1000.0
    if not 0.0 <= batch_window_ms <= window_max:
        raise ValueError(f"{names[0]}: expected milliseconds from 0 to "
                         f"{window_max:.0f}, got {batch_window_ms}")
    if max_batch < 1:
        raise ValueError(f"{names[1]}: expected an integer of at least 1, "
                         f"got {max_batch}")


def check_tcp(port: int | None, max_connections: int | None,
              names=("port", "max_connections")) -> None:
    """Refuse (ValueError, naming the setting by `names`) a port outside
    1..65535 and a connection count below 1; None means stdio, or no count."""
    if port is not None and not 1 <= port <= 65535:
        raise ValueError(f"{names[0]}: expected a port from 1 to 65535, "
                         f"got {port}")
    if max_connections is not None and max_connections < 1:
        raise ValueError(f"{names[1]}: expected an integer of at least 1, "
                         f"got {max_connections}")


def serve_lines(lines, model, vocabulary: Vocabulary, write,
                batch_window_ms: float = 0.0, max_batch: int = 32,
                clock=time.perf_counter_ns) -> None:
    """Drive the serve loop from an iterable of request lines (stdio, a
    socket reader, or a test). Each reply's latency runs from the moment the
    reader took its line to the reply's write, so time in the queue and the
    batching window counts. The final record written is the summary: the
    latency histogram's percentiles, the number of batches, a batch size ->
    count map and an exception class name -> count map of the error
    replies. Lines may be `str` or UTF-8 `bytes`; `_score_batch` turns each
    into its reply. Raises ValueError before reading any line when
    `check_batching` refuses the batching settings or the vocabulary has
    candidates the model cannot score. When `lines` itself raises, the
    lines read before are answered, the summary is written and the
    exception is raised again. When the loop itself raises (a reply write
    to a client that reset), the queued lines are dropped and the reader
    thread reads no further line and ends."""
    check_batching(batch_window_ms, max_batch)
    largest = max(vocabulary.item_token_ids + vocabulary.carousel_token_ids,
                  default=-1)
    if largest >= model.config.vocab_size:
        raise ValueError(
            f"model vocabulary of size {model.config.vocab_size} is smaller "
            f"than the Vocabulary of size {vocabulary.size} (largest candidate "
            f"token id {largest}); was the checkpoint trained with another "
            "vocabulary?")
    histogram = LatencyHistogram()
    batch_sizes: Counter = Counter()
    errors: Counter = Counter()
    feed = queue.Queue(maxsize=1024)
    done = object()
    failed = []
    stop = threading.Event()

    def reader():
        try:
            for line in lines:
                feed.put((clock(), line))
                if stop.is_set():
                    break
        except Exception as exc:
            failed.append(exc)
        finally:
            feed.put(done)

    thread = threading.Thread(target=reader, name="storyrank-serve-reader",
                              daemon=True)
    thread.start()
    try:
        while (item := feed.get()) is not done:
            batch = [item]
            deadline = time.perf_counter() + batch_window_ms / 1000.0
            while batch_window_ms > 0 and len(batch) < max_batch:
                try:
                    item = feed.get(
                        timeout=max(0.0, deadline - time.perf_counter()))
                except queue.Empty:
                    break
                if item is done:
                    feed.put(done)  # the outer loop ends after this batch
                    break
                batch.append(item)
            batch_sizes[len(batch)] += 1
            replies = _score_batch([line for _, line in batch], model,
                                   vocabulary, errors)
            for (arrived, _), reply in zip(batch, replies):
                latency_us = int(max(1, (clock() - arrived) // 1000))
                write(json.dumps(dict(reply, latency_us=latency_us),
                                 sort_keys=True) + "\n")
                histogram.add(latency_us)
        summary = dict(histogram.summary(), batches=batch_sizes.total(),
                       batch_sizes=dict(batch_sizes), errors=dict(errors))
        write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
        if failed:
            raise failed[0]
    finally:
        # A reader blocked on the full queue wakes up, sees `stop` and reads
        # no further line; after the drain it queues at most one line and
        # `done`, so it never blocks again.
        stop.set()
        while True:
            try:
                feed.get_nowait()
            except queue.Empty:
                break


def serve_tcp(model, vocabulary: Vocabulary, port: int,
              batch_window_ms: float = 0.0, max_batch: int = 32,
              max_connections: int | None = None) -> None:
    """Accept local connections one at a time, until max_connections have
    been served (None: until the process is stopped); each connection streams
    newline-delimited requests and receives newline-delimited responses.
    Lines are read as bytes, so a line that is not UTF-8 gets its own error
    reply. A socket error, such as a client that resets its connection,
    ends that connection only; the server goes on accepting. The batching
    settings, the port and the connection count are checked before the port
    is opened."""
    check_batching(batch_window_ms, max_batch)
    check_tcp(port, max_connections)
    server = socket.create_server(("127.0.0.1", port))
    served = 0
    try:
        while max_connections is None or served < max_connections:
            conn, _ = server.accept()
            served += 1
            try:
                with conn, conn.makefile("rb") as reader, \
                        conn.makefile("w", encoding="utf-8") as writer:
                    def write(text):
                        writer.write(text)
                        writer.flush()
                    serve_lines(reader, model, vocabulary, write,
                                batch_window_ms=batch_window_ms,
                                max_batch=max_batch)
            except OSError:
                pass  # the next connection is served as usual
    finally:
        server.close()
