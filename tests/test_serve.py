import json
import socket
import struct
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyrank.model import ModelConfig, init_model
from storyrank.prompts import TaskKind, candidate_set
from storyrank.serve import LatencyHistogram, _score_batch, score_request, \
    serve_lines, serve_tcp
from storyrank.stories import story_from_dict, story_to_dict

from conftest import SAMPLE_CAROUSELS, assert_path_into, json_text, \
    make_sample_story, mutated


@pytest.fixture(scope="module")
def served_model(sample_vocab):
    cfg = ModelConfig(vocab_size=sample_vocab.size, context_length=192,
                      layers=1, heads=2, model_dim=16, dtype="float64")
    return init_model(cfg, seed=2)


def _request(i, task="item_masked", **kw):
    req = {"id": i, "story": story_to_dict(make_sample_story(f"user-{i}")),
           "task": task, "top_k": 5}
    req.update(kw)
    return req


def test_histogram_percentiles_are_nearest_rank():
    hist = LatencyHistogram()
    for v in range(1000, 0, -1):
        hist.add(v)
    summary = hist.summary()
    assert summary == {"n": 1000, "p50_us": 500, "p95_us": 950, "p99_us": 990}
    assert summary["p50_us"] <= summary["p95_us"] <= summary["p99_us"]


def test_histogram_needs_samples():
    with pytest.raises(ValueError):
        LatencyHistogram().percentile(50)


def test_histogram_stores_one_entry_per_distinct_value():
    hist = LatencyHistogram([3.5, 1.25, 3.5])
    assert [hist.percentile(q) for q in (0, 50, 100)] == [1.25, 3.5, 3.5]
    for _ in range(10_000):
        hist.add(7)
    assert len(hist.counts) == 3
    assert hist.n == 10_003
    assert hist.percentile(100) == 7


def test_thousand_sequential_requests_histogram(served_model, sample_vocab):
    lines = [json.dumps(_request(i)) for i in range(1000)]
    out = []
    serve_lines(lines, served_model, sample_vocab, out.append)
    responses = [json.loads(l) for l in out]
    assert json.loads(out[-1]).get("summary", {}).get("n") == 1000
    body = [r for r in responses if "candidates" in r]
    assert len(body) == 1000
    assert all(len(r["candidates"]) == 5 for r in body)


def test_batch_window_zero_matches_unbatched_rank(served_model, sample_vocab):
    requests = [_request(i, task=t) for i, t in
                zip(range(30), ["item_masked", "carousel", "search"] * 10)]
    for req in requests:
        if req["task"] == "search":
            req["context"] = {"query": "velvet"}
        elif req["task"] == "carousel":
            req["context"] = {"surface": "home"}
    lines = [json.dumps(r) for r in requests]
    out = []
    serve_lines(lines, served_model, sample_vocab, out.append,
                batch_window_ms=0.0)
    unbatched = [score_request(r, served_model, sample_vocab) for r in requests]
    served = [json.loads(l) for l in out if "candidates" in json.loads(l)]
    for a, b in zip(served, unbatched):
        assert a["candidates"] == b["candidates"]  # bitwise: float64 + fixed pad


def test_batched_serving_is_rank_identical_and_saves_passes(served_model,
                                                            sample_vocab):
    requests = [_request(i) for i in range(24)]
    lines = [json.dumps(r) for r in requests]
    before = served_model.forward_calls
    out_batched = []
    serve_lines(lines, served_model, sample_vocab, out_batched.append,
                batch_window_ms=200.0, max_batch=8)
    batched_passes = served_model.forward_calls - before
    assert batched_passes <= len(requests)  # coalesced
    before = served_model.forward_calls
    out_single = []
    serve_lines(lines, served_model, sample_vocab, out_single.append,
                batch_window_ms=0.0)
    single_passes = served_model.forward_calls - before
    assert single_passes == len(requests)
    a = [json.loads(l) for l in out_batched if "candidates" in json.loads(l)]
    b = [json.loads(l) for l in out_single if "candidates" in json.loads(l)]
    assert [r["id"] for r in a] == [r["id"] for r in b]
    for x, y in zip(a, b):
        assert x["candidates"] == y["candidates"]


def test_malformed_request_gets_error_and_loop_continues(served_model,
                                                         sample_vocab):
    lines = [json.dumps(_request(0)), "{not json", json.dumps(_request(2)),
             json.dumps({"id": 3, "task": "item_masked"})]  # missing story
    out = []
    serve_lines(lines, served_model, sample_vocab, out.append)
    responses = [json.loads(l) for l in out]
    assert "candidates" in responses[0]
    assert "error" in responses[1]
    assert "candidates" in responses[2]
    assert "error" in responses[3]
    assert "summary" in responses[4]


def test_score_request_raises_on_bad_input(served_model, sample_vocab):
    with pytest.raises(ValueError):
        score_request({"task": "item_masked"}, served_model, sample_vocab)


def test_response_ids_are_catalog_ids(served_model, sample_vocab):
    response = score_request(_request(1, task="carousel",
                                      context={"surface": "home"}),
                             served_model, sample_vocab)
    ids = [c["id"] for c in response["candidates"]]
    assert set(ids) <= set(sample_vocab.carousel_token_of_id)


@pytest.mark.parametrize("surface", ["home", "browse", "autoplay"])
def test_carousel_reply_never_names_the_empty_carousel(served_model,
                                                       sample_vocab, surface):
    response = score_request(_request(1, task="carousel", top_k=100,
                                      context={"surface": surface}),
                             served_model, sample_vocab)
    ids = [c["id"] for c in response["candidates"]]
    assert sorted(ids) == [c.carousel_id for c in SAMPLE_CAROUSELS[1:]]


def _serve(lines, model, vocab, **kw):
    """Serve `lines`; check one reply per line plus a final summary, and
    return the replies."""
    out = []
    serve_lines(lines, model, vocab, out.append, **kw)
    records = [json.loads(l) for l in out]
    assert len(records) == len(lines) + 1
    assert records[-1]["summary"]["n"] == len(lines)
    return records[:-1]


def _alone(request, model, vocab):
    """`score_request` on one request, shaped like a served reply."""
    return json.loads(json.dumps(score_request(request, model, vocab)))


def _without_latency(reply):
    return {k: v for k, v in reply.items() if k != "latency_us"}


def test_latency_runs_from_arrival(served_model, sample_vocab):
    def paced():
        yield json.dumps(_request(0))
        time.sleep(0.05)
        yield json.dumps(_request(1))

    out = []
    serve_lines(paced(), served_model, sample_vocab, out.append,
                batch_window_ms=200.0)
    first, second, summary = [json.loads(l) for l in out]
    # the first request waited in the batching window for the second
    assert first["id"] == 0 and first["latency_us"] >= 50_000
    assert second["id"] == 1 and summary["summary"]["n"] == 2


def test_empty_request_stream_reports_empty_summary(served_model, sample_vocab):
    out = []
    assert serve_lines([], served_model, sample_vocab, out.append) is None
    assert [json.loads(l) for l in out] == [
        {"summary": {"n": 0, "p50_us": None, "p95_us": None, "p99_us": None,
                     "batches": 0, "batch_sizes": {}, "errors": {}}}]


def test_summary_counts_batches_and_errors_by_class(served_model,
                                                    sample_vocab):
    lines = [json.dumps(_request(0)), "{not json", json.dumps(_request(2)),
             json.dumps(_request(3, task="bogus")), "", json.dumps(_request(5)),
             json.dumps(_request(6, task="bogus")), "[1, 2", json.dumps(
                 _request(8)), json.dumps(_request(9))]
    out = []
    serve_lines(lines, served_model, sample_vocab, out.append,
                batch_window_ms=200.0, max_batch=4)
    summary = json.loads(out[-1])["summary"]
    assert summary["n"] == 10
    assert summary["batches"] == 3
    assert summary["batch_sizes"] == {"4": 2, "2": 1}
    # two lines that are not JSON, one empty line, two unknown tasks
    assert summary["errors"] == {"JSONDecodeError": 2, "ValueError": 1,
                                 "ValidationError": 2}
    replies = [json.loads(l) for l in out[:-1]]
    assert sum("error" in r for r in replies) == 5


def test_batch_of_refused_lines_runs_no_forward(served_model, sample_vocab):
    story_rule = _request(5)
    _empty_middle_session(story_rule)
    lines = [b"\xff\xfe", "", '{"id": 7', "[1, 2]",
             json.dumps(_request(4, task="bogus")), json.dumps(story_rule)]
    out = []
    before = served_model.forward_calls
    serve_lines(lines, served_model, sample_vocab, out.append,
                batch_window_ms=200.0)
    assert served_model.forward_calls == before
    *replies, last = [json.loads(line) for line in out]
    assert [_without_latency(reply) for reply in replies] == [
        {"error": "malformed request: 'utf-8' codec can't decode byte 0xff "
                  "in position 0: invalid start byte"},
        {"error": "malformed request: empty request line"},
        {"error": "malformed request: Expecting ',' delimiter: line 1 column "
                  "9 (char 8)"},
        {"id": None, "error": "request: expected a JSON object, got [1, 2]"},
        {"id": 4, "error": "request.task: expected one of 'item_masked', "
                           "'item_contextual', 'carousel', 'search', got "
                           "'bogus'"},
        {"id": 5, "error": "invalid story: sessions[1]: only the last "
                           "session may be empty"}]
    assert last["summary"]["batch_sizes"] == {"6": 1}
    assert last["summary"]["errors"] == {
        "UnicodeDecodeError": 1, "ValueError": 1, "JSONDecodeError": 1,
        "ValidationError": 2, "PromptError": 1}


@pytest.mark.parametrize("setting, message", [
    ({"max_batch": 0}, "max_batch: expected an integer of at least 1, got 0"),
    ({"max_batch": -3}, "max_batch: expected an integer of at least 1, got -3"),
    ({"batch_window_ms": float("nan")}, "batch_window_ms: .* got nan"),
    ({"batch_window_ms": -1.0}, "batch_window_ms: .* got -1.0"),
    ({"batch_window_ms": float("inf")}, "batch_window_ms: .* got inf"),
    ({"batch_window_ms": threading.TIMEOUT_MAX * 2000.0},
     "batch_window_ms: expected milliseconds from 0 to "
     f"{threading.TIMEOUT_MAX * 1000:.0f}, got"),
])
def test_batching_setting_that_would_crash_or_change_the_loop_is_refused(
        served_model, sample_vocab, setting, message):
    # an infinite window reaches queue.get(timeout=inf) once a line is
    # queued, which raises OverflowError and leaves that line unanswered:
    # the source stalls after its first line, and no line may be read
    read = []

    def stalling():
        read.append(0)
        yield json.dumps(_request(0))
        time.sleep(0.5)
        read.append(1)
        yield json.dumps(_request(1))

    out = []
    with pytest.raises(ValueError, match=f"^{message}"):
        serve_lines(stalling(), served_model, sample_vocab, out.append,
                    **setting)
    assert read == [] and out == []
    with pytest.raises(ValueError, match=f"^{message}"):
        serve_tcp(served_model, sample_vocab, _free_port(), **setting)


@pytest.mark.parametrize("count", [0, -1])
def test_connection_count_below_one_is_refused_before_the_port_is_bound(
        served_model, sample_vocab, monkeypatch, count):
    # a count below 1 served nothing and returned, as if it had served
    bound = []
    monkeypatch.setattr(socket, "create_server",
                        lambda *a, **kw: bound.append(a))
    with pytest.raises(ValueError, match="^max_connections: expected an "
                                         f"integer of at least 1, got {count}$"):
        serve_tcp(served_model, sample_vocab, _free_port(),
                  max_connections=count)
    assert bound == []


@pytest.mark.parametrize("port", [0, -1, 65536])
def test_port_outside_1_to_65535_is_refused_before_it_is_bound(
        served_model, sample_vocab, monkeypatch, port):
    # bind() refused these only after the model was loaded, naming no setting
    bound = []
    monkeypatch.setattr(socket, "create_server",
                        lambda *a, **kw: bound.append(a))
    with pytest.raises(ValueError, match="^port: expected a port from 1 to "
                                         f"65535, got {port}$"):
        serve_tcp(served_model, sample_vocab, port)
    assert bound == []


def test_model_vocabulary_smaller_than_vocabulary_is_refused(sample_vocab):
    cfg = ModelConfig(vocab_size=sample_vocab.size - 5, context_length=192,
                      layers=1, heads=2, model_dim=16, dtype="float64")
    out = []
    lines = [json.dumps(_request(0)), json.dumps(_request(1))]
    with pytest.raises(ValueError, match=f"size {sample_vocab.size - 5}.*"
                                         f"size {sample_vocab.size}"):
        serve_lines(lines, init_model(cfg, seed=2), sample_vocab, out.append)
    assert out == []


def test_failing_line_source_is_answered_summarized_and_raised(served_model,
                                                               sample_vocab):
    def broken():
        yield json.dumps(_request(0))
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    out, raised = [], []

    def run():
        try:
            serve_lines(broken(), served_model, sample_vocab, out.append)
        except UnicodeDecodeError as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "serve_lines hangs after its source raised"
    reply, summary = [json.loads(line) for line in out]
    assert reply["id"] == 0 and len(reply["candidates"]) == 5
    assert summary["summary"]["n"] == 1
    assert len(raised) == 1


def test_failed_reply_write_stops_the_reader(served_model, sample_vocab):
    # the reader fills the 1,024-line queue and blocks on it; the first
    # reply write fails as it does for a client that reset
    line = json.dumps(_request(0))
    read = []

    def lines():
        for i in range(3000):
            read.append(i)
            yield line

    def write(text):
        raise BrokenPipeError("client went away")

    before = set(threading.enumerate())
    with pytest.raises(BrokenPipeError):
        serve_lines(lines(), served_model, sample_vocab, write)
    started = [t for t in set(threading.enumerate()) - before
               if not t.name.startswith("storyrank-task")]
    deadline = time.monotonic() + 5
    for thread in started:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert [t.name for t in started if t.is_alive()] == []
    assert len(read) < 3000, "the reader kept reading after the loop ended"


# --- TCP clients on 127.0.0.1 ---------------------------------------------------

def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _connect(port: int) -> socket.socket:
    deadline = time.monotonic() + 10
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=10)
        except ConnectionRefusedError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def _exchange(port: int, payload: bytes) -> list[dict]:
    """Send `payload`, close the sending side, and read the records the
    server writes until it closes the connection."""
    with _connect(port) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def test_tcp_server_survives_bad_bytes_and_a_reset_client(served_model,
                                                          sample_vocab):
    port = _free_port()
    server = threading.Thread(target=serve_tcp, daemon=True,
                              args=(served_model, sample_vocab, port),
                              kwargs={"max_connections": 3})
    server.start()
    good = [_request(0), _request(1, task="search", context={"query": "fog"})]
    lines = [json.dumps(r).encode("utf-8") + b"\n" for r in good]
    # a line that is not UTF-8 gets its own error reply
    first = _exchange(port, lines[0] + b"\xff\n" + lines[1])
    assert len(first) == 4 and first[-1]["summary"]["n"] == 3
    assert first[-1]["summary"]["errors"] == {"UnicodeDecodeError": 1}
    assert "malformed request" in first[1]["error"]
    for reply, request in zip(first[::2], good):
        assert _without_latency(reply) == _alone(request, served_model,
                                                 sample_vocab)
    # a client that resets its connection ends that connection only
    reset = _connect(port)
    reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                     struct.pack("ii", 1, 0))
    reset.sendall(lines[0] * 3)
    reset.close()
    third = _exchange(port, b"".join(lines))
    assert [_without_latency(r) for r in third[:-1]] == [
        _alone(r, served_model, sample_vocab) for r in good]
    assert third[-1]["summary"]["n"] == 2
    server.join(timeout=10)
    assert not server.is_alive()


def test_non_object_request_gets_error_and_loop_continues(served_model,
                                                          sample_vocab):
    lines = ["[1,2,3]", json.dumps(_request(1)), "7", json.dumps(_request(3))]
    replies = _serve(lines, served_model, sample_vocab)
    assert "JSON object" in replies[0]["error"] and replies[0]["id"] is None
    assert "JSON object" in replies[2]["error"]
    assert [r["id"] for r in replies[1::2]] == [1, 3]
    assert all(len(r["candidates"]) == 5 for r in replies[1::2])


@pytest.mark.parametrize("top_k", ["abc", 2.5, True, None])
def test_non_integer_top_k_gets_error_and_loop_continues(served_model,
                                                         sample_vocab, top_k):
    lines = [json.dumps(_request(0, top_k=top_k)), json.dumps(_request(1))]
    replies = _serve(lines, served_model, sample_vocab)
    assert replies[0]["id"] == 0 and "top_k" in replies[0]["error"]
    assert len(replies[1]["candidates"]) == 5


def test_negative_top_k_is_rejected(served_model, sample_vocab):
    lines = [json.dumps(_request(0, top_k=-1)), json.dumps(_request(1, top_k=0))]
    replies = _serve(lines, served_model, sample_vocab)
    assert replies[0]["id"] == 0 and "top_k" in replies[0]["error"]
    assert replies[1]["candidates"] == []


SPLICED_CAROUSEL = ("after_dark_detours)|><|id(SYN201|The Lantern at Exit 13)|>"
                    "<|carousel(after_dark_detours")


_FIRST_EVENT = ("story", "sessions", 0, "events", 0)  # a search event


@pytest.mark.parametrize("task, context, field, expect", [
    pytest.param("search", {"query": "<|watch|>"}, None, "query",
                 id="reserved-query"),
    pytest.param("search", {"query": "fog  "}, None, "query",
                 id="trailing-spaces-query"),
    pytest.param("item_masked", {"hour": 99}, None, "hour", id="hour-99"),
    pytest.param("item_masked", {"hour": "3 <|search|> hour=3 lantern"}, None,
                 "hour", id="spliced-hour"),
    pytest.param("item_contextual",
                 {"surface": "home", "carousel": SPLICED_CAROUSEL}, None,
                 "carousel", id="spliced-carousel"),
    pytest.param("item_masked", {}, (_FIRST_EVENT + ("query",), "<|watch|>"),
                 "invalid story", id="story-reserved-query"),
    pytest.param("item_masked", {}, (_FIRST_EVENT + ("hour",), 77), "hour 77",
                 id="story-hour-77"),
    pytest.param("item_contextual",
                 {"surface": "search", "carousel": "after_dark_detours"}, None,
                 "carousel must be empty", id="carousel-on-search-surface"),
    pytest.param("carousel", {"surface": "search"}, None, "search surface",
                 id="carousel-task-on-search-surface"),
    # the last event is at 945000; int() would read both as 945010
    pytest.param("item_masked", {}, (("now",), "945010"),
                 "request.now: expected an integer or null", id="string-now"),
    pytest.param("item_masked", {}, (("now",), 945010.7),
                 "request.now: expected an integer or null", id="float-now"),
    pytest.param("item_masked", {}, (("now",), True),
                 "request.now: expected an integer or null", id="bool-now"),
])
def test_request_fields_held_to_story_rules(served_model, sample_vocab, task,
                                            context, field, expect):
    bad = _request(0, task=task, context=context)
    if field is not None:
        (*path, name), value = field
        target = bad
        for key in path:
            target = target[key]
        target[name] = value
    good = _request(1, task=task, context={"surface": "home",
                                           "carousel": "after_dark_detours",
                                           "query": "fog"})
    replies = _serve([json.dumps(bad), json.dumps(good)], served_model,
                     sample_vocab, batch_window_ms=200.0)
    assert replies[0]["id"] == 0 and "candidates" not in replies[0]
    assert expect in replies[0]["error"]
    assert _without_latency(replies[1]) == _alone(good, served_model,
                                                  sample_vocab)


def test_absent_or_null_now_is_the_last_event_time(served_model, sample_vocab):
    replies = [score_request(_request(0, **kw), served_model, sample_vocab)
               for kw in ({}, {"now": None}, {"now": 945000})]
    assert replies[0] == replies[1] == replies[2]


def _user_id_5(request):
    request["story"]["user_id"] = 5


def _attributes_object(request):
    request["story"]["attributes"] = {"ab": "cd"}


def _itemless_watch(request):
    del request["story"]["sessions"][0]["events"][2]["item_id"]


def _titleless_watch(request):
    del request["story"]["sessions"][0]["events"][2]["title"]


def _sessionless_no(request):
    request["story"]["sessionless"] = "no"


def _empty_middle_session(request):
    sessions = request["story"]["sessions"]
    sessions.insert(1, dict(sessions[1], events=[]))


@pytest.mark.parametrize("spoil, expect", [
    pytest.param(_itemless_watch,
                 "sessions[0].events[2]: watch event is missing item or duration",
                 id="itemless-watch"),
    pytest.param(_titleless_watch, "watch event has an item_id but no title",
                 id="titleless-watch"),
    pytest.param(_sessionless_no, "sessionless: expected true or false",
                 id="sessionless-no"),
    pytest.param(_empty_middle_session,
                 "sessions[1]: only the last session may be empty",
                 id="empty-middle-session"),
    pytest.param(_user_id_5, "user_id: expected a string", id="user-id-5"),
    # a dict iterates as its keys: it would read as the pair ("a", "b")
    pytest.param(_attributes_object, "attributes: expected a list",
                 id="attributes-object"),
])
def test_request_story_meets_the_stored_story_rules(served_model, sample_vocab,
                                                     spoil, expect):
    bad = _request(1)
    spoil(bad)
    good = [_request(0), _request(2, task="carousel")]
    replies = _serve([json.dumps(good[0]), json.dumps(bad), json.dumps(good[1])],
                     served_model, sample_vocab, batch_window_ms=200.0)
    assert replies[1]["id"] == 1 and "candidates" not in replies[1]
    assert expect in replies[1]["error"]
    assert [_without_latency(replies[i]) for i in (0, 2)] == \
        [_alone(request, served_model, sample_vocab) for request in good]


_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 30),
    st.floats(allow_nan=False, width=32), st.text(max_size=8),
    st.sampled_from(["<|watch|>", "fog  ", " fog", "lantern", "home", "search",
                     "after_dark_detours", SPLICED_CAROUSEL,
                     "3 <|search|> hour=3 lantern"]))


@st.composite
def _fuzzed_request_line(draw):
    request = _request(draw(st.integers(0, 9)), task=draw(st.sampled_from(
        ["item_masked", "item_contextual", "carousel", "search", "bogus"])))
    request["context"] = draw(st.dictionaries(
        st.sampled_from(["hour", "query", "surface", "carousel"]),
        _FUZZ_VALUES, max_size=4))
    if draw(st.booleans()):
        request["top_k"] = draw(_FUZZ_VALUES)
    for _ in range(draw(st.integers(0, 2))):
        session = request["story"]["sessions"][draw(st.integers(0, 1))]
        session["events"][0][draw(st.sampled_from(
            ["hour", "query", "carousel", "surface", "timestamp"]))] = \
            draw(_FUZZ_VALUES)
    return json.dumps(request)


# the classes an error reply may be counted under: a request that breaks a
# field table or a story rule, or names a token the vocabulary lacks, and a
# line that is not UTF-8, not JSON, JSON nested too deep, or empty
REPLY_ERRORS = {"ValidationError", "PromptError", "TokenizeError",
                "UnicodeDecodeError", "JSONDecodeError", "RecursionError",
                "ValueError"}


@given(st.lists(st.one_of(_fuzzed_request_line(), st.text(max_size=16)),
                max_size=4))
@settings(max_examples=40, deadline=None)
def test_fuzzed_requests_get_one_reply_each(served_model, sample_vocab, lines):
    good = _request(99)
    out = []
    serve_lines([*lines, json.dumps(good)], served_model, sample_vocab,
                out.append, batch_window_ms=200.0)
    *replies, last = [json.loads(line) for line in out]
    assert len(replies) == len(lines) + 1
    assert last["summary"]["n"] == len(lines) + 1
    errors = last["summary"]["errors"]
    assert set(errors) <= REPLY_ERRORS, errors
    # ValueError is the empty line's class only
    assert errors.get("ValueError", 0) == sum(not line.strip() for line in lines)
    for line, reply in zip(lines, replies):
        assert ("error" in reply) != ("candidates" in reply)
        if "candidates" in reply:
            assert _without_latency(reply) == _alone(json.loads(line),
                                                     served_model, sample_vocab)
    assert _without_latency(replies[-1]) == _alone(good, served_model,
                                                   sample_vocab)


_REQUEST_KEYS = ("extra", "tpo_k", "id", "context", "top_k", "now", "hour",
                 "surface", "carousel", "query", "sessionless")


@given(st.sampled_from([
    _request(0, context={"hour": 4}, now=945000),
    _request(1, task="item_contextual",
             context={"surface": "browse", "carousel": "after_dark_detours"}),
    _request(2, task="search", context={"query": "fog", "surface": "search"}),
    _request(3, task="carousel", context={"surface": "home"}),
]).flatmap(lambda request: mutated(request, new_keys=_REQUEST_KEYS)))
@settings(max_examples=300, deadline=None)
def test_mutated_request_is_refused_by_path_or_read_as_written(
        served_model, sample_vocab, request):
    errors = Counter()
    reply, = _score_batch([json.dumps(request)], served_model, sample_vocab,
                          errors)
    if "error" in reply:
        [name] = errors
        assert name in {"ValidationError", "PromptError", "TokenizeError"}, \
            (name, reply)
        if name == "ValidationError" and reply["error"].startswith("request"):
            assert_path_into({"request": request}, reply["error"])
        elif name == "ValidationError":  # a path from the story, as in a file
            assert_path_into(request["story"], reply["error"])
        return
    story = request["story"]
    if story.get("sessionless") is False:  # the default, written by omission
        story = {k: v for k, v in story.items() if k != "sessionless"}
    assert json_text(story_to_dict(story_from_dict(story))) == json_text(story)
    assert json_text(reply["id"]) == json_text(request.get("id"))
    assert reply["task"] == request["task"]
    assert len(reply["candidates"]) == min(request.get("top_k", 10), len(
        candidate_set(TaskKind(request["task"]), sample_vocab)))


@pytest.mark.parametrize("spoil, expect", [
    pytest.param(lambda r: r.update(task="tv"),
                 "request.task: expected one of 'item_masked', 'item_contextual', "
                 "'carousel', 'search', got 'tv'", id="task"),
    pytest.param(lambda r: r.update(tpo_k=5), "request.tpo_k: unknown key",
                 id="misspelt-key"),
    pytest.param(lambda r: r.update(context=[1]),
                 "request.context: expected a JSON object, got [1]", id="context-list"),
    pytest.param(lambda r: r.update(context={"hour": "3"}),
                 "request.context.hour: expected an integer, got '3'",
                 id="context-string-hour"),
    pytest.param(lambda r: r.update(context={"surface": "tv"}),
                 "request.context.surface: expected one of 'home', 'search', "
                 "'browse', 'autoplay', got 'tv'", id="context-surface"),
    pytest.param(lambda r: r.update(top_k=-(2 ** 70)),
                 "request.top_k: expected a non-negative", id="top-k"),
    pytest.param(lambda r: r["story"]["sessions"][0]["events"][0].update(
        timestamp="875400"), "sessions[0].events[0].timestamp: expected an "
        "integer, got '875400'", id="string-timestamp"),
    pytest.param(lambda r: r["story"]["sessions"][0]["events"][2].update(
        surface="tv"), "sessions[0].events[2].surface: expected one of",
        id="story-surface"),
    pytest.param(lambda r: r["story"]["sessions"][1].update(start_time="1"),
                 "sessions[1].start_time: expected an integer, got '1'",
                 id="string-start-time"),
    pytest.param(lambda r: r["story"].update(extra=1), "extra: unknown key",
                 id="story-key"),
])
def test_request_fields_fail_by_path(served_model, sample_vocab, spoil, expect):
    bad = _request(1)
    spoil(bad)
    errors = Counter()
    reply, = _score_batch([json.dumps(bad)], served_model, sample_vocab, errors)
    assert reply["id"] == 1 and reply["error"].startswith(expect)
    assert errors == {"ValidationError": 1}
