"""Fuzzing the service's JSONL wire protocol.

Hypothesis drives one live :class:`CampaignService` with arbitrary
JSON values, undecodable bytes, oversized lines (past asyncio's 64 KiB
``readline`` limit), ill-typed submissions, out-of-order ops and
mid-stream disconnects, while another connection runs well-formed
campaigns.  Three properties must hold throughout:

* every complete request line gets exactly one reply;
* the dispatcher thread stays alive;
* the well-formed campaigns stream results byte-identical to a serial
  ``run_campaign``.

Every fuzzed ``submit`` carries a poisoned spec or option, so the
fuzzer never starts a campaign of its own (nor writes a file).
"""

from __future__ import annotations

import json
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ftpd import client1
from repro.injection import run_campaign
from repro.service import ServiceClient, SUBMIT_OPTIONS

from .test_service import (assert_identical, rebuild, request_reply,
                           ServiceHarness, SLICE, SPEC)

#: asyncio's default ``StreamReader`` limit.
READ_LIMIT = 64 * 1024

#: reply events that answer a request line (everything else a
#: connection receives streams from an earlier accepted request).
REPLIES = ("accepted", "rejected", "subscribed")


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    harness = ServiceHarness(
        tmp_path_factory.mktemp("proto") / "proto.sock")
    harness.start()
    yield harness
    harness.stop()


@pytest.fixture(scope="module")
def serial_campaign(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE)


# ----------------------------------------------------------------------
# The defects the fuzzer found, pinned

@pytest.mark.parametrize("request_value", [
    [], "x", 7, None,
    {"op": "submit", "spec": SPEC, "options": [1]},
    {"op": "submit", "spec": [], "options": {"max_points": 4}},
    {"op": "submit", "spec": {"encoding": 5}},
    {"op": "submit", "spec": SPEC, "options": {"retries": "2"}},
])
def test_malformed_requests_are_rejected(harness, request_value):
    reply = request_reply(harness.socket_path, request_value)
    assert reply["event"] == "rejected"
    assert harness.service._dispatcher.is_alive()


def test_oversized_line_gets_one_rejection(harness):
    padding = "x" * (2 * READ_LIMIT)
    lines = (json.dumps({"op": "submit", "pad": padding}) + "\n"
             + json.dumps({"op": "subscribe"}) + "\n").encode()
    with _connect(harness) as sock:
        sock.sendall(lines)
        replies = _read_replies(sock, 2)
    assert [reply["event"] for reply in replies] \
        == ["rejected", "subscribed"]
    assert "too long" in replies[0]["reason"]


# ----------------------------------------------------------------------
# Strategies

JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=10)

_OTHER = (st.lists(st.integers(), max_size=2)
          | st.dictionaries(st.text(max_size=3), st.integers(),
                            max_size=2))
_BAD_INT = st.text(max_size=4) | st.booleans() | st.floats() | _OTHER
_BAD_BOOL = st.integers() | st.text(max_size=4) | st.none() | _OTHER
_BAD_PATH = st.integers() | st.booleans() | st.just("") | _OTHER

#: for each wire option, values RunOptions must refuse.
BAD_OPTION = {
    "max_points": _BAD_INT | st.integers(max_value=-1),
    "retries": _BAD_INT | st.none() | st.integers(max_value=-1),
    "budget": _BAD_INT | st.none() | st.integers(max_value=0),
    "journal_fsync": _BAD_INT | st.integers(max_value=0),
    "audit_seed": _BAD_INT | st.none(),
    "audit_fraction": (st.text(max_size=4) | st.booleans() | st.none()
                       | _OTHER
                       | st.floats(min_value=1.0, exclude_min=True)
                       | st.floats(max_value=0.0, exclude_max=True)),
    "resume": _BAD_BOOL, "prune": _BAD_BOOL, "forensics": _BAD_BOOL,
    "journal_salvage": _BAD_BOOL, "full_restore": _BAD_BOOL,
    "journal": _BAD_PATH, "trace": _BAD_PATH, "metrics": _BAD_PATH,
    "profile": _BAD_PATH,
}
assert set(BAD_OPTION) == SUBMIT_OPTIONS

SPEC_FIELDS = {"daemon", "client", "encoding", "fault_model"}


@st.composite
def poisoned_submit(draw):
    """A submit request that must be rejected: an ill-typed value for
    a wire option, an option outside the whitelist, or a bad spec."""
    spec = dict(SPEC)
    options = {"max_points": draw(st.integers(0, 4))}
    poison = draw(st.sampled_from(("option", "unknown", "spec")))
    if poison == "option":
        name = draw(st.sampled_from(sorted(BAD_OPTION)))
        options[name] = draw(BAD_OPTION[name])
    elif poison == "unknown":
        name = draw(st.text(min_size=1, max_size=8).filter(
            lambda name: name not in SUBMIT_OPTIONS))
        options[name] = draw(JSON)
    else:
        spec = draw(JSON.filter(lambda value: not (
            isinstance(value, dict) and set(value) <= SPEC_FIELDS)))
    request = {"op": "submit", "spec": spec, "options": options}
    if draw(st.booleans()):
        request = {"op": "submit", "options": draw(JSON | _OTHER),
                   "spec": draw(JSON)}
        if isinstance(request["options"], dict) \
                and not set(request["options"]) - SUBMIT_OPTIONS:
            request["spec"] = [request["spec"]]   # keep it poisoned
    return json.dumps(request).encode()


def _is_submit(value):
    return isinstance(value, dict) and value.get("op") == "submit"


def _raw_line(data):
    """Arbitrary bytes that are not themselves a valid submission."""
    try:
        value = json.loads(data)
    except (ValueError, RecursionError):
        return data
    return b"[]" if _is_submit(value) else data


LINES = st.one_of(
    JSON.filter(lambda value: not _is_submit(value)).map(
        lambda value: json.dumps(value).encode()),
    st.binary(max_size=40).map(
        lambda data: _raw_line(data.replace(b"\n", b""))),
    poisoned_submit(),
    st.sampled_from([b'{"op": "subscribe"}', b'{"op": "status"}',
                     b"", b"{", b'{"op": "submit", "spec": {}']),
    st.integers(READ_LIMIT + 1, 3 * READ_LIMIT).map(
        lambda size: b'{"op": "submit", "pad": "'
        + b"x" * size + b'"}'),
)


def _expected_reply(line):
    if len(line) >= READ_LIMIT:
        return "rejected"
    try:
        value = json.loads(line)
    except (ValueError, RecursionError):
        return "rejected"
    if isinstance(value, dict) and value.get("op") == "subscribe":
        return "subscribed"
    return "rejected"


# ----------------------------------------------------------------------
# Socket helpers

def _connect(harness):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(harness.socket_path)
    return sock


def _read_replies(sock, count, buffer=None):
    """Read until *count* reply events arrived (telemetry streamed to a
    subscribed connection is skipped); returns them."""
    buffer = buffer if buffer is not None else bytearray()
    replies = []
    while len(replies) < count:
        newline = buffer.find(b"\n")
        if newline < 0:
            chunk = sock.recv(65536)
            assert chunk, "connection closed after %d of %d replies" \
                % (len(replies), count)
            buffer.extend(chunk)
            continue
        event = json.loads(bytes(buffer[:newline]))
        del buffer[:newline + 1]
        if event.get("event") in REPLIES:
            replies.append(event)
    return replies


def _read_to_eof(sock, data):
    """Every reply event left on the connection (after what *data*
    already buffers) until it closes."""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data.extend(chunk)
    events = [json.loads(line) for line in bytes(data).splitlines()]
    return [event for event in events if event.get("event") in REPLIES]


# ----------------------------------------------------------------------
# The fuzzer

def _campaigns_until(harness, stop, outputs, errors):
    """Run well-formed campaigns back to back until *stop* is set."""
    try:
        with ServiceClient(harness.socket_path) as client:
            while not stop.is_set() or not outputs:
                accepted = client.submit(SPEC, max_points=SLICE)
                outputs.append(client.collect(accepted["campaign"]))
    except Exception as error:        # surfaced by the main thread
        errors.append(error)


def test_protocol_fuzz(harness, serial_campaign):
    stop = threading.Event()
    outputs, errors = [], []
    runner = threading.Thread(target=_campaigns_until, daemon=True,
                              args=(harness, stop, outputs, errors))
    runner.start()

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(LINES, min_size=1, max_size=5),
           ending=st.sampled_from(("close", "truncated", "abort")),
           tail=JSON.map(lambda value: json.dumps(value).encode()))
    def exchange(lines, ending, tail):
        with _connect(harness) as sock:
            sock.sendall(b"".join(line + b"\n" for line in lines))
            if ending == "abort":
                return        # disconnect with replies unread
            buffer = bytearray()
            replies = _read_replies(sock, len(lines), buffer)
            assert [reply["event"] for reply in replies] \
                == [_expected_reply(line) for line in lines]
            if ending == "truncated":
                # a final line cut short mid-request, then EOF
                sock.sendall(tail[:max(1, len(tail) // 2)])
            sock.shutdown(socket.SHUT_WR)
            leftover = _read_to_eof(sock, buffer)
            assert len(leftover) <= (ending == "truncated")
            assert all(reply["event"] == "rejected"
                       for reply in leftover)
        assert harness.service._dispatcher.is_alive()

    try:
        exchange()
    finally:
        stop.set()
        runner.join(120)
    assert not errors, errors
    assert harness.service._dispatcher.is_alive()
    assert outputs
    for done, records in outputs:
        assert_identical(rebuild(done, records), serial_campaign)
