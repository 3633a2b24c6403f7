"""HTTP request bounding: oversized bodies (413), request lines (414) and
header blocks (431) are refused with a JSON error and a close."""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import socket
import threading

import pytest

from repro.service import ResultServer, ResultStore, ServiceClient, ServiceError
from repro.service.server import MAX_HEADER_COUNT, MAX_LINE_BYTES


@pytest.fixture(scope="module")
def tiny_body_service(tmp_path_factory):
    """A live server capped at a 2 KiB request body."""
    store = ResultStore(tmp_path_factory.mktemp("limit-store"))
    loop = asyncio.new_event_loop()
    server = ResultServer(
        store, port=0, max_body_bytes=2048, quiet=True
    )
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10.0)
    yield server
    asyncio.run_coroutine_threadsafe(server.close(), loop).result(30.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10.0)


def test_oversized_body_is_refused_with_413_json(tiny_body_service):
    """A body past the cap answers 413 + JSON error and closes the socket."""
    connection = http.client.HTTPConnection("127.0.0.1", tiny_body_service.port, timeout=10)
    try:
        big = json.dumps({"spec": "x" * 4096})
        connection.request(
            "POST", "/v1/jobs", body=big, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        payload = json.loads(response.read())
        assert "2048-byte limit" in payload["error"]
    finally:
        connection.close()


def test_oversized_body_is_never_read(tiny_body_service):
    """The 413 arrives before the body is sent — nothing gets buffered."""
    # Send headers declaring a huge body, but no body bytes at all: the
    # server must answer from the Content-Length header alone.
    connection = http.client.HTTPConnection("127.0.0.1", tiny_body_service.port, timeout=10)
    try:
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", str(1 << 30))  # 1 GiB, never sent
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 413
    finally:
        connection.close()


def test_server_stays_healthy_after_413(tiny_body_service):
    """Refusing one oversized request doesn't wedge later connections."""
    client = ServiceClient(port=tiny_body_service.port)
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/jobs", {"spec": "x" * 4096})
    assert excinfo.value.status == 413
    assert client.health()["status"] == "ok"


def test_bodies_under_the_cap_flow_normally(tiny_body_service):
    """Requests under the cap behave exactly as before (here: a 400)."""
    client = ServiceClient(port=tiny_body_service.port)
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/jobs", {"spec": "tiny"})
    assert excinfo.value.status == 400  # parsed and rejected on content


def test_max_body_bytes_validation():
    store = ResultStore.__new__(ResultStore)  # never touched before raise
    with pytest.raises(ValueError, match="max_body_bytes"):
        ResultServer(store, max_body_bytes=0)


def raw_exchange(port: int, request: bytes):
    """Send raw request bytes; read until the server closes.

    Returns ``(status, headers, body)`` of the single response.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in header_lines)
    }
    return int(status_line.split()[1]), headers, body


OVERLONG = MAX_LINE_BYTES + 4464  # 70,000 bytes

HOSTILE_REQUESTS = {
    "request-line": (
        b"GET /" + b"a" * OVERLONG + b" HTTP/1.1\r\nHost: x\r\n\r\n",
        414,
        f"request line exceeds the {MAX_LINE_BYTES}-byte limit",
    ),
    "header-line": (
        b"GET /health HTTP/1.1\r\nHost: x\r\nX-Long: " + b"b" * OVERLONG + b"\r\n\r\n",
        431,
        f"a header line exceeds the {MAX_LINE_BYTES}-byte limit",
    ),
    "header-count": (
        b"GET /health HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % index for index in range(MAX_HEADER_COUNT + 50))
        + b"\r\n",
        431,
        f"more than {MAX_HEADER_COUNT} header lines",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_REQUESTS))
def test_hostile_request_head_is_refused_and_closed(tiny_body_service, caplog, case):
    """Over-long lines and too many headers get a 4xx JSON error and a close,
    log no unhandled asyncio exception, and leave the server serving."""
    request, status, message = HOSTILE_REQUESTS[case]
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        got, headers, body = raw_exchange(tiny_body_service.port, request)
        assert got == status
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert message in json.loads(body)["error"]
        # A fresh connection still answers; by then the refused
        # connection's handler has finished.
        assert ServiceClient(port=tiny_body_service.port).health()["status"] == "ok"
    assert [record for record in caplog.records if record.name == "asyncio"] == []


def test_header_count_at_the_cap_is_served(tiny_body_service):
    """Exactly ``MAX_HEADER_COUNT`` header lines is still a normal request."""
    request = (
        b"GET /health HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % index for index in range(MAX_HEADER_COUNT - 1))
        + b"Connection: close\r\n\r\n"
    )
    status, _, body = raw_exchange(tiny_body_service.port, request)
    assert status == 200
    assert json.loads(body)["status"] == "ok"


def _line_of(prefix: bytes, suffix: bytes, size: int) -> bytes:
    """``prefix + padding + suffix``, exactly ``size`` bytes long."""
    return prefix + b"p" * (size - len(prefix) - len(suffix)) + suffix


LINES_AT_THE_LIMIT = {
    "request-line": _line_of(b"GET /health?pad=", b" HTTP/1.1\r\n", MAX_LINE_BYTES)
    + b"Connection: close\r\n\r\n",
    "header-line": b"GET /health HTTP/1.1\r\n"
    + _line_of(b"X-Pad: ", b"\r\n", MAX_LINE_BYTES)
    + b"Connection: close\r\n\r\n",
}


@pytest.mark.parametrize("case", sorted(LINES_AT_THE_LIMIT))
def test_line_at_the_limit_is_served(tiny_body_service, case):
    """A line of exactly ``MAX_LINE_BYTES`` bytes, CRLF included, does not
    exceed the limit and is still a normal request."""
    status, _, body = raw_exchange(tiny_body_service.port, LINES_AT_THE_LIMIT[case])
    assert status == 200
    assert json.loads(body)["status"] == "ok"
