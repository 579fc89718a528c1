"""The stdlib asyncio HTTP/1.1 host, exercised over a real socket."""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import HTTPServer, ServiceConfig, create_app
from repro.service.server import MAX_BODY


async def _in_executor(func, *args):
    return await asyncio.get_running_loop().run_in_executor(
        None, func, *args)


def _get(port, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return response.status, response.read()


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"content-type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def test_round_trip_over_socket():
    app = create_app(ServiceConfig(warmup=0, min_pts=2,
                                   min_cluster_size=1),
                     registry=MetricsRegistry())

    async def scenario():
        server = HTTPServer(app, "127.0.0.1", 0)
        port = await server.start()
        try:
            status, body = await _in_executor(
                _post, port, "/queries",
                {"sql": "SELECT * FROM PhotoObjAll "
                        "WHERE ra BETWEEN 1 AND 2",
                 "user": "u1"})
            assert status == 200
            assert body["status"] == "clustered"
            status, raw = await _in_executor(_get, port, "/healthz")
            assert status == 200
            assert json.loads(raw)["ingested"] == 1
            status, raw = await _in_executor(_get, port, "/metrics")
            assert status == 200
            assert b"repro_service_requests_total" in raw
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_error_statuses_over_socket():
    app = create_app(ServiceConfig(warmup=0),
                     registry=MetricsRegistry())

    def expect_error(port, path):
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=10):
                pytest.fail("expected an HTTP error")
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    async def scenario():
        server = HTTPServer(app, "127.0.0.1", 0)
        port = await server.start()
        try:
            code, body = await _in_executor(
                expect_error, port, "/definitely-not-a-route")
            assert (code, body) == (404, {"error": "not found"})
            code, body = await _in_executor(
                expect_error, port, "/clusters/xyz")
            assert code == 400
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_keep_alive_reuses_connection():
    """Two requests down one connection (HTTP/1.1 keep-alive)."""
    app = create_app(ServiceConfig(warmup=0),
                     registry=MetricsRegistry())

    async def scenario():
        server = HTTPServer(app, "127.0.0.1", 0)
        port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            for _ in range(2):
                writer.write(b"GET /healthz HTTP/1.1\r\n"
                             b"host: test\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"200" in status_line
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                body = await reader.readexactly(length)
                assert json.loads(body)["status"] == "ok"
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()

    asyncio.run(scenario())


async def _raw_exchange(port, request: bytes) -> bytes:
    """Send ``request`` down a fresh connection; everything the server
    answers before it closes the connection.  A server that waits for
    more input fails the exchange after 10 s instead of hanging it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 10.0)
    finally:
        writer.close()
        await writer.wait_closed()


@pytest.mark.parametrize("request_bytes, status, reason", [
    (b"POST /queries HTTP/1.1\r\ncontent-length: -5\r\n\r\n",
     b"400", b"bad content-length"),
    (b"GET /" + b"a" * (1 << 17) + b" HTTP/1.1\r\n\r\n",
     b"431", b"line too long"),
    (b"GET /healthz HTTP/1.1\r\nx-long: " + b"a" * (1 << 17) + b"\r\n\r\n",
     b"431", b"line too long"),
    (b"GET http://[::1/ HTTP/1.1\r\n\r\n",
     b"400", b"bad request target"),
    (b"POST /queries HTTP/1.1\r\ncontent-length: 1048577\r\n\r\n",
     b"413", b"body too large"),
], ids=["negative-length", "long-request-line", "long-header-line",
        "unparseable-target", "oversized-body"])
def test_malformed_framing_is_answered(request_bytes, status, reason):
    """Framing the host cannot read is answered with a status, not a
    dropped connection."""
    app = create_app(ServiceConfig(warmup=0),
                     registry=MetricsRegistry())

    async def scenario():
        server = HTTPServer(app, "127.0.0.1", 0)
        port = await server.start()
        try:
            answer = await _raw_exchange(port, request_bytes)
        finally:
            await server.stop()
        assert answer.split(b"\r\n", 1)[0].split(b" ")[1] == status
        assert answer.endswith(reason)

    asyncio.run(scenario())


def test_body_at_the_cap_is_read():
    """A body of exactly :data:`MAX_BODY` bytes reaches the app."""
    app = create_app(ServiceConfig(warmup=0),
                     registry=MetricsRegistry())
    payload = json.dumps({"sql": "SELECT * FROM PhotoObjAll "
                                 "WHERE ra BETWEEN 1 AND 2"}).encode()
    body = payload + b" " * (MAX_BODY - len(payload))
    request = (b"POST /queries HTTP/1.1\r\n"
               b"content-length: " + str(len(body)).encode() + b"\r\n"
               b"connection: close\r\n\r\n" + body)

    async def scenario():
        server = HTTPServer(app, "127.0.0.1", 0)
        port = await server.start()
        try:
            answer = await _raw_exchange(port, request)
        finally:
            await server.stop()
        head, _, content = answer.partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == b"200"
        assert json.loads(content)["status"] == "clustered"

    assert len(body) == MAX_BODY == 1 << 20
    asyncio.run(scenario())
