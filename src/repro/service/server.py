"""A dependency-free ``asyncio`` HTTP/1.1 host for the ASGI app.

The container ships no uvicorn, so ``repro serve`` needs its own way
of putting the application on a socket.  This is a deliberately small
HTTP/1.1 server — request line + headers, ``Content-Length`` bodies,
keep-alive — that bridges each request into one ASGI ``http`` scope.
It is not meant to outperform uvicorn; it is meant to exist on a bare
Python install and to exercise exactly the same application object the
in-process :class:`~repro.service.testclient.TestClient` and any real
ASGI server would.
"""

from __future__ import annotations

import asyncio
from typing import Optional
from urllib.parse import unquote, urlsplit

from ..obs import get_logger

logger = get_logger(__name__)

#: Refuse request bodies above this size (1 MiB), read whole before the
#: application sees them.  The service only ever receives single SQL
#: statements: generator logs stay under 1 KiB a statement, and the cap
#: leaves room for SkyServer statements with long ``IN`` lists.
MAX_BODY = 1024 * 1024
_MAX_HEADER_LINES = 200
#: Seconds an error answer waits for the client's unread input to end.
_LINGER_SECONDS = 2.0


class HTTPServer:
    """Serve one ASGI application over ``asyncio`` streams."""

    def __init__(self, app, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        """Bind and start accepting; returns the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("interest service listening on http://%s:%d",
                    self.host, self.port)
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- one connection ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._handle_request(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        except Exception:  # pragma: no cover - defensive
            logger.exception("connection handler failed")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    async def _handle_request(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> bool:
        headers: list[tuple[bytes, bytes]] = []
        try:
            # ``readline`` raises ValueError for a line longer than the
            # reader's limit (64 KiB).
            request_line = await reader.readline()
            if not request_line.strip():
                return False
            parts = request_line.decode("latin-1").split(" ", 2)
            if len(parts) != 3:
                await self._bare_response(reader, writer, 400,
                                          b"bad request line")
                return False
            method, target, version = parts
            for _ in range(_MAX_HEADER_LINES):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                headers.append((name.strip().lower(), value.strip()))
            else:
                await self._bare_response(reader, writer, 431,
                                          b"too many header fields")
                return False
        except ValueError:
            await self._bare_response(reader, writer, 431,
                                      b"line too long")
            return False

        length = 0
        keep_alive = version.strip().upper() != "HTTP/1.0"
        for name, value in headers:
            if name == b"content-length":
                try:
                    length = int(value)
                except ValueError:
                    length = -1
                if length < 0:
                    await self._bare_response(reader, writer, 400,
                                              b"bad content-length")
                    return False
            elif name == b"connection":
                keep_alive = value.lower() != b"close"
        if length > MAX_BODY:
            await self._bare_response(reader, writer, 413,
                                      b"body too large")
            return False
        body = await reader.readexactly(length) if length else b""

        try:
            split = urlsplit(target)
        except ValueError:  # e.g. an unclosed IPv6 bracket
            await self._bare_response(reader, writer, 400,
                                      b"bad request target")
            return False
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method.upper(),
            "path": unquote(split.path) or "/",
            "raw_path": split.path.encode("latin-1"),
            "query_string": split.query.encode("latin-1"),
            "headers": headers,
            "server": (self.host, self.port),
            "client": writer.get_extra_info("peername"),
            "scheme": "http",
        }

        messages = [{"type": "http.request", "body": body,
                     "more_body": False}]

        async def receive() -> dict:
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}

        state = {"status": 500, "headers": [], "chunks": []}

        async def send(message: dict) -> None:
            if message["type"] == "http.response.start":
                state["status"] = message["status"]
                state["headers"] = message.get("headers", [])
            elif message["type"] == "http.response.body":
                state["chunks"].append(message.get("body", b""))

        await self.app(scope, receive, send)

        payload = b"".join(state["chunks"])
        head = [f"HTTP/1.1 {state['status']} "
                f"{_REASONS.get(state['status'], 'OK')}".encode("latin-1")]
        names = set()
        for name, value in state["headers"]:
            names.add(bytes(name).lower())
            head.append(bytes(name) + b": " + bytes(value))
        if b"content-length" not in names:
            head.append(b"content-length: "
                        + str(len(payload)).encode("latin-1"))
        head.append(b"connection: "
                    + (b"keep-alive" if keep_alive else b"close"))
        writer.write(b"\r\n".join(head) + b"\r\n\r\n" + payload)
        await writer.drain()
        return keep_alive

    async def _bare_response(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             status: int, body: bytes) -> None:
        """Answer a request the host cannot read, then drop the rest of
        the client's input (for at most :data:`_LINGER_SECONDS`): a
        socket closed with unread input resets the connection, and the
        client would lose the answer."""
        reason = _REASONS.get(status, "Error")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"content-type: text/plain\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: close\r\n\r\n".encode("latin-1") + body)
        if writer.can_write_eof():
            writer.write_eof()
        await writer.drain()

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), _LINGER_SECONDS)
        except asyncio.TimeoutError:
            pass


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


async def run_server(app, host: str = "127.0.0.1", port: int = 8080,
                     ready: Optional[asyncio.Event] = None) -> None:
    """Start an :class:`HTTPServer` and serve until cancelled.

    ``ready`` (when given) is set once the socket is bound — the hook
    tests use to start talking to an ephemeral port.
    """
    server = HTTPServer(app, host, port)
    await server.start()
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
