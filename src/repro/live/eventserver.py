"""A real event-driven HTTP server on asyncio (the live NIO analogue).

One OS thread runs an asyncio event loop; every connection is a
non-blocking channel multiplexed by the loop's selector — structurally the
same design as the paper's NIO server (readiness selection + non-blocking
writes), with asyncio playing the role of ``java.nio``.

The server runs in a daemon thread so tests and examples can drive it
synchronously; it binds an ephemeral port unless told otherwise.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from ..http.parser import ParseError, RequestParser, render_response_head
from .docroot import DocRoot

__all__ = ["AsyncioEventServer"]


class AsyncioEventServer:
    """Single-threaded, selector-driven HTTP/1.1 server."""

    def __init__(
        self,
        docroot: DocRoot,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.docroot = docroot
        self.host = host
        self.port = port
        self.requests_served = 0
        self.connections_accepted = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start the event loop thread; returns once the port is bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="event-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("event server failed to start")

    def stop(self) -> None:
        """Stop the loop, close every open connection and join the thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot() -> None:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._started.set()

        loop.run_until_complete(boot())
        try:
            loop.run_forever()
        finally:
            self._shutdown(loop)

    def _shutdown(self, loop: asyncio.AbstractEventLoop) -> None:
        """Close the listener and every connection, then the loop.

        Handler tasks still waiting on an open connection are cancelled
        and run to completion, so each one's ``finally`` closes its
        writer (and the client sees EOF) while the loop can still run
        the transport's close.
        """
        server = self._server
        if server is not None:
            server.close()
        tasks = asyncio.all_tasks(loop)
        for task in tasks:
            task.cancel()
        if tasks:
            loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        if server is not None:
            loop.run_until_complete(server.wait_closed())
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    # -- per-connection protocol -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        parser = RequestParser()
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                try:
                    requests = parser.feed(data)
                except ParseError:
                    writer.write(
                        render_response_head(400, "Bad Request", 0, False)
                    )
                    break
                for request in requests:
                    if not await self._respond(writer, request):
                        return
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away; close our end below
        finally:
            writer.close()

    async def _respond(self, writer: asyncio.StreamWriter, request) -> bool:
        body = self.docroot.lookup(request.target)
        if body is None:
            writer.write(
                render_response_head(404, "Not Found", 0, request.keep_alive)
            )
        else:
            writer.write(
                render_response_head(200, "OK", len(body), request.keep_alive)
            )
            writer.write(body)
        # Non-blocking write + drain: backpressure returns control to the
        # loop, exactly like re-registering for writability in NIO.
        await writer.drain()
        self.requests_served += 1
        return request.keep_alive
