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
import time
from typing import Optional

from ..http.parser import ParseError, RequestParser, render_response_head
from ..obs import Registry, SeriesRecorder, SpanRecorder, derive_trace_id
from ..overload import OverloadControl, Signals
from .docroot import DocRoot

__all__ = ["AsyncioEventServer", "METRICS_PATH"]

#: Reserved target serving Prometheus-style text exposition.
METRICS_PATH = "/-/metrics"


class AsyncioEventServer:
    """Single-threaded, selector-driven HTTP/1.1 server.

    Accepts the same :class:`~repro.overload.OverloadControl` as the
    simulated servers: the admission policy is consulted per accepted
    connection (shed = close immediately), with the count of concurrently
    open connections against ``max_connections`` as the pressure signal.
    """

    def __init__(
        self,
        docroot: DocRoot,
        host: str = "127.0.0.1",
        port: int = 0,
        overload: Optional[OverloadControl] = None,
        max_connections: int = 1024,
        registry: Optional[Registry] = None,
        recorder: Optional[SpanRecorder] = None,
        series: Optional[SeriesRecorder] = None,
    ):
        self.docroot = docroot
        self.host = host
        self.port = port
        self.overload = overload
        self.max_connections = max_connections
        self.requests_served = 0
        self.connections_accepted = 0
        self.requests_shed = 0
        self.open_connections = 0
        #: Metrics registry backing the /-/metrics endpoint; shares the
        #: histogram/counter implementation with the simulation.
        self.registry = registry if registry is not None else Registry()
        #: Optional span recorder (wall-clock spans per connection).
        self.recorder = recorder
        #: Optional windowed time series (binned on seconds since
        #: start); its exposition is appended to /-/metrics, so a live
        #: scrape yields the same series the cluster figures plot.
        self.series = series
        self._t0 = time.monotonic()
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
        # Deterministic causal trace id per connection ordinal — the
        # same derivation the cluster tracer uses for simulated runs.
        trace_id = derive_trace_id(0, "live", self.connections_accepted)
        self.registry.counter("connections_accepted").inc()
        if self.overload is not None:
            signals = Signals(
                queue_depth=self.open_connections,
                queue_capacity=self.max_connections,
                pressure=min(
                    1.0, self.open_connections / self.max_connections
                ),
            )
            if not self.overload.admission.on_arrival(
                time.monotonic(), signals
            ):
                self.requests_shed += 1
                self.registry.counter("connections_shed").inc()
                writer.close()
                return
        self.open_connections += 1
        self.registry.gauge("open_connections").add(1)
        span = self.recorder.open() if self.recorder is not None else None
        if span is not None:
            span.mark("accept")
        status = "closed"
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
                    keep = await self._respond(
                        writer, request, span, trace_id
                    )
                    if not keep:
                        return
        except (ConnectionResetError, BrokenPipeError):
            status = "reset"
        finally:
            self.open_connections -= 1
            self.registry.gauge("open_connections").add(-1)
            if self.recorder is not None:
                self.recorder.finish(span, status)
            writer.close()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        request,
        span=None,
        trace_id: str = "",
    ) -> bool:
        headers = {"X-Trace-Id": trace_id} if trace_id else None
        if request.target == METRICS_PATH:
            text = self.registry.prometheus_text()
            if self.series is not None:
                text += self.series.exposition_text()
            body = text.encode()
            writer.write(
                render_response_head(
                    200, "OK", len(body), request.keep_alive,
                    extra_headers=headers,
                )
            )
            writer.write(body)
            await writer.drain()
            return request.keep_alive
        t0 = time.monotonic()
        if span is not None:
            span.mark("svc_start")
        body = self.docroot.lookup(request.target)
        if span is not None:
            span.mark("svc_end")
            span.mark("tx_start")
        if body is None:
            writer.write(
                render_response_head(
                    404, "Not Found", 0, request.keep_alive,
                    extra_headers=headers,
                )
            )
            self.registry.counter("requests_not_found").inc()
        else:
            writer.write(
                render_response_head(
                    200, "OK", len(body), request.keep_alive,
                    extra_headers=headers,
                )
            )
            writer.write(body)
        # Non-blocking write + drain: backpressure returns control to the
        # loop, exactly like re-registering for writability in NIO.
        await writer.drain()
        if span is not None:
            span.mark("reply_done")
        elapsed = time.monotonic() - t0
        self.requests_served += 1
        self.registry.counter("requests_served").inc()
        self.registry.histogram("request_latency").observe(elapsed)
        if self.series is not None:
            t = time.monotonic() - self._t0
            self.series.inc("replies", t)
            self.series.observe("response_time_s", t, elapsed)
        return request.keep_alive
