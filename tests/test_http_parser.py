"""Unit tests for the incremental HTTP/1.x request parser."""

import pytest

from repro.http import ParseError, RequestParser, render_response_head


def parse_one(raw: bytes):
    reqs = RequestParser().feed(raw)
    assert len(reqs) == 1
    return reqs[0]


def test_simple_get():
    req = parse_one(b"GET /index.html HTTP/1.1\r\nHost: sut\r\n\r\n")
    assert req.method == "GET"
    assert req.target == "/index.html"
    assert req.version == "HTTP/1.1"
    assert req.headers["host"] == "sut"


def test_header_names_lowercased_and_values_stripped():
    req = parse_one(
        b"GET / HTTP/1.1\r\nHoSt:   example.org  \r\nX-Thing: a b\r\n\r\n"
    )
    assert req.headers["host"] == "example.org"
    assert req.headers["x-thing"] == "a b"


def test_incremental_feeding_byte_by_byte():
    raw = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
    parser = RequestParser()
    collected = []
    for i in range(len(raw)):
        collected.extend(parser.feed(raw[i:i + 1]))
    assert len(collected) == 1
    assert collected[0].target == "/a"
    assert parser.buffered_bytes == 0


def test_pipelined_requests_in_one_packet():
    raw = (
        b"GET /1 HTTP/1.1\r\nHost: h\r\n\r\n"
        b"GET /2 HTTP/1.1\r\nHost: h\r\n\r\n"
        b"GET /3 HTTP/1.1\r\nHost: h\r\n\r\n"
    )
    reqs = RequestParser().feed(raw)
    assert [r.target for r in reqs] == ["/1", "/2", "/3"]


def test_bare_lf_framing_tolerated():
    req = parse_one(b"GET /lf HTTP/1.0\nHost: h\n\n")
    assert req.target == "/lf"


def test_post_with_body():
    parser = RequestParser()
    reqs = parser.feed(
        b"POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
    )
    assert len(reqs) == 1
    assert reqs[0].body == b"hello"


def test_body_split_across_packets():
    parser = RequestParser()
    assert parser.feed(b"POST /s HTTP/1.1\r\nContent-Length: 6\r\n\r\nhel") == []
    reqs = parser.feed(b"lo!")
    assert len(reqs) == 1
    assert reqs[0].body == b"hello!"


def test_request_after_body_parses():
    parser = RequestParser()
    reqs = parser.feed(
        b"POST /s HTTP/1.1\r\nContent-Length: 2\r\n\r\nokGET /next HTTP/1.1\r\n\r\n"
    )
    assert [r.target for r in reqs] == ["/s", "/next"]


@pytest.mark.parametrize(
    "raw",
    [
        b"BOGUS / HTTP/1.1\r\n\r\n",  # unknown method
        b"GET /\r\n\r\n",  # missing version
        b"GET / FTP/1.0\r\n\r\n",  # bad protocol
        b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n",  # malformed header
        b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",  # bad length
        b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",  # negative length
    ],
)
def test_malformed_requests_raise(raw):
    with pytest.raises(ParseError):
        RequestParser().feed(raw)


def test_oversized_head_rejected():
    parser = RequestParser()
    with pytest.raises(ParseError):
        parser.feed(b"GET /" + b"a" * 20000)


def test_keep_alive_semantics():
    http11 = parse_one(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n")
    assert http11.keep_alive
    http11_close = parse_one(
        b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    assert not http11_close.keep_alive
    http10 = parse_one(b"GET / HTTP/1.0\r\nHost: h\r\n\r\n")
    assert not http10.keep_alive
    http10_ka = parse_one(
        b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
    )
    assert http10_ka.keep_alive


def test_render_response_head_roundtrip_fields():
    head = render_response_head(200, "OK", 1234, keep_alive=True)
    text = head.decode("latin-1")
    assert text.startswith("HTTP/1.1 200 OK\r\n")
    assert "Content-Length: 1234" in text
    assert "Connection: keep-alive" in text
    assert text.endswith("\r\n\r\n")
    head = render_response_head(404, "Not Found", 0, keep_alive=False)
    assert b"Connection: close" in head
