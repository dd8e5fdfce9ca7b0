"""HTTP substrate: messages and wire sizes, parser, file population."""

from .files import FilePopulation, population_cache_stats
from .messages import Request
from .parser import ParsedRequest, ParseError, RequestParser, render_response_head

__all__ = [
    "FilePopulation",
    "population_cache_stats",
    "Request",
    "ParsedRequest",
    "ParseError",
    "RequestParser",
    "render_response_head",
]
