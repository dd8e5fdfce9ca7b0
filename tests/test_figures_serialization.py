"""Tests for figure-data serialisation."""

from repro.core import FigureData, Series


def make_fig():
    return FigureData(
        "fig1a",
        "NIO UP throughput",
        "clients",
        "replies/s",
        [
            Series("1 thread", [60, 600], [66.4, 650.0]),
            Series("4 threads", [60, 600], [66.4, 651.2]),
        ],
        notes="demo",
    )


def test_to_dict_fields():
    d = make_fig().to_dict()
    assert d["figure_id"] == "fig1a"
    assert d["series"][0]["label"] == "1 thread"
    assert d["series"][1]["y"] == [66.4, 651.2]
    assert d["notes"] == "demo"
