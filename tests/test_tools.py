"""The benchmark tools' pure parts, on synthetic records."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import summary  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]}


def _run(pair, side, ops, rss, attempted):
    metrics = {"ops_per_s": {"value": ops}, "peak_rss_mb": {"value": rss}}
    return {"exit": 0, "pair": pair, "seed": 1100 + pair, "side": side,
            "result": {"attempted": attempted, "metrics": metrics}}


def test_summary_of_two_pairs():
    runs = [
        _run(0, "parent", 100.0, 50.0, 1000), _run(0, "change", 130.0, 60.0, 1500),
        _run(1, "change", 150.0, 56.0, 1400), _run(1, "parent", 120.0, 52.0, 1300),
    ]
    record = {"workloads": {"roots": runs, "cli": [
        _run(0, "parent", 6.0, 30.0, 100),
        {"exit": 1, "pair": 0, "seed": 1100, "side": "change",
         "result": {"correct": False, "error": "boom"}},
    ]}}
    lines = summary(SPEC, record)
    assert lines[0].split() == ["roots,", "2", "pairs", "parent", "change", "ahead",
                                "change", "of", "medians"]
    # medians 110 -> 140 is +27.3%, better; 51 -> 58 MB is +13.7%, past its 0.1 bound
    assert lines[1].split() == ["ops_per_s", "110", "140", "2/2", "+27.3%"]
    assert lines[2].split() == ["peak_rss_mb", "51", "58", "0/2", "+13.7%", "WORSE",
                                "than", "bound", "10%"]
    assert lines[3].split() == ["attempted", "operations", "1150", "1450"]
    # per run: 50 and 40 MB per 1,000 for the parent, 40 and 40 for the change
    assert lines[4].split() == ["peak_rss_mb", "per", "1k", "ops", "45", "40"]
    # a failed run has no values, so the cli rows have no change side
    assert lines[6].split() == ["ops_per_s", "6", "-", "0/0", "-"]
    assert lines[9].split() == ["peak_rss_mb", "per", "1k", "ops", "300", "-"]
