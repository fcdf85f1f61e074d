"""The benchmark tools' pure parts, on synthetic records, and the results
digest on a few real operations."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import earlier_workloads, summary  # noqa: E402
from bench_record import host_speed_factor  # noqa: E402
import results_digest  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]}


def _run(pair, side, ops, rss, attempted, factor=None):
    metrics = {"ops_per_s": {"value": ops}, "peak_rss_mb": {"value": rss}}
    return {"exit": 0, "host_speed_factor": factor, "pair": pair, "seed": 1100 + pair,
            "side": side, "result": {"attempted": attempted, "metrics": metrics}}


def test_summary_of_two_pairs():
    runs = [
        _run(0, "parent", 100.0, 50.0, 1000, 1.1), _run(0, "change", 130.0, 60.0, 1500, 1.3),
        _run(1, "change", 150.0, 56.0, 1400, 1.5), _run(1, "parent", 120.0, 52.0, 1300, 1.2),
    ]
    record = {"workloads": {"roots": runs, "cli": [
        _run(0, "parent", 6.0, 30.0, 100),
        {"exit": 1, "host_speed_factor": None, "pair": 0, "seed": 1100, "side": "change",
         "result": {"correct": False, "error": "boom"}},
    ]}}
    lines = summary(SPEC, record)
    assert lines[0].split() == ["roots,", "2", "pairs", "parent", "change", "ahead",
                                "change", "of", "medians"]
    # medians 110 -> 140 is +27.3%, better; 51 -> 58 MB is +13.7%, past its 0.1 bound
    assert lines[1].split() == ["ops_per_s", "110", "140", "2/2", "+27.3%"]
    # the parent's quartiles are 30 apart, as far as the medians: no gain
    assert lines[2].split() == ["quartiles", "parent", "95/110/125", "change", "125/140/155",
                                "gain", "rule", "fails"]
    assert lines[3].split() == ["peak_rss_mb", "51", "58", "0/2", "+13.7%", "WORSE",
                                "than", "bound", "10%"]
    assert lines[4].split() == ["quartiles", "parent", "49.5/51/52.5", "change", "55/58/61",
                                "gain", "rule", "fails"]
    assert lines[5].split() == ["attempted", "operations", "1150", "1450"]
    # per run: 50 and 40 MB per 1,000 for the parent, 40 and 40 for the change
    assert lines[6].split() == ["peak_rss_mb", "per", "1k", "ops", "45", "40"]
    assert lines[7].split() == ["host", "speed", "factor", "1.15", "1.4"]
    # a failed run has no values, so the cli rows have no change side; the
    # parent's run printed no factor
    assert lines[9].split() == ["ops_per_s", "6", "-", "0/0", "-"]
    assert lines[10].split() == ["quartiles", "parent", "-", "change", "-", "gain", "rule", "-"]
    assert lines[14].split() == ["peak_rss_mb", "per", "1k", "ops", "300", "-"]
    assert lines[15].split() == ["host", "speed", "factor", "-", "-"]


@pytest.mark.parametrize("behind, crashed, rule",
                         [(1, 0, "holds"), (2, 0, "fails"), (0, 2, "fails"), (0, 1, "fails")])
def test_gain_rule_needs_nine_of_ten_pairs(behind, crashed, rule):
    # the change's median is 20 above the parent's, whose quartiles are
    # 5.5 apart; it falls behind in the first `behind` pairs, and its runs
    # in the last `crashed` pairs fail, which leaves them out of `ahead`
    # but not out of the pairs run: a single failed run is one more than
    # the parent's none
    runs = []
    for pair in range(10):
        change = 90.0 if pair < behind else 120.0 + pair
        runs.append(_run(pair, "parent", 100.0 + pair, 50.0, 1000))
        if pair >= 10 - crashed:
            runs.append({"exit": 1, "host_speed_factor": None, "pair": pair, "seed": 1100 + pair,
                         "side": "change", "result": {"correct": False, "error": "boom"}})
        else:
            runs.append(_run(pair, "change", change, 50.0, 1000))
    lines = summary(SPEC, {"workloads": {"interp": runs}})
    assert lines[1].split()[3] == f"{10 - behind - crashed}/{10 - crashed}"
    assert lines[2].split()[-3:] == ["gain", "rule", rule]
    assert lines[4].split()[-1] == "fails"  # peak_rss_mb is equal in every pair


def test_earlier_workloads_kept_for_the_same_commits(tmp_path):
    path = tmp_path / "BENCH_7_pairs.json"
    record = {"parent_sha": "a" * 40, "change_sha": "b" * 40, "seconds": 20, "workloads": {}}
    assert earlier_workloads(path, record) == {}
    roots, cli = [_run(0, "parent", 400.0, 40.0, 4000)], [_run(0, "parent", 6.0, 30.0, 100)]
    path.write_text(json.dumps({**record, "workloads": {"roots": roots, "cli": cli}}))
    # a run of roots alone replaces roots and keeps cli
    record["workloads"] = earlier_workloads(path, record)
    record["workloads"]["roots"] = [_run(0, "change", 450.0, 41.0, 4500)]
    assert record["workloads"] == {"roots": [_run(0, "change", 450.0, 41.0, 4500)], "cli": cli}
    for key, other in (("parent_sha", "c" * 40), ("change_sha", "c" * 40), ("seconds", 10)):
        with pytest.raises(ValueError, match="BENCH_7_pairs.json"):
            earlier_workloads(path, {**record, key: other})


def test_host_speed_factor_from_run_output():
    out = ("workload interp  seed 1  closed loop, 1 client\n"
           "ops_per_s            233.0000 1/s\n"
           "host speed factor      1.2345 (slice time / reference; raw wall ops_per_s 190.1)\n"
           'census {"a": 1}\n{"correct": true}\n')
    assert host_speed_factor(out) == 1.2345
    # a traced run prints no factor
    assert host_speed_factor('census {}\n{"correct": true}\n') is None


def test_results_digest_is_deterministic_and_sees_one_changed_result(monkeypatch):
    from perfbench import wl_interp

    first = results_digest.digests("interp", [1, 2], 4)
    assert set(first) == {1, 2, "all"}
    assert results_digest.digests("interp", [1, 2], 4) == first
    run, calls = wl_interp.run, []

    def one_changed(op):  # flips the verdict of the second operation of seed 2
        calls.append(op)
        ok, detail = run(op)
        return (not ok, detail) if len(calls) == 6 else (ok, detail)

    monkeypatch.setattr(wl_interp, "run", one_changed)
    second = results_digest.digests("interp", [1, 2], 4)
    assert second[1] == first[1]
    assert second[2] != first[2] and second["all"] != first["all"]


# The results of the first 20 timed operations of seeds 1-2, pinned.  A change
# that alters a result on purpose updates these and says so in CHANGES.md.
# roots is left out: its spectral radii come from numpy's LAPACK build.
PINNED_DIGESTS = {
    "interp": "dbdb7bad9bc27404d7303ebfab375c8592e1ca54a72d9549c7f01bed9cee63ea",
    "kernel": "9e6b6c997d02436b4ac59db99fcdf3a68ee54059a52dc4c94f3b7d519a889dfe",
}


@pytest.mark.parametrize("workload", sorted(PINNED_DIGESTS))
def test_results_digest_is_pinned(workload):
    assert results_digest.digests(workload, [1, 2], 20)["all"] == PINNED_DIGESTS[workload]


def test_results_digest_expect_exits_1_on_a_mismatch_only(capsys):
    pinned = PINNED_DIGESTS["interp"]
    argv = ["--workload", "interp", "--seeds", "1-2", "--ops", "20", "--expect"]
    assert results_digest.main(argv + [pinned]) == 0
    assert f"interp all: {pinned}" in capsys.readouterr().out
    assert results_digest.main(argv + ["0" * 64]) == 1
    captured = capsys.readouterr()
    assert f"interp all: {pinned}" in captured.out
    assert "expected all: " + "0" * 64 in captured.err
