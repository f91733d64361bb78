"""The verdict arithmetic and run order of tools/bench_ab.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

# Parent quartiles 98 and 102 (an IQR of 4) around a median of 100.
PARENT = [96.0, 98.0, 98.0, 99.5, 100.0, 100.0, 101.0, 102.0, 102.0, 106.0]


def verdict(change, wins, better="lower", bound=0.25, parent=PARENT):
    summaries = bench_ab.summary(parent), bench_ab.summary(change)
    return bench_ab.verdict(*summaries, wins, len(parent), better, bound)


def test_fixture_quartiles():
    summary = bench_ab.summary(PARENT)
    assert (summary["median"], summary["q1"], summary["q3"]) == (100.0, 98.0, 102.0)


@pytest.mark.parametrize(
    "median, wins, met",
    [
        (95.9, 9, True),    # a gap of 4.1 beats the IQR of 4, in 9 of 10 pairs
        (95.9, 8, False),   # 8 of 10 pairs are too few
        (96.0, 10, False),  # a gap equal to the IQR is not more than it
        (50.0, 10, True),
        (104.1, 9, False),  # worse, however often it won a pair
    ],
)
def test_claim_rule_for_a_lower_is_better_metric(median, wins, met):
    assert verdict([median] * 10, wins)["claim_rule_met"] is met


@pytest.mark.parametrize("median, wins, met", [(104.1, 9, True), (104.0, 10, False),
                                               (95.9, 10, False)])
def test_claim_rule_for_a_higher_is_better_metric(median, wins, met):
    assert verdict([median] * 10, wins, better="higher")["claim_rule_met"] is met


def test_claim_rule_needs_nine_tenths_of_any_pair_count():
    parent = [100.0, 100.0, 100.0, 100.0, 100.0]
    assert verdict([90.0] * 5, 5, parent=parent)["claim_rule_met"]
    assert not verdict([90.0] * 5, 4, parent=parent)["claim_rule_met"]


@pytest.mark.parametrize(
    "better, median, within",
    [
        ("lower", 125.0, True),    # 25% worse is at the bound
        ("lower", 125.5, False),
        ("lower", 60.0, True),     # better is always within
        ("higher", 75.0, True),
        ("higher", 74.5, False),
        ("higher", 140.0, True),
    ],
)
def test_within_bound_is_relative_to_the_parent_median(better, median, within):
    assert verdict([median] * 10, 0, better=better)["within_bound"] is within


def test_run_order_follows_the_seed_not_its_place_in_the_series(monkeypatch):
    calls = []

    def run_once(copy, workload, seed, seconds):
        calls.append((seed, copy.name))
        metrics = {name: 1.0 for name in bench_ab.GATED}
        return {"metrics": metrics, "failed": 0, "attempted": 1, "digests": {},
                "environment": {}}

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    copies = {side: Path(side) for side in bench_ab.SIDES}
    gates = {name: {"better": "lower", "bound": 0.25} for name in bench_ab.GATED}
    firsts = {}
    for seeds in (range(3, 6), range(4, 7)):
        calls.clear()
        report, _ = bench_ab.compare("search", seeds, copies, 1.0, gates)
        order = {seed: [side for s, side in calls if s == seed] for seed in seeds}
        for pair in report["pairs"]:
            assert order[pair["seed"]][0] == pair["first"]
            assert firsts.setdefault(pair["seed"], pair["first"]) == pair["first"]
    assert [firsts[seed] for seed in range(3, 7)] == ["change", "parent", "change", "parent"]
