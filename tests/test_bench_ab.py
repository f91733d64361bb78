"""The verdict arithmetic, run order and layer report of tools/bench_ab.py, on fixed numbers."""

import importlib.util
import json
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


def _stub_runs(monkeypatch, layers_of):
    """Stub run_once: untraced runs give 1.0 metrics, traced ones ``layers_of(copy, seed)``."""
    calls = []

    def run_once(copy, workload, seed, seconds, trace=False):
        calls.append((seed, copy.name, trace))
        run = {"failed": 0, "attempted": 1, "digests": {}, "environment": {}}
        if trace:
            run["layers"] = layers_of(copy.name, seed)
        else:
            run["metrics"] = {name: 1.0 for name in bench_ab.GATED}
        return run

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    return calls


def _compare(seeds, trace):
    copies = {side: Path(side) for side in bench_ab.SIDES}
    gates = {name: {"better": "lower", "bound": 0.25} for name in bench_ab.GATED}
    return bench_ab.compare("ingest", seeds, copies, 1.0, gates, trace)[0]


def test_traced_runs_follow_each_seeds_untraced_pair_in_its_order(monkeypatch):
    calls = _stub_runs(monkeypatch, lambda side, seed: {})
    report = _compare(range(1, 4), trace=True)
    for seed, first, second in ((1, "change", "parent"), (2, "parent", "change"),
                                (3, "change", "parent")):
        assert [call for call in calls if call[0] == seed] == [
            (seed, first, False), (seed, second, False), (seed, first, True), (seed, second, True)]
    assert report["layers"] == {}


def test_without_trace_no_traced_run_and_no_layers(monkeypatch):
    calls = _stub_runs(monkeypatch, lambda side, seed: {})
    report = _compare(range(1, 3), trace=False)
    assert all(not trace for _, _, trace in calls)
    assert "layers" not in report


def test_layer_medians_and_paired_ratios(monkeypatch):
    # Per seed 1-3: the parent's power_stft self time 2.0, 2.2, 2.4 s and
    # 125 calls; the change's 1.0, 2.2, 3.6 s and 500 calls.  Only the
    # change records a new layer; only the parent an old one.
    self_s = {"parent": [2.0, 2.2, 2.4], "change": [1.0, 2.2, 3.6]}
    calls = {"parent": 125.0, "change": 500.0}

    def layers_of(side, seed):
        layers = {"dsp.power_stft": {"self_s": self_s[side][seed - 1], "calls": calls[side]}}
        layers["new" if side == "change" else "old"] = {"self_s": 0.5, "calls": 1.0}
        return layers

    _stub_runs(monkeypatch, layers_of)
    report = _compare(range(1, 4), trace=True)
    stft = report["layers"]["dsp.power_stft"]
    assert stft["self_s"]["parent"] == pytest.approx(2.2)
    assert stft["self_s"]["change"] == pytest.approx(2.2)
    assert stft["self_s"]["ratios"] == pytest.approx([0.5, 1.0, 1.5])
    assert stft["self_s"]["median_ratio"] == pytest.approx(1.0)
    assert stft["calls"] == {"parent": 125.0, "change": 500.0, "ratios": [4.0] * 3,
                             "median_ratio": 4.0}
    assert report["layers"]["new"]["calls"] == {"parent": 0.0, "change": 1.0,
                                                "ratios": [None] * 3, "median_ratio": None}
    assert report["layers"]["old"]["self_s"]["ratios"] == [0.0] * 3
    # The gated metrics come from the untraced runs alone.
    assert report["sides"]["change"]["peak_rss_mb"]["values"] == [1.0] * 3


def test_layer_stats_reads_a_traced_runs_spans(tmp_path):
    # Two traced requests: featurize spans of 3 s holding 2 s of mel (and
    # 1 s of power_stft within the mel), and one set-up span of 0.5 s.
    copy = tmp_path / "copy"
    (copy / "bench").mkdir(parents=True)
    (copy / "bench" / "spans.py").write_text((_PATH.parents[1] / "bench" / "spans.py").read_text())
    spans = [
        (1, "cli.main.featurize", 0.0, 3.0, None, "r1"),
        (2, "dsp.mel_spectrogram", 0.5, 2.5, 1, "r1"),
        (3, "dsp.power_stft", 1.0, 2.0, 2, "r1"),
        (4, "cli.main.featurize", 10.0, 13.0, None, "r3"),
        (5, "dsp.mel_spectrogram", 10.5, 12.5, 4, "r3"),
        (6, "dsp.power_stft", 11.0, 12.0, 5, "r3"),
        (7, "dsp.power_stft", 20.0, 20.5, None, "setup"),
    ]
    results = copy / ".bench_work" / "results"
    results.mkdir(parents=True)
    with open(results / "ingest-seed4-trace1.spans.jsonl", "w") as out:
        for span in spans:
            fields = dict(zip(bench_ab.SPAN_FIELDS, (*span, 1, None)))
            out.write(json.dumps(fields) + "\n")
    # Every time is a binary fraction, so the sums are exact.
    assert bench_ab.layer_stats(copy, "ingest", 4) == {
        "cli.main.featurize": {"self_s": 1.0, "calls": 1.0},
        "dsp.mel_spectrogram": {"self_s": 1.0, "calls": 1.0},
        "dsp.power_stft": {"self_s": 1.5, "calls": 2.0},
    }
