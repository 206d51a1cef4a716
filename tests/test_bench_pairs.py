"""The summary maths of tools/bench_pairs.py, on fixed numbers; nothing is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

E2E = [{"name": "scaled_call_s.p50", "better": "lower"},
       {"name": "scaled_chars_per_s", "better": "higher"}]


def pair_run(workload, side, pair, call_s, chars_per_s, failed=0, attempted=10, correct=True):
    metrics = {"scaled_call_s.p50": {"value": call_s, "unit": "s"},
               "scaled_chars_per_s": {"value": chars_per_s, "unit": "chars/s"}}
    return {"purpose": "pairs", "workload": workload, "seed": 7, "side": side, "pair": pair,
            "returncode": 0, "result": {"metrics": metrics, "failed": failed,
                                        "attempted": attempted, "correct": correct}}


def test_spread_uses_inclusive_quartiles():
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_pairs.spread([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_compare_counts_wins_in_the_better_direction():
    parent = [10.0, 10.0, 10.0, 10.0, 12.0]
    change = [8.0, 9.0, 11.0, 8.0, 8.0]
    lower = bench_pairs.compare(parent, change, "lower")
    assert lower["change_wins"] == "4 of 5"
    assert lower["change_over_parent_median"] == pytest.approx(8.0 / 10.0)
    # The parent's quartiles are 10 and 10, so any move of the median is beyond them.
    assert lower["beyond_parent_quartiles"]
    higher = bench_pairs.compare(parent, change, "higher")
    assert higher["change_wins"] == "1 of 5"


def test_compare_within_the_parent_spread_is_not_beyond_it():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # quartiles 2 and 4
    out = bench_pairs.compare(parent, [1.5, 2.5, 2.0, 4.5, 5.5], "lower")
    assert out["change"]["median"] == 2.5
    assert not out["beyond_parent_quartiles"]
    assert out["change_wins"] == "1 of 5"  # only pair 2 (2.0 against 3.0)


def test_summarize_keeps_only_complete_pairs():
    runs = [pair_run("w", "parent", 0, 2.0, 100.0), pair_run("w", "change", 0, 1.0, 200.0),
            pair_run("w", "parent", 1, 4.0, 50.0, failed=1),
            pair_run("w", "change", 1, 3.0, 60.0),
            pair_run("w", "parent", 2, 9.0, 9.0)]  # its change run is missing
    out = bench_pairs.summarize(runs, E2E)["w"]
    call = out["scaled_call_s.p50"]
    assert call["parent_runs"] == [2.0, 4.0] and call["change_runs"] == [1.0, 3.0]
    assert call["change_over_parent_median"] == pytest.approx(2.0 / 3.0)
    assert call["change_wins"] == "2 of 2"
    assert out["scaled_chars_per_s"]["change_wins"] == "2 of 2"
    assert out["failed"] == {"parent": 1, "change": 0}
    assert out["attempted"] == {"parent": 20, "change": 20}


def test_traced_splits_counts_from_timings_and_flags_unequal_counts():
    def trace(side, calls, self_s):
        metrics = {"x.calls": {"value": calls, "unit": "count"},
                   "x.self_s": {"value": self_s, "unit": "s"},
                   "trace.overhead_frac": {"value": 0.5, "unit": "ratio"}}
        return {"workload": "w", "side": side, "result": {"metrics": metrics}}

    runs = [trace("parent", 7, 0.3), trace("parent", 7, 0.1), trace("parent", 7, 0.2),
            trace("change", 7, 0.1), trace("change", 8, 0.1)]
    counts, times, differ = bench_pairs.traced(runs)
    assert counts == {"w": {"x.calls": {"parent": 7, "change": 7}}}
    assert times["w"]["x.self_s"]["parent"] == {"median": 0.2, "runs": [0.3, 0.1, 0.2]}
    assert set(times["w"]) == {"x.self_s", "trace.overhead_frac"}
    assert differ == ["w x.calls change: [7, 8]"]


def test_mismatches_compare_the_change_against_the_parent():
    digests = {"seed 1": {"w": {"parent": "digest sha256:aa", "change": "digest sha256:aa"},
                          "v": {"parent": "digest sha256:aa", "change": "digest sha256:bb"}},
               "seed 7": {"w": {"parent": "digest sha256:cc"}}}  # its change run is missing
    counts = {"w": {"x.calls": {"parent": 7, "change": 7}, "y.calls": {"parent": 3, "change": 4}}}
    assert bench_pairs.mismatches(digests, counts, ["w x.calls change: [7, 8]"]) == [
        "seed 1 v digest: parent digest sha256:aa, change digest sha256:bb",
        "w y.calls: parent 3, change 4",
        "w x.calls change: [7, 8]"]
    same = {"seed 1": {"w": {"parent": "digest sha256:aa", "change": "digest sha256:aa"}}}
    assert bench_pairs.mismatches(same, {"w": {"x.calls": {"parent": 7, "change": 7}}}, []) == []


def test_failures_name_runs_without_a_result_or_with_a_wrong_one():
    crashed = dict(pair_run("w", "change", 0, 1.0, 1.0), result=None, returncode=1)
    wrong = pair_run("w", "parent", 1, 1.0, 1.0, correct=False)
    tier1 = {"purpose": "tier1", "side": "change", "pair": 0, "returncode": 1}
    runs = [pair_run("w", "parent", 0, 1.0, 1.0), crashed, wrong,
            pair_run("w", "change", 1, 1.0, 1.0), tier1]
    assert bench_pairs.failures(runs) == [
        "pairs w seed 7 change pair 0: no result (exit 1)",
        "pairs w seed 7 parent pair 1: correct false"]
    # The crashed pair is left out of the summary, so only the list shows it.
    assert bench_pairs.summarize(runs[:4], E2E)["w"]["scaled_call_s.p50"]["change_wins"] == "0 of 1"


def test_failures_name_a_workload_whose_change_fails_a_larger_share():
    runs = [pair_run("w", "parent", 0, 1.0, 1.0, failed=1, attempted=10),
            pair_run("w", "change", 0, 1.0, 1.0, failed=1, attempted=5),
            pair_run("v", "parent", 0, 1.0, 1.0, failed=2, attempted=10),
            pair_run("v", "change", 0, 1.0, 1.0, failed=1, attempted=5),  # the same share
            pair_run("u", "parent", 0, 1.0, 1.0, failed=0, attempted=0),
            pair_run("u", "change", 0, 1.0, 1.0, failed=0, attempted=4)]
    assert bench_pairs.failures(runs) == ["w failed: parent 1 of 10, change 1 of 5"]
    assert bench_pairs.failures(runs[2:]) == []


def test_design_numbers_count_source_lines_and_exported_names(tmp_path):
    package = tmp_path / "src" / "pdws"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        '"""Doc."""\n\nfrom .a import f\n\nX = 1\n__all__ = [\n    "f",\n    "g",\n]\n')
    (package / "a.py").write_text("def f():\n    return 1\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.design_numbers(tmp_path) == {"source_lines": 11, "exported_names": 2}


def test_one_shot_summary_compares_steps_and_names_faults():
    def round_(side, pair, wall_s, returncode=0, digest="aa"):
        steps = {step: {"wall_s": wall_s, "returncode": 0, "stdout_sha256": "aa"}
                 for step in bench_pairs.ONE_SHOT}
        steps["detect_known_offset"].update(returncode=returncode, stdout_sha256=digest)
        return {"purpose": "one_shot", "side": side, "pair": pair, "steps": steps}

    runs = [round_("parent", 0, 0.3), round_("change", 0, 0.2),
            round_("change", 1, 0.2, returncode=1, digest="bb"), round_("parent", 1, 0.1),
            round_("parent", 2, 0.5)]  # its change round is missing
    summary, faults = bench_pairs.one_shot_summary(runs)
    assert set(summary) == set(bench_pairs.ONE_SHOT)
    detect = summary["detect_known_offset"]
    assert detect["parent_runs"] == [0.3, 0.1] and detect["change_runs"] == [0.2, 0.2]
    assert detect["change_wins"] == "1 of 2"
    assert detect["change"]["median"] == pytest.approx(0.2)
    assert faults == ["one_shot detect_known_offset round 1 change: exit 1",
                      "one_shot detect_known_offset round 1: change output differs"]
    assert bench_pairs.one_shot_summary(runs[-1:]) == ({}, [])


def test_one_shot_commands_quote_arguments_and_name_detects_input():
    text = bench_pairs.one_shot_commands(["-m", "pdws.cli", "keygen", "s.json", "p.json"],
                                         {"import_pdws": ["-c", "import pdws"],
                                          "detect": ["-m", "pdws.cli", "detect", "-"]}, 3)
    assert text == ("in a directory holding `python3 -m pdws.cli keygen s.json p.json` keys, "
                    "3 rounds, round i runs the parent first when i is even: "
                    "import_pdws: python3 -c 'import pdws'; "
                    "detect: python3 -m pdws.cli detect -; "
                    "detect's `-` input is that round's watermark stdout")
