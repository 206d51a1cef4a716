import dataclasses
import json
from fractions import Fraction

import pytest

from pdws import bench
from pdws.bench import _timing, expected_chars, run_bench
from pdws.core import ParameterError
from pdws.embedder import EmbedFailure, watermark
from pdws.model import ModelHandle

ROW_KEYS = {
    "prompt_index",
    "repeat",
    "seed",
    "failed",
    "gen_seconds",
    "detect_seconds",
    "attempts",
    "gamma_used",
    "detected",
}


class TestExpectedChars:
    def test_reference_values(self):
        assert expected_chars(16, 1, 328) == 10496
        assert expected_chars(16, 2, 328) == 10496
        assert expected_chars(32, 2, 328) == 20992

    def test_beta_tradeoff(self):
        # doubling beta halves the chunk count but squares the retry factor
        assert expected_chars(16, 4, 328) == 2 * expected_chars(16, 2, 328)

    def test_scales_linearly_in_ell_and_lambda(self):
        assert expected_chars(32, 2, 328) == 2 * expected_chars(16, 2, 328)
        assert expected_chars(16, 2, 656) == 2 * expected_chars(16, 2, 328)

    @pytest.mark.parametrize(
        "args", [(0, 2, 328), (16, 0, 328), (16, 2, 0), (16, 3, 328), (16, 2, 327)]
    )
    def test_invalid_arguments(self, args):
        with pytest.raises(ParameterError):
            expected_chars(*args)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", [2.0, True, "2"])
    def test_refuses_arguments_that_are_not_ints(self, position, bad):
        args = [16, 2, 328]
        args[position] = bad
        with pytest.raises(ParameterError):
            expected_chars(*args)


@pytest.fixture(scope="module")
def report(params328, schnorr_keys, model64, suite):
    return run_bench(
        params328,
        schnorr_keys,
        model64,
        ["first prompt", "second prompt"],
        repeats=2,
        seed=7,
        suite=suite,
    )


@pytest.fixture(scope="module")
def failed_report(params328, schnorr_keys, suite):
    model = ModelHandle(
        kind="scripted-mock",
        script=(("forced", "Z" * params328.gadget_chars),),
        script_cycle=True,
    )
    return run_bench(params328, schnorr_keys, model, ["p"], repeats=3, seed=10, suite=suite)


@pytest.fixture(scope="module")
def short_report(params328, schnorr_keys, model64, suite):
    # n below one gadget: plain text, no blocks, k_fit == 0
    params = dataclasses.replace(params328, n=100)
    return run_bench(params, schnorr_keys, model64, ["p", "q"], repeats=2, seed=11, suite=suite)


class TestRunBench:
    def test_run_accounting(self, report):
        assert report["runs"] == 4
        assert report["failures"] == 0
        assert sum(report["gamma_histogram"].values()) == report["runs"]
        assert len(report["rows"]) == 4
        assert all(row["detected"] for row in report["rows"])

    def test_mean_chars_tracks_cost_model(self, report, params328):
        predicted = expected_chars(
            params328.ell, params328.beta, params328.lambda_c
        ) + params328.ell
        assert abs(report["mean_chars"] - predicted) / predicted < 0.15

    def test_attempts_mean_near_four(self, report):
        assert 3.0 <= report["mean_attempts_per_block"] <= 5.0

    def test_detection_cheaper_than_generation(self, report):
        gen, det = report["gen_seconds"], report["detect_seconds"]
        assert 0 < det["mean"] < gen["mean"]
        assert gen["p95"] >= gen["mean"] / 2

    def test_rows_shape(self, report):
        rows = report["rows"]
        assert all(set(row) == ROW_KEYS for row in rows)
        assert [(row["prompt_index"], row["repeat"]) for row in rows] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        assert len({row["seed"] for row in rows}) == 4
        assert all(not row["failed"] and row["detected"] for row in rows)

    def test_rows_match_transcripts(self, report, params328, schnorr_keys, model64, suite):
        prompts = ["first prompt", "second prompt"]
        for row in report["rows"]:
            _, transcript = watermark(
                params328, schnorr_keys, model64, prompts[row["prompt_index"]],
                seed=row["seed"], suite=suite,
            )
            assert row["attempts"] == sum(b.attempts for b in transcript.blocks)
            assert row["gamma_used"] == transcript.gamma_used

    def test_json_report_shape(self, report, params328):
        assert json.loads(json.dumps(report)) == report
        assert report["params"]["ell"] == params328.ell
        assert set(report["gen_seconds"]) == {"mean", "p95"}
        assert "platform" in report["host"]

    def test_aggregates_are_pinned(self, report):
        # Exact for this seed, so a change to the aggregate arithmetic shows.
        assert (
            report["runs"], report["failures"], report["mean_chars"],
            report["mean_attempts_per_block"], report["gamma_histogram"],
        ) == (4, 0, 11924.0, 4.134722222222222, {"0": 4})

    def test_seed_changes_runs(self, params328, schnorr_keys, model64, suite):
        other = run_bench(
            params328, schnorr_keys, model64, ["first prompt"], repeats=1,
            seed=8, suite=suite,
        )
        assert other["rows"][0]["seed"] != 0
        assert other["runs"] == 1

    def test_gamma0_histogram_is_all_zero(
        self, params_gamma0, schnorr_keys, model64, suite
    ):
        rep = run_bench(
            params_gamma0, schnorr_keys, model64, ["p"], repeats=2,
            seed=9, suite=suite,
        )
        assert rep["gamma_histogram"] == {"0": 2}

    def test_all_failures_reported(self, failed_report):
        assert failed_report["runs"] == 0
        assert failed_report["failures"] == 3
        assert failed_report["gamma_histogram"] == {}
        assert failed_report["mean_chars"] == 0.0
        assert failed_report["mean_attempts_per_block"] == 0.0
        assert all(row["failed"] and row["attempts"] == 0 for row in failed_report["rows"])

    def test_below_one_gadget(self, short_report):
        assert short_report["runs"] == 4
        assert short_report["mean_chars"] == 100
        assert short_report["mean_attempts_per_block"] == 0
        assert all(row["attempts"] == 0 for row in short_report["rows"])

    def test_input_validation(self, params328, schnorr_keys, model64, suite):
        with pytest.raises(ParameterError):
            run_bench(params328, schnorr_keys, model64, [], suite=suite)
        with pytest.raises(ParameterError):
            run_bench(
                params328, schnorr_keys, model64, ["p"], repeats=0, suite=suite
            )

    @pytest.mark.parametrize("repeats", [2.0, True, "2"])
    def test_repeats_must_be_an_int(self, params328, schnorr_keys, model64, suite, repeats):
        with pytest.raises(ParameterError):
            run_bench(params328, schnorr_keys, model64, ["p"], repeats=repeats, suite=suite)


def _nearest_rank_p95(values):
    # the smallest value that at least 95% of the values do not exceed
    ordered = sorted(values)
    n = len(ordered)
    return next(v for k, v in enumerate(ordered, 1) if Fraction(k, n) >= Fraction(95, 100))


class TestTiming:
    def test_reference_values(self):
        assert _timing([2.0, 4.0]) == {"mean": 3.0, "p95": 4.0}
        assert _timing([0.5, 1.5])["p95"] == 1.5
        assert _timing([]) == {"mean": 0.0, "p95": 0.0}
        # 95% of 11 values is 10.45, so the rank is 11, not the rounded 10
        assert _timing([float(v) for v in range(1, 12)])["p95"] == 11.0

    def test_p95_is_nearest_rank(self):
        for n in range(1, 401):
            values = [float((7 * i) % n) + i / (n + 1) for i in range(n)]  # distinct, unsorted
            assert _timing(values)["p95"] == _nearest_rank_p95(values), n


def _fail_prompt_c(params, keys, model, prompt, **kwargs):
    if prompt == "c":
        raise EmbedFailure(0, 1)
    return watermark(params, keys, model, prompt, **kwargs)


@pytest.fixture(scope="module")
def mixed_reports(params328, schnorr_keys, suite):
    """A report whose last run fails, and the same runs without it.

    Blocks 1 and 2 of every gadget are forced, so each run plants 1 or 2
    errors; on seed 2 the runs for prompts a and b plant 2 and 1.
    """
    model = ModelHandle(
        kind="scripted-mock",
        script=tuple(
            ("forced", "Q" * params328.ell) if j in (1, 2) else ("free", params328.ell)
            for j in range(1 + params328.n_blocks)
        ),
        script_cycle=True,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "watermark", _fail_prompt_c)
        mixed = run_bench(
            params328, schnorr_keys, model, ["a", "b", "c"], repeats=1, seed=2, suite=suite
        )
    clean = run_bench(params328, schnorr_keys, model, ["a", "b"], repeats=1, seed=2, suite=suite)
    return mixed, clean


def _untimed(row):
    return {k: v for k, v in row.items() if k not in ("gen_seconds", "detect_seconds")}


class TestReportAggregates:
    def test_aggregates_follow_rows(self, report, failed_report, short_report, mixed_reports):
        for doc in (report, failed_report, short_report, *mixed_reports):
            ok = [row for row in doc["rows"] if not row["failed"]]
            assert doc["runs"] == len(ok)
            assert doc["failures"] == len(doc["rows"]) - len(ok)
            gammas = [str(row["gamma_used"]) for row in ok]
            assert doc["gamma_histogram"] == {g: gammas.count(g) for g in sorted(set(gammas))}
            for key in ("gen_seconds", "detect_seconds"):
                values = [row[key] for row in ok]
                assert doc[key] == (
                    {"mean": pytest.approx(sum(values) / len(values)), "p95": _nearest_rank_p95(values)}
                    if values else {"mean": 0.0, "p95": 0.0}
                )

    def test_failed_row_counts_only_in_failures(self, mixed_reports):
        mixed, clean = mixed_reports
        assert (mixed["runs"], mixed["failures"]) == (2, 1)
        assert [row["failed"] for row in mixed["rows"]] == [False, False, True]
        # the successful rows are the clean report's rows, so the aggregates must agree
        assert [_untimed(row) for row in mixed["rows"][:2]] == [_untimed(row) for row in clean["rows"]]
        for key in ("mean_chars", "mean_attempts_per_block", "gamma_histogram"):
            assert mixed[key] == clean[key]
        assert mixed["gamma_histogram"] == {"1": 1, "2": 1}

    def test_timings_cover_only_successful_rows(self, mixed_reports):
        mixed, _ = mixed_reports
        ok = mixed["rows"][:2]
        for key in ("gen_seconds", "detect_seconds"):
            values = [row[key] for row in ok]
            assert mixed[key]["mean"] == pytest.approx(sum(values) / len(values))
            assert mixed[key]["p95"] == max(values)
