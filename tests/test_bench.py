import csv
import io

import pytest

from pdws.bench import BenchReport, BenchRun, expected_chars, run_bench
from pdws.core import ParameterError, WatermarkParams
from pdws.model import ModelHandle


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


class TestRunBench:
    def test_run_accounting(self, report):
        assert report.runs == 4
        assert report.failures == 0
        assert sum(report.gamma_histogram.values()) == report.runs
        assert len(report.rows) == 4
        assert all(run.detected for run in report.rows)

    def test_mean_chars_tracks_cost_model(self, report, params328):
        predicted = expected_chars(
            params328.ell, params328.beta, params328.lambda_c
        ) + params328.ell
        assert abs(report.mean_chars - predicted) / predicted < 0.15

    def test_attempts_mean_near_four(self, report):
        assert 3.0 <= report.mean_attempts_per_block <= 5.0

    def test_detection_cheaper_than_generation(self, report):
        assert 0 < report.detect_seconds_mean < report.gen_seconds_mean
        assert report.gen_seconds_p95 >= report.gen_seconds_mean / 2

    def test_rows_csv_shape(self, report):
        rows = list(csv.DictReader(io.StringIO(report.rows_csv())))
        assert len(rows) == 4
        assert set(rows[0]) == {
            "prompt_index",
            "repeat",
            "seed",
            "failed",
            "gen_seconds",
            "detect_seconds",
            "chars_sampled",
            "gamma_used",
            "detected",
        }
        assert all(row["failed"] == "0" and row["detected"] == "1" for row in rows)

    def test_json_report_shape(self, report, params328):
        doc = report.to_json_dict()
        assert doc["runs"] == 4
        assert doc["params"]["ell"] == params328.ell
        assert set(doc["gen_seconds"]) == {"mean", "p95"}
        assert "platform" in doc["host"]

    def test_seed_changes_runs(self, params328, schnorr_keys, model64, suite):
        other = run_bench(
            params328, schnorr_keys, model64, ["first prompt"], repeats=1,
            seed=8, suite=suite,
        )
        assert other.rows[0].seed != 0
        assert other.runs == 1

    def test_gamma0_histogram_is_all_zero(
        self, params_gamma0, schnorr_keys, model64, suite
    ):
        rep = run_bench(
            params_gamma0, schnorr_keys, model64, ["p"], repeats=2,
            seed=9, suite=suite,
        )
        assert rep.gamma_histogram == {0: 2}

    def test_all_failures_reported(self, params328, schnorr_keys, suite):
        model = ModelHandle(
            kind="scripted-mock",
            script=(("forced", "Z" * params328.gadget_chars),),
            script_cycle=True,
        )
        rep = run_bench(
            params328, schnorr_keys, model, ["p"], repeats=3,
            seed=10, suite=suite,
        )
        assert rep.runs == 0
        assert rep.failures == 3
        assert rep.gamma_histogram == {}
        assert rep.mean_chars == 0.0
        assert all(run.failed for run in rep.rows)

    def test_input_validation(self, params328, schnorr_keys, model64, suite):
        with pytest.raises(ParameterError):
            run_bench(params328, schnorr_keys, model64, [], suite=suite)
        with pytest.raises(ParameterError):
            run_bench(
                params328, schnorr_keys, model64, ["p"], repeats=0, suite=suite
            )


class TestReportAggregates:
    def test_aggregates_follow_rows(self):
        # one gadget per 2896-char output: 16 message chars, 180 signature blocks
        rows = (
            BenchRun(0, 0, 11, False, 2.0, 0.5, 10000, 1, True),
            BenchRun(0, 1, 12, True, 0.0, 0.0, 0, 0, False),
            BenchRun(1, 0, 13, False, 4.0, 1.5, 11000, 0, True),
        )
        doc = BenchReport(WatermarkParams(), rows).to_json_dict()
        del doc["host"]
        assert doc == {
            "format_version": 1,
            "params": WatermarkParams().to_json_dict(),
            "runs": 2,
            "failures": 1,
            "mean_chars": 10500.0,
            "mean_attempts_per_block": ((10000 - 16) / 16 / 180 + (11000 - 16) / 16 / 180) / 2,
            "gen_seconds": {"mean": 3.0, "p95": 4.0},
            "detect_seconds": {"mean": 1.0, "p95": 1.5},
            "gamma_histogram": {"0": 1, "1": 1},
        }
