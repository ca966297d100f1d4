"""Tests for the Table-I harness (small-scale; the benchmark runs it big)."""

import pytest

from repro.experiments import Table1Config, run_table1


@pytest.fixture(scope="module")
def small_result():
    # Scaled-down but statistically meaningful: at 20 paired runs of ~300
    # jobs the paired gain CI is ~±4%, well below the true gain of 5-12%.
    config = Table1Config(
        lambdas=(4.0, 8.0),
        n_runs=20,
        expected_jobs=300.0,
        seed=3,
        workers=2,
    )
    return run_table1(config)


class TestStructure:
    def test_one_row_per_lambda(self, small_result):
        assert [row.lam for row in small_result.rows] == [4.0, 8.0]

    def test_all_dover_columns_present(self, small_result):
        for row in small_result.rows:
            assert set(row.dover_percent) == {1.0, 10.5, 24.5, 35.0}

    def test_percentages_in_range(self, small_result):
        for row in small_result.rows:
            for summary in row.dover_percent.values():
                assert 0.0 <= summary.mean <= 100.0
            assert 0.0 <= row.vdover_percent.mean <= 100.0

    def test_best_c_hat_is_argmax(self, small_result):
        for row in small_result.rows:
            best = max(row.dover_percent.values(), key=lambda s: s.mean)
            assert row.best_dover_percent.mean == best.mean


class TestPaperShape:
    def test_vdover_beats_best_dover(self, small_result):
        """The paper's headline: V-Dover >= best Dover in every row."""
        for row in small_result.rows:
            assert row.vdover_percent.mean >= row.best_dover_percent.mean

    def test_gain_is_significantly_positive(self, small_result):
        """The paired gain is positive beyond its 95% CI in every row."""
        for row in small_result.rows:
            assert row.gain_percent.mean - row.gain_percent.ci_half_width > 0.0


class TestResilience:
    CONFIG = dict(lambdas=(6.0,), n_runs=4, expected_jobs=60.0, seed=5, workers=1)

    def test_checkpointed_run_matches_plain(self, tmp_path):
        plain = run_table1(Table1Config(**self.CONFIG))
        ckpt = run_table1(Table1Config(**self.CONFIG), checkpoint_dir=tmp_path)
        assert ckpt.render() == plain.render()
        assert (tmp_path / "table1_lam6.ckpt").exists()
        # resuming an already-complete run re-executes nothing and agrees
        resumed = run_table1(Table1Config(**self.CONFIG), checkpoint_dir=tmp_path)
        assert resumed.render() == plain.render()

    def test_no_failures_on_clean_run(self, small_result):
        assert small_result.failures == {}
        assert small_result.n_failed == 0
        assert "failed" not in small_result.render()


class TestRendering:
    def test_render_contains_rows_and_marker(self, small_result):
        text = small_result.render()
        assert "Table I" in text
        assert "V-Dover" in text
        assert "*" in text  # best-Dover marker
        assert "Gain" in text
