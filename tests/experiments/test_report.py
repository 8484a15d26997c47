"""Tests for the EXPERIMENTS.md report generator."""

from repro.experiments.report import (
    EXPERIMENT_ENTRIES,
    generate_report,
)
from repro.experiments.runall import EXPERIMENTS


class TestReportGenerator:
    def test_every_experiment_has_an_entry(self):
        covered = {entry.result_file for entry in EXPERIMENT_ENTRIES}
        expected = {
            name.replace("-", "_") for name in EXPERIMENTS
        }
        assert covered == expected

    def test_generates_with_results(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig11.txt").write_text("FAKE TABLE CONTENT 123")
        output = tmp_path / "EXPERIMENTS.md"
        text = generate_report(results, output)
        assert output.exists()
        assert "FAKE TABLE CONTENT 123" in text
        assert "Figure 11" in text
        assert text.startswith("# EXPERIMENTS")

    def test_missing_results_marked(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        text = generate_report(results, tmp_path / "out.md")
        assert "no saved results" in text

    def test_paper_claims_present_for_all_entries(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        text = generate_report(results, tmp_path / "out.md")
        for entry in EXPERIMENT_ENTRIES:
            assert entry.title in text
            assert entry.paper_claim.split(".")[0] in text
