"""Tests for the HTML report generator."""

from repro.harness.report import render_report, write_report


class TestRenderReport:
    def test_contains_predictors_and_thermometers(self, ccrypt_experiment):
        html_text = render_report(ccrypt_experiment)
        assert html_text.startswith("<!DOCTYPE html>")
        assert "Ranked failure predictors" in html_text
        # The top predictor's name appears, escaped.
        top = ccrypt_experiment.elimination.selected[0]
        import html as html_module

        assert html_module.escape(top.predicate.name) in html_text
        # Thermometer colour bands.
        assert "#cc0000" in html_text

    def test_cooccurrence_columns_present_with_truth(self, ccrypt_experiment):
        html_text = render_report(ccrypt_experiment)
        assert "ccrypt1" in html_text
        assert "kind-" in html_text  # predictor grading

    def test_truth_can_be_suppressed(self, ccrypt_experiment):
        html_text = render_report(ccrypt_experiment, include_truth=False)
        assert "<span class='kind-" not in html_text

    def test_affinity_lists_rendered(self, ccrypt_experiment):
        html_text = render_report(ccrypt_experiment, affinity_top=3)
        assert "Affinity lists" in html_text

    def test_custom_title(self, ccrypt_experiment):
        html_text = render_report(ccrypt_experiment, title="My <Report>")
        assert "My &lt;Report&gt;" in html_text

    def test_write_report(self, ccrypt_experiment, tmp_path):
        path = tmp_path / "report.html"
        write_report(ccrypt_experiment, str(path))
        assert path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
