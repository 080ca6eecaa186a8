"""Tests for markdown rendering of experiment results."""

import pytest

from repro.experiments.render import (
    markdown_table,
    render_reports,
    render_table2,
)
from repro.experiments.tables import run_table2
from repro.metrics.report import RunReport


def test_markdown_table_shape():
    text = markdown_table(["a", "b"], [[1, 2], [3, 4]])
    lines = text.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert len(lines) == 4


def test_markdown_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        markdown_table(["a", "b"], [[1]])


def test_float_formatting():
    text = markdown_table(["x"], [[1.23456]])
    assert "1.23" in text


def test_render_reports_includes_summary_columns():
    report = RunReport(system="slinfer", duration=10.0)
    text = render_reports([report])
    assert "slinfer" in text
    assert "SLO rate" in text


def test_render_table2_matches_paper_layout():
    text = render_table2(run_table2())
    assert "C-7B-2K" in text
    lines = [l for l in text.splitlines() if l.startswith("| C-7B-2K")]
    assert len(lines) == 1
    # The quarter-node cell is the paper's "-".
    assert "| - |" in lines[0]


def test_render_percentiles_accepts_both_distribution_kinds():
    from repro.experiments.render import render_percentiles
    from repro.metrics import Cdf, QuantileSketch

    values = [0.5, 1.0, 1.5, 2.0, 4.0]
    text = render_percentiles(
        [
            ("exact", Cdf.from_values(values)),
            ("streaming", QuantileSketch.from_values(values)),
            ("empty", Cdf.from_values([])),
        ]
    )
    lines = text.splitlines()
    assert lines[0].startswith("| distribution | p50 | p90 | p99 |")
    assert len(lines) == 5  # header + separator + three rows
    exact_row = next(l for l in lines if l.startswith("| exact"))
    streaming_row = next(l for l in lines if l.startswith("| streaming"))
    # Same samples, same (rounded) percentiles in either mode.
    assert exact_row.split("|")[2:] == streaming_row.split("|")[2:]
    assert "| - |" in next(l for l in lines if l.startswith("| empty"))
