"""Markdown rendering of experiment results.

Turns the structured rows the experiment runners return into GitHub-style
markdown tables, so regenerated results can be pasted straight into
reports.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.metrics.report import RunReport


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A GitHub-markdown table from headers and row tuples."""
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row!r} does not match headers {headers!r}")
        lines.append("| " + " | ".join(_format(cell) for cell in row) + " |")
    return "\n".join(lines)


def _format(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def report_row(report: RunReport) -> list[object]:
    """The standard per-system row used across end-to-end tables."""
    return [
        report.system,
        report.total_requests,
        report.slo_met_count,
        f"{100 * report.slo_rate:.1f}%",
        report.dropped_count,
        f"{report.avg_nodes_used_cpu:.1f}/{report.avg_nodes_used_gpu:.1f}",
        f"{report.decode_speed_cpu:.0f}/{report.decode_speed_gpu:.0f}",
    ]


REPORT_HEADERS = [
    "system", "requests", "SLO-met", "SLO rate", "dropped",
    "nodes C/G", "decode tok/(node·s) C/G",
]


def render_reports(reports: Iterable[RunReport]) -> str:
    """One markdown table comparing several systems on one workload."""
    return markdown_table(REPORT_HEADERS, (report_row(r) for r in reports))


PERCENTILE_HEADERS = ["distribution", "p50", "p90", "p99", "mean", "samples"]


def percentile_row(
    name: str, distribution, qs: Sequence[float] = (50.0, 90.0, 99.0)
) -> list[object]:
    """One row of percentile stats from any Cdf-like distribution.

    Works with both the exact :class:`~repro.metrics.cdf.Cdf` and the
    streaming :class:`~repro.metrics.streaming.QuantileSketch` — they
    share the percentile/mean/len read API — so figure tables render
    identically whichever metrics mode produced the report.
    """
    if distribution.empty:
        return [name] + ["-"] * (len(qs) + 1) + [0]
    return (
        [name]
        + [distribution.percentile(q) for q in qs]
        + [distribution.mean, len(distribution)]
    )


def render_percentiles(named: Iterable[tuple[str, object]]) -> str:
    """Markdown percentile table over (name, distribution) pairs.

    The standard consumer for report CDFs (``ttft_cdf()``,
    ``memory_utilization_cdf()``, ``kv_utilization_cdf()``) in either
    metrics mode.
    """
    return markdown_table(
        PERCENTILE_HEADERS,
        (percentile_row(name, dist) for name, dist in named),
    )


def render_fig22(cells) -> str:
    """Markdown for `run_fig22` output, grouped by model count."""
    headers = ["size", "models"] + REPORT_HEADERS
    rows = [
        [cell.size, cell.n_models] + report_row(cell.report)
        for cell in cells
    ]
    return markdown_table(headers, rows)


def render_table2(cells) -> str:
    """Markdown for `run_table2` output in the paper's layout."""
    scenarios: dict[str, dict[str, object]] = {}
    for cell in cells:
        text = "-" if cell.per_instance_limit == 0 else (
            f"{cell.per_instance_limit} ({cell.aggregate_limit})"
        )
        scenarios.setdefault(cell.scenario, {})[cell.fraction_label] = text
    headers = ["scenario", "1/4", "1/3", "1/2", "1"]
    rows = [
        [name] + [by_fraction.get(f, "-") for f in ("1/4", "1/3", "1/2", "1")]
        for name, by_fraction in scenarios.items()
    ]
    return markdown_table(headers, rows)
