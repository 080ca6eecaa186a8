"""End-to-end experiments: Fig. 22, the Fig. 23 ablation, and Table III."""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.report import RunReport
from repro.models.catalog import LLAMA2_13B, LLAMA2_7B, LLAMA32_3B, ModelSpec
from repro.registry import STANDARD_SYSTEMS
from repro.runner import ExperimentScale, RunSpec, SweepExecutor, current_scale

SIZE_MODELS: dict[str, ModelSpec] = {
    "3B": LLAMA32_3B,
    "7B": LLAMA2_7B,
    "13B": LLAMA2_13B,
}


@dataclass(frozen=True)
class E2ECell:
    system: str
    size: str
    n_models: int
    report: RunReport

    @property
    def summary(self) -> str:
        return f"[{self.size} x{self.n_models}] {self.report.summary_line()}"


def run_fig22(
    size: str = "7B",
    counts: tuple[int, ...] = (32, 64, 128),
    systems: tuple[str, ...] | None = None,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[E2ECell]:
    """One panel of Fig. 22 (a/b/c by model size): a (count × system) grid."""
    window = (scale or current_scale()).spec_axes()
    model = SIZE_MODELS[size].name
    names = list(systems) if systems is not None else list(STANDARD_SYSTEMS)
    specs = [
        RunSpec(system=name, model=model, n_models=n_models, seed=seed, **window)
        for n_models in counts
        for name in names
    ]
    return [
        E2ECell(
            system=result.spec.system,
            size=size,
            n_models=result.spec.n_models,
            report=result.report,
        )
        for result in (executor or SweepExecutor()).run(specs)
    ]


# ----------------------------------------------------------------------
# Fig. 23 — ablation: disable each SLINFER component
# ----------------------------------------------------------------------
ABLATIONS: dict[str, dict] = {
    "slinfer-full": {},
    "w/o cpu": {"enable_cpu": False},
    "w/o consolidation": {"enable_consolidation": False},
    "w/o sharing": {"enable_sharing": False},
}


def run_ablation(
    n_models: int = 64,
    size: str = "7B",
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> dict[str, RunReport]:
    window = (scale or current_scale()).spec_axes()
    model = SIZE_MODELS[size].name
    specs = [
        RunSpec(
            system="slinfer", model=model, n_models=n_models, seed=seed, config=overrides, **window
        )
        for overrides in ABLATIONS.values()
    ]
    results = (executor or SweepExecutor()).run(specs)
    return {label: result.report for label, result in zip(ABLATIONS, results)}


# ----------------------------------------------------------------------
# Table III — prefill-decode disaggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PdRow:
    system: str
    n_models: int
    aggregated: RunReport
    disaggregated: RunReport

    @property
    def summary(self) -> str:
        agg, dis = self.aggregated, self.disaggregated
        return (
            f"{self.system:>10s} x{self.n_models:<4d} "
            f"GPU {agg.avg_nodes_used_gpu:.1f}/{dis.avg_nodes_used_gpu:.1f}  "
            f"SLO {100 * agg.slo_rate:.0f}%/{100 * dis.slo_rate:.0f}%"
        )


def run_pd_table(
    counts: tuple[int, ...] = (32, 64, 128),
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[PdRow]:
    window = (scale or current_scale()).spec_axes()
    pairs = [
        (n_models, system, pd_system)
        for n_models in counts
        for system, pd_system in (("sllm+c+s", "pd-sllm"), ("slinfer", "pd-slinfer"))
    ]
    specs = [
        RunSpec(system=name, n_models=n_models, seed=seed, **window)
        for n_models, system, pd_system in pairs
        for name in (system, pd_system)
    ]
    results = (executor or SweepExecutor()).run(specs)
    return [
        PdRow(
            system=system,
            n_models=n_models,
            aggregated=results[2 * index].report,
            disaggregated=results[2 * index + 1].report,
        )
        for index, (n_models, system, _) in enumerate(pairs)
    ]
