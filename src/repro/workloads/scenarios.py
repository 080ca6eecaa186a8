"""Registered workload scenarios.

Every scenario is a factory with one shared signature::

    scenario(model, n_models, duration, requests_per_model, seed, **params)
        -> GroupedStream

registered in :data:`repro.registry.SCENARIOS` so sweeps can name it on
the command line.  ``params`` are scenario-specific knobs; they must be
JSON-representable (they become part of a RunSpec fingerprint).

Scenarios:

* ``azure`` — the paper's §IX-B workload: replica deployments replaying
  the synthetic Azure Serverless trace.
* ``burstgpt`` — the §IX-I2 alternative arrival process.
* ``diurnal`` — a day/night load cycle compressed into the trace window;
  arrival density follows a raised sinusoid, so schedulers see sustained
  ramps instead of the Azure trace's stationary mix.
* ``bursty-spike`` — a flash crowd: background traffic plus a
  coordinated spike that multiplies the hottest deployments' load inside
  a short window (the §III-C concurrency-surge pattern, amplified).
* ``mixed-fleet`` — the §IX-E heterogeneous fleet (3B/7B/13B/34B, the
  34B tensor-parallel over 2 GPUs), promoted from ``examples/``.
* ``het-fleet`` — a 3B/7B/13B population sized for mixed-generation GPU
  clusters (pair with the ``het-gpu`` cluster): the 13B models are
  comfortable on an A100 but memory-tight (and slow) on a 32 GB V100,
  so placement has to respect per-node memory and speed — the
  Figs. 24/26 heterogeneity regime.
* ``cold-churn`` — staggered per-deployment activity waves: each
  deployment is live only inside rotating windows, so instances expire
  between waves and every wave opens with a cold-start storm.  Pair
  with the ``rack-oversub`` cluster (shared NIC) to make concurrent
  model loads contend for the same uplink.
* ``cpu-harvest`` — CPU-servable small-model traffic for the Fig. 29
  harvested-core sweeps; sweep it across ``harvest{C}`` clusters to
  reproduce the CPU-spec sensitivity axis.
* ``diurnal-week`` — seven day/night cycles with weekday/weekend
  modulation.  The long-horizon companion to ``diurnal``: replayed over
  a real week (``--duration 604800``) it synthesizes ~10^6 requests,
  which only the streaming metrics mode can measure in bounded memory.
* ``million-burst`` — sustained storm traffic: elevated background load
  plus a train of flash crowds rotating across the hottest deployments.
  At week-scale durations the default parameters produce millions of
  requests — the paper's "heavy traffic" regime, feasible (metrics-wise)
  only under ``metrics="streaming"``.
* ``fleet-diurnal-week`` — ``diurnal-week`` across time zones: stable-hash
  regions replay the weekly cycle phase-shifted by their longitude, so
  globally some region is always near peak while each region sees the
  full swing.  The "follow the sun" regime for ``--federation`` sweeps
  (regions partition cleanly across 1/2/4 shards).
* ``global-storm`` — regional flash-crowd storms rotating around the
  planet back to back: a monolithic cluster faces wall-to-wall storms,
  while each region (and hence each federation shard) storms only
  ``1/regions`` of the time with recovery room between slots.  The
  federation's showcase overload regime (``load_factor`` scales it).
* ``shared-sysprompt`` — every deployment's prompts open with the same
  long per-deployment system prompt; the prefix-sharing regime where a
  radix KV cache (``--kv-sharing on``) collapses most prefill work.
* ``agentic-loop`` — multi-turn agent sessions re-submitting a growing
  context each turn; the path-structured sharing regime (each turn's
  prompt extends the previous turn's radix path).
* ``prefix-mix`` — a tunable fraction of requests carry a common
  per-deployment prefix; the hit-rate sensitivity axis (the ad-hoc
  ``prefix-mix{P}`` spelling pins the fraction to ``P`` percent).

Every factory returns its trace as a
:class:`~repro.workloads.stream.GroupedStream`: the drawn per-deployment
arrays, with spec construction deferred.  A run iterates it lazily
(O(in-flight) ingest memory); ``.materialize()`` (what
:func:`~repro.runner.spec.build_workload` calls) builds the
arrival-sorted :class:`~repro.workloads.spec.Workload` from the same
draws.
"""

from __future__ import annotations

import numpy as np

from repro.models.catalog import CODELLAMA_34B, LLAMA2_7B, LLAMA2_13B, LLAMA32_3B, ModelSpec
from repro.registry import SCENARIOS
from repro.sim.rng import make_rng
from repro.workloads.azure_serverless import (
    AzureServerlessConfig,
    _azure_stream,
    _zipf_weights,
    clamp_input_lens,
    mixed_models,
    replica_models,
)
from repro.workloads.burstgpt import BurstGPTConfig, _burstgpt_stream
from repro.workloads.datasets import DATASETS, LengthDistribution
from repro.workloads.spec import Deployment, RequestSpec
from repro.workloads.stream import ArrayGroup, GroupedStream, SpecGroup


def _length_distribution(dataset: str) -> LengthDistribution:
    try:
        return DATASETS[dataset]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {dataset!r} (known: {known})") from None


def _emit(
    name: str,
    times: list[float],
    length_rng: np.random.Generator,
    lengths: LengthDistribution,
    model: ModelSpec,
) -> ArrayGroup:
    """One emission group: a request per arrival, context-clamped lengths.

    Lengths are drawn and clamped as whole arrays (inputs first, then
    outputs — the same stream order as per-request sampling).  The
    group holds the drawn arrays; spec construction is deferred to
    materialization or lazy iteration (identical values either way).
    """
    input_lens = lengths.sample_input_lens(length_rng, len(times))
    output_lens = lengths.sample_output_lens(length_rng, len(times))
    input_lens = clamp_input_lens(input_lens, output_lens, model.max_context)
    return ArrayGroup(name, times, input_lens, output_lens)


# ----------------------------------------------------------------------
# Paper workloads
# ----------------------------------------------------------------------
@SCENARIOS.register("azure")
def azure(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """§IX-B: replica deployments on the synthetic Azure Serverless trace."""
    config = AzureServerlessConfig(
        n_models=n_models,
        duration=duration,
        requests_per_model=requests_per_model,
        seed=seed,
    )
    return _azure_stream(
        f"azure-serverless-{n_models}m",
        replica_models(model, n_models),
        config,
        _length_distribution(dataset),
    )


@SCENARIOS.register("burstgpt")
def burstgpt(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    aggregate_rps: float | None = None,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """§IX-I2: gamma-burst arrivals with Pareto model popularity.

    ``aggregate_rps`` overrides the rate implied by ``requests_per_model``.
    """
    if aggregate_rps is None:
        aggregate_rps = requests_per_model * n_models / duration
    config = BurstGPTConfig(
        aggregate_rps=aggregate_rps, duration=duration, n_models=n_models, seed=seed
    )
    return _burstgpt_stream(replica_models(model, n_models), config, _length_distribution(dataset))


# ----------------------------------------------------------------------
# Diurnal load cycle
# ----------------------------------------------------------------------
@SCENARIOS.register("diurnal")
def diurnal(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    peak_to_trough: float = 4.0,
    cycles: float = 1.0,
    zipf_exponent: float = 1.2,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """A day/night cycle compressed into the trace window.

    The arrival density is a raised sinusoid starting at the trough:
    ``d(t) ∝ 1 + a·(1 - cos(2π·cycles·t/T))`` with ``a`` chosen so the
    peak rate is ``peak_to_trough`` times the trough rate.  Per-model
    popularity keeps the Azure trace's Zipf skew; the total request
    budget (``requests_per_model × n_models`` in expectation) matches the
    stationary scenarios, so results are load-comparable.
    """
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1")
    rate_rng = make_rng(seed, "diurnal-rates")
    arrival_rng = make_rng(seed, "diurnal-arrivals")
    length_rng = make_rng(seed, "diurnal-lengths")

    models = replica_models(model, n_models)
    names = list(models)
    weights = _zipf_weights(n_models, zipf_exponent, rate_rng)
    total_target = requests_per_model * n_models

    # Inverse-CDF sampling of the sinusoidal density on a fine grid.
    amplitude = (peak_to_trough - 1.0) / 2.0
    grid = np.linspace(0.0, duration, 4096)
    density = 1.0 + amplitude * (1.0 - np.cos(2.0 * np.pi * cycles * grid / duration))
    cdf = np.cumsum(density)
    cdf = (cdf - cdf[0]) / (cdf[-1] - cdf[0])

    groups: list[ArrayGroup] = []
    for name, weight in zip(names, weights):
        count = int(arrival_rng.poisson(total_target * weight))
        if count == 0:
            continue
        uniforms = arrival_rng.uniform(0.0, 1.0, size=count)
        times = np.interp(uniforms, cdf, grid).tolist()
        groups.append(_emit(name, times, length_rng, _length_distribution(dataset), model))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"diurnal-{n_models}m", deployments, groups, duration)


# ----------------------------------------------------------------------
# Long-horizon: a compressed (or real) week of diurnal traffic
# ----------------------------------------------------------------------
@SCENARIOS.register("diurnal-week")
def diurnal_week(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    peak_to_trough: float = 4.0,
    weekend_factor: float = 0.6,
    zipf_exponent: float = 1.2,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """Seven day/night cycles with weekday/weekend modulation.

    The trace window represents one week: the arrival density is the
    ``diurnal`` raised sinusoid repeated once per "day" (one seventh of
    the window), with the last two days scaled by ``weekend_factor``.
    The request *rate* is budget-preserving (``requests_per_model ×
    n_models`` in expectation over the window), so at smoke scale this
    is a fast CI scenario — while a real-time replay
    (``--duration 604800``) synthesizes on the order of a million
    requests, a horizon only the streaming metrics mode can measure
    without O(requests) collector memory.
    """
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1")
    if weekend_factor <= 0.0:
        raise ValueError("weekend_factor must be positive")
    rate_rng = make_rng(seed, "diurnal-week-rates")
    arrival_rng = make_rng(seed, "diurnal-week-arrivals")
    length_rng = make_rng(seed, "diurnal-week-lengths")

    models = replica_models(model, n_models)
    names = list(models)
    weights = _zipf_weights(n_models, zipf_exponent, rate_rng)
    total_target = requests_per_model * n_models

    # Density over a fine grid: per-day sinusoid × weekday/weekend weight.
    amplitude = (peak_to_trough - 1.0) / 2.0
    grid = np.linspace(0.0, duration, 8192)
    day_index = np.minimum((7.0 * grid / duration).astype(int), 6)
    day_weight = np.where(day_index >= 5, weekend_factor, 1.0)
    density = day_weight * (1.0 + amplitude * (1.0 - np.cos(2.0 * np.pi * 7.0 * grid / duration)))
    cdf = np.cumsum(density)
    cdf = (cdf - cdf[0]) / (cdf[-1] - cdf[0])

    groups: list[ArrayGroup] = []
    for name, weight in zip(names, weights):
        count = int(arrival_rng.poisson(total_target * weight))
        if count == 0:
            continue
        uniforms = arrival_rng.uniform(0.0, 1.0, size=count)
        times = np.interp(uniforms, cdf, grid).tolist()
        groups.append(_emit(name, times, length_rng, _length_distribution(dataset), model))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"diurnal-week-{n_models}m", deployments, groups, duration)


# ----------------------------------------------------------------------
# Long-horizon: storm traffic (the "million requests" regime)
# ----------------------------------------------------------------------
@SCENARIOS.register("million-burst")
def million_burst(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    load_factor: float = 4.0,
    bursts: int = 12,
    burst_width: float = 0.25,
    burst_share: float = 0.5,
    hot_share: float = 0.25,
    zipf_exponent: float = 1.2,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """Sustained storm traffic: heavy background plus a flash-crowd train.

    The total budget is ``load_factor`` times the stationary scenarios'
    (the sustained-overload regime): a ``1 - burst_share`` fraction
    arrives as stationary Poisson background, the rest concentrates into
    ``bursts`` evenly spaced windows (each ``burst_width`` of its slot),
    with each burst hitting a *rotating* group of the ``hot_share``
    hottest deployments — so keep-alive state thrashes instead of
    settling.  At week-scale durations the defaults synthesize millions
    of requests; pair with ``metrics="streaming"``, which is the only
    collector mode whose memory does not grow with that horizon.
    """
    if load_factor <= 0.0:
        raise ValueError("load_factor must be positive")
    if bursts < 1:
        raise ValueError("bursts must be >= 1")
    if not 0.0 < burst_width <= 1.0 or not 0.0 <= burst_share <= 1.0:
        raise ValueError("burst_width must be in (0, 1] and burst_share in [0, 1]")
    if not 0.0 < hot_share <= 1.0:
        raise ValueError("hot_share must be in (0, 1]")
    rate_rng = make_rng(seed, "million-burst-rates")
    arrival_rng = make_rng(seed, "million-burst-arrivals")
    length_rng = make_rng(seed, "million-burst-lengths")

    models = replica_models(model, n_models)
    names = list(models)
    weights = _zipf_weights(n_models, zipf_exponent, rate_rng)
    total_target = requests_per_model * n_models * load_factor
    lengths = _length_distribution(dataset)

    hot_count = max(1, round(n_models * hot_share))
    ranked = list(np.argsort(weights)[::-1])
    slot = duration / bursts
    window = burst_width * slot
    per_burst_budget = burst_share * total_target / bursts

    # Background: stationary Poisson per deployment.
    times_by_model: dict[int, list[float]] = {index: [] for index in range(n_models)}
    for index, weight in enumerate(weights):
        count = int(arrival_rng.poisson((1.0 - burst_share) * total_target * weight))
        if count:
            times_by_model[index].extend(arrival_rng.uniform(0.0, duration, size=count).tolist())

    # Burst train: burst b hammers a rotating window of the popularity
    # ranking, so consecutive crowds hit overlapping-but-shifting sets.
    for burst in range(bursts):
        start = burst * slot + (slot - window) / 2.0
        end = min(duration, start + window)
        group = [ranked[(burst + offset) % n_models] for offset in range(hot_count)]
        group_weight = sum(weights[index] for index in group)
        for index in group:
            share = weights[index] / group_weight if group_weight > 0 else 1.0 / len(group)
            count = int(arrival_rng.poisson(per_burst_budget * share))
            if count:
                times_by_model[index].extend(
                    arrival_rng.uniform(start, end, size=count).tolist()
                )

    groups: list[ArrayGroup] = []
    for index, name in enumerate(names):
        times = times_by_model[index]
        if times:
            groups.append(_emit(name, times, length_rng, lengths, model))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"million-burst-{n_models}m", deployments, groups, duration)


# ----------------------------------------------------------------------
# Planet-scale fleets (the repro.federation scenarios)
# ----------------------------------------------------------------------
def _region_of(name: str, regions: int) -> int:
    """A deployment's home region: crc32 mod regions.

    The same stable hash the federation's sticky-session router uses for
    shard assignment, so for any shard count dividing ``regions`` every
    region stays whole on one shard (``x mod m == (x mod n) mod m`` when
    ``m`` divides ``n``) — the fleet scenarios partition cleanly at
    1/2/4 shards of a 4-region trace.
    """
    from repro.federation.router import deployment_hash

    return deployment_hash(name) % regions


@SCENARIOS.register("fleet-diurnal-week")
def fleet_diurnal_week(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    regions: int = 4,
    peak_to_trough: float = 4.0,
    weekend_factor: float = 0.6,
    zipf_exponent: float = 1.2,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """``diurnal-week`` across time zones: per-region phase-shifted days.

    Deployments split into ``regions`` geographic groups (stable-hash
    partition, see :func:`_region_of`); each region replays the weekly
    day/night density shifted by its time-zone offset (``r / regions``
    of a day), so globally the load never sleeps — some region is always
    near its daily peak — while each region individually sees the full
    diurnal swing.  The fleet companion to ``diurnal-week``: sharded per
    region it is the multi-cluster "follow the sun" regime.
    """
    if regions < 1:
        raise ValueError("regions must be >= 1")
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1")
    if weekend_factor <= 0.0:
        raise ValueError("weekend_factor must be positive")
    rate_rng = make_rng(seed, "fleet-diurnal-week-rates")
    arrival_rng = make_rng(seed, "fleet-diurnal-week-arrivals")
    length_rng = make_rng(seed, "fleet-diurnal-week-lengths")

    models = replica_models(model, n_models)
    names = list(models)
    weights = _zipf_weights(n_models, zipf_exponent, rate_rng)
    total_target = requests_per_model * n_models
    lengths = _length_distribution(dataset)

    # The base weekly density (grid resolution as in diurnal-week); each
    # region uses the same curve rolled by its time-zone offset.
    amplitude = (peak_to_trough - 1.0) / 2.0
    grid = np.linspace(0.0, duration, 8192)
    day_index = np.minimum((7.0 * grid / duration).astype(int), 6)
    day_weight = np.where(day_index >= 5, weekend_factor, 1.0)
    density = day_weight * (1.0 + amplitude * (1.0 - np.cos(2.0 * np.pi * 7.0 * grid / duration)))
    day_points = grid.size / 7.0
    cdfs: list[np.ndarray] = []
    for region in range(regions):
        shift = int(round(region * day_points / regions))
        rolled = np.roll(density, shift)
        cdf = np.cumsum(rolled)
        cdfs.append((cdf - cdf[0]) / (cdf[-1] - cdf[0]))

    groups: list[ArrayGroup] = []
    for name, weight in zip(names, weights):
        count = int(arrival_rng.poisson(total_target * weight))
        if count == 0:
            continue
        uniforms = arrival_rng.uniform(0.0, 1.0, size=count)
        times = np.interp(uniforms, cdfs[_region_of(name, regions)], grid).tolist()
        groups.append(_emit(name, times, length_rng, lengths, model))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"fleet-diurnal-week-{n_models}m", deployments, groups, duration)


@SCENARIOS.register("global-storm")
def global_storm(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    regions: int = 4,
    cycles: int = 3,
    storm_share: float = 0.9,
    load_factor: float = 1.0,
    zipf_exponent: float = 1.2,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """Regional storms rotating around the planet, back to back.

    The trace window is cut into ``regions × cycles`` equal slots and
    slot ``s`` storms region ``s mod regions`` (stable-hash regions, see
    :func:`_region_of`): a ``storm_share`` fraction of the total budget
    lands inside the storm slots of the owning region's deployments, the
    rest is stationary background for everyone.  Somewhere a storm is
    *always* raging — one cluster serving the whole planet faces wall-to-
    wall storms whose queues and model churn pile on top of each other —
    but any single region storms only ``1/regions`` of the time and
    idles (draining queues, expiring instances) between its slots.  This
    is the federation's showcase regime: region-sharded clusters each
    see a sparse storm train, the monolith sees the superposition.
    ``load_factor`` scales the total budget (overload knob, as in
    ``million-burst``).
    """
    if regions < 1:
        raise ValueError("regions must be >= 1")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if not 0.0 <= storm_share <= 1.0:
        raise ValueError("storm_share must be in [0, 1]")
    if load_factor <= 0.0:
        raise ValueError("load_factor must be positive")
    rate_rng = make_rng(seed, "global-storm-rates")
    arrival_rng = make_rng(seed, "global-storm-arrivals")
    length_rng = make_rng(seed, "global-storm-lengths")

    models = replica_models(model, n_models)
    names = list(models)
    weights = _zipf_weights(n_models, zipf_exponent, rate_rng)
    total_target = requests_per_model * n_models * load_factor
    lengths = _length_distribution(dataset)

    region_of = {name: _region_of(name, regions) for name in names}
    region_weight = [0.0] * regions
    for name, weight in zip(names, weights):
        region_weight[region_of[name]] += weight

    slots = regions * cycles
    slot_width = duration / slots
    storm_budget = storm_share * total_target / slots

    times_by_model: dict[int, list[float]] = {index: [] for index in range(n_models)}
    # Background: stationary Poisson for every deployment.
    for index, weight in enumerate(weights):
        count = int(arrival_rng.poisson((1.0 - storm_share) * total_target * weight))
        if count:
            times_by_model[index].extend(arrival_rng.uniform(0.0, duration, size=count).tolist())
    # Storm train: slot s drops a full storm budget on region s mod regions,
    # split across that region's deployments by their popularity.
    for slot in range(slots):
        region = slot % regions
        start = slot * slot_width
        end = min(duration, start + slot_width)
        share_base = region_weight[region]
        for index, name in enumerate(names):
            if region_of[name] != region:
                continue
            share = weights[index] / share_base if share_base > 0 else 0.0
            count = int(arrival_rng.poisson(storm_budget * share))
            if count:
                times_by_model[index].extend(
                    arrival_rng.uniform(start, end, size=count).tolist()
                )

    groups: list[ArrayGroup] = []
    for index, name in enumerate(names):
        times = times_by_model[index]
        if times:
            groups.append(_emit(name, times, length_rng, lengths, model))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"global-storm-{n_models}m", deployments, groups, duration)


# ----------------------------------------------------------------------
# Flash-crowd spike
# ----------------------------------------------------------------------
@SCENARIOS.register("bursty-spike")
def bursty_spike(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    spike_factor: float = 8.0,
    spike_start: float = 0.4,
    spike_width: float = 0.1,
    spike_share: float = 0.125,
    zipf_exponent: float = 1.2,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """Background traffic plus a coordinated flash crowd.

    Every deployment receives stationary Poisson background load; inside
    the window ``[spike_start, spike_start + spike_width]`` (fractions of
    the trace) the hottest ``spike_share`` of deployments additionally
    receive ``spike_factor`` times their whole-trace background volume,
    concentrated in the window — the worst case for keep-alive and
    consolidation policies.
    """
    if not 0.0 < spike_width <= 1.0 or not 0.0 <= spike_start < 1.0:
        raise ValueError("spike window must lie inside the trace")
    rate_rng = make_rng(seed, "spike-rates")
    arrival_rng = make_rng(seed, "spike-arrivals")
    length_rng = make_rng(seed, "spike-lengths")

    models = replica_models(model, n_models)
    names = list(models)
    weights = _zipf_weights(n_models, zipf_exponent, rate_rng)
    total_target = requests_per_model * n_models
    lengths = _length_distribution(dataset)

    hot_count = max(1, round(n_models * spike_share))
    hot = set(np.argsort(weights)[::-1][:hot_count])
    window_start = spike_start * duration
    window_end = min(duration, (spike_start + spike_width) * duration)

    groups: list[ArrayGroup] = []
    for index, (name, weight) in enumerate(zip(names, weights)):
        base_count = int(arrival_rng.poisson(total_target * weight))
        times = arrival_rng.uniform(0.0, duration, size=base_count).tolist()
        if index in hot:
            surge = int(arrival_rng.poisson(spike_factor * total_target * weight))
            times += arrival_rng.uniform(window_start, window_end, size=surge).tolist()
        if times:
            groups.append(_emit(name, times, length_rng, lengths, model))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"bursty-spike-{n_models}m", deployments, groups, duration)


# ----------------------------------------------------------------------
# Heterogeneous fleet (promoted from examples/mixed_fleet.py)
# ----------------------------------------------------------------------
_SIZE_SPECS: tuple[ModelSpec, ...] = (LLAMA32_3B, LLAMA2_7B, LLAMA2_13B, CODELLAMA_34B)


@SCENARIOS.register("mixed-fleet")
def mixed_fleet(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    ratio: tuple[int, int, int, int] = (4, 1, 1, 1),
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """§IX-E: a 3B/7B/13B/34B fleet, the 34B tensor-parallel over 2 GPUs.

    ``ratio`` gives the population weights for the four sizes.  The
    ``model`` argument is ignored — the fleet's composition is the point.
    """
    ratio = tuple(ratio)
    if len(ratio) != len(_SIZE_SPECS):
        raise ValueError(f"ratio must have {len(_SIZE_SPECS)} entries, got {len(ratio)}")
    specs = {
        spec: weight for spec, weight in zip(_SIZE_SPECS, ratio) if weight > 0
    }
    models = mixed_models(specs, total=n_models, seed=seed)
    config = AzureServerlessConfig(
        n_models=n_models,
        duration=duration,
        requests_per_model=requests_per_model,
        seed=seed,
    )
    tp_degrees = {name: 2 for name, spec in models.items() if spec is CODELLAMA_34B}
    return _azure_stream(
        f"mixed-fleet-{n_models}m", models, config, _length_distribution(dataset), tp_degrees
    )


# ----------------------------------------------------------------------
# Heterogeneous hardware companions (topology-aware cluster studies)
# ----------------------------------------------------------------------
@SCENARIOS.register("het-fleet")
def het_fleet(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    ratio: tuple[int, int, int] = (3, 2, 1),
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """A 3B/7B/13B population for mixed-generation GPU fleets.

    Pair with the ``het-gpu`` cluster (2 CPU + 2 A100 + 2 V100-32GB):
    the 13B deployments are comfortable on an A100 but memory-tight and
    slow on a V100, so spec-aware placement is doing real work.
    ``ratio`` gives the population weights for the three sizes; the
    ``model`` argument is ignored.
    """
    ratio = tuple(ratio)
    sizes = (LLAMA32_3B, LLAMA2_7B, LLAMA2_13B)
    if len(ratio) != len(sizes):
        raise ValueError(f"ratio must have {len(sizes)} entries, got {len(ratio)}")
    specs = {spec: weight for spec, weight in zip(sizes, ratio) if weight > 0}
    models = mixed_models(specs, total=n_models, seed=seed)
    config = AzureServerlessConfig(
        n_models=n_models,
        duration=duration,
        requests_per_model=requests_per_model,
        seed=seed,
    )
    return _azure_stream(f"het-fleet-{n_models}m", models, config, _length_distribution(dataset))


@SCENARIOS.register("cold-churn")
def cold_churn(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    waves: int = 6,
    wave_width: float = 0.5,
    background_share: float = 0.1,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """Rotating activity waves that keep the fleet cold-starting.

    The trace window splits into ``waves`` slots; deployment ``d`` is
    active only in slot ``d mod waves`` (inside the leading
    ``wave_width`` of the slot) plus a thin stationary background
    (``background_share`` of its budget).  Between waves a deployment
    goes idle long enough for keep-alive reclaim, so every wave opens
    with a burst of *concurrent* model loads — the workload that makes
    an oversubscribed NIC (``rack-oversub`` cluster, ``oversub-nic``
    topology) the bottleneck.
    """
    if waves < 1:
        raise ValueError("waves must be >= 1")
    if not 0.0 < wave_width <= 1.0 or not 0.0 <= background_share <= 1.0:
        raise ValueError("wave_width must be in (0, 1] and background_share in [0, 1]")
    arrival_rng = make_rng(seed, "cold-churn-arrivals")
    length_rng = make_rng(seed, "cold-churn-lengths")

    models = replica_models(model, n_models)
    names = list(models)
    lengths = _length_distribution(dataset)
    slot = duration / waves

    groups: list[ArrayGroup] = []
    for index, name in enumerate(names):
        times: list[float] = []
        background = int(arrival_rng.poisson(background_share * requests_per_model))
        if background:
            times.extend(arrival_rng.uniform(0.0, duration, size=background).tolist())
        burst = int(arrival_rng.poisson((1.0 - background_share) * requests_per_model))
        if burst:
            start = (index % waves) * slot
            end = min(duration, start + wave_width * slot)
            times.extend(arrival_rng.uniform(start, end, size=burst).tolist())
        if times:
            groups.append(_emit(name, times, length_rng, lengths, model))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"cold-churn-{n_models}m", deployments, groups, duration)


@SCENARIOS.register("decode-marathon")
def decode_marathon(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    input_len: int = 64,
    output_len: int = 3500,
    stagger: float = 15.0,
) -> GroupedStream:
    """Sustained long-decode streams: the chained-decode regime.

    Short prompts, near-maximum-length outputs, and a gentle staggered
    trickle of arrivals keep each instance decoding a stable batch for
    the whole window, so virtually every simulated event is a decode
    iteration on unchanged state.  This is the regime the vectorized
    engine's batched fast-forward targets: the ``engine-vectorized``
    bench case runs it on a single-GPU cluster, and the parity suite
    pins the batched path byte-identical to the reference engine.
    """
    if stagger <= 0:
        raise ValueError("stagger must be positive")
    rng = make_rng(seed, "decode-marathon")
    models = replica_models(model, n_models)
    out_len = max(1, min(output_len, model.max_context - input_len - 1))
    count = max(1, int(round(requests_per_model)))

    requests: list[RequestSpec] = []
    for index, name in enumerate(models):
        phase = stagger * index / max(1, n_models)
        for j in range(count):
            time = phase + j * stagger + float(rng.uniform(0.0, 0.25 * stagger))
            if time >= duration:
                break
            requests.append(RequestSpec(name, time, input_len, out_len))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(
        f"decode-marathon-{n_models}m", deployments, [SpecGroup(requests)], duration
    )


# ----------------------------------------------------------------------
# Prefix-sharing workloads (pair with ``--kv-sharing on``)
# ----------------------------------------------------------------------
@SCENARIOS.register("shared-sysprompt")
def shared_sysprompt(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    sys_tokens: int = 1024,
    user_tokens: int = 160,
    output_tokens: int = 96,
    train_len: int = 10,
    headway: float = 5.0,
    zipf_exponent: float = 1.2,
) -> GroupedStream:
    """Prompts dominated by one long per-deployment system prompt.

    Every request to deployment ``d`` opens with ``d``'s ``sys_tokens``
    system prompt (the same content every time, named
    ``{d}-sys:{sys_tokens}``), followed by a short user turn.  Arrivals
    come in session trains — up to ``train_len`` requests ``headway``
    seconds apart — so an instance stays warm across a train instead of
    being keep-alive-reclaimed between sparse arrivals.  With sharing
    on, a train's leader (and any follower landing before the leader's
    prefill commits) prefills the system prompt; the rest hit the radix
    cache, so the prefix hit rate approaches
    ``sys_tokens / mean(input_len)`` — the regime the
    ``prefix_hit_rate > 0.5`` calibration anchor pins.  Sharing off, it
    is an ordinary bursty workload.
    """
    if sys_tokens <= 0 or user_tokens <= 0 or output_tokens <= 0:
        raise ValueError("token parameters must be positive")
    if train_len < 1 or headway <= 0:
        raise ValueError("train_len must be >= 1 and headway positive")
    rate_rng = make_rng(seed, "shared-sysprompt-rates")
    arrival_rng = make_rng(seed, "shared-sysprompt-arrivals")
    length_rng = make_rng(seed, "shared-sysprompt-lengths")

    models = replica_models(model, n_models)
    weights = _zipf_weights(n_models, zipf_exponent, rate_rng)
    total_target = requests_per_model * n_models

    groups: list[ArrayGroup] = []
    for name, weight in zip(models, weights):
        count = int(arrival_rng.poisson(total_target * weight))
        if count == 0:
            continue
        times: list[float] = []
        while len(times) < count:
            start = float(arrival_rng.uniform(0.0, duration))
            for step in range(min(train_len, count - len(times))):
                time = start + step * headway * float(arrival_rng.uniform(0.8, 1.2))
                if time >= duration:
                    break
                times.append(time)
        users = length_rng.integers(
            max(1, user_tokens // 2), user_tokens * 3 // 2 + 1, size=count
        )
        outs = length_rng.integers(
            max(1, output_tokens // 2), output_tokens * 3 // 2 + 1, size=count
        )
        groups.append(
            ArrayGroup(
                name,
                times,
                sys_tokens + users,
                outs,
                prefix_id=f"{name}-sys:{sys_tokens}",
                prefix_len=sys_tokens,
            )
        )

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"shared-sysprompt-{n_models}m", deployments, groups, duration)


@SCENARIOS.register("agentic-loop")
def agentic_loop(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    turns: int = 6,
    seed_tokens: int = 520,
    turn_tokens: int = 128,
    output_tokens: int = 64,
    think_seconds: float = 3.0,
) -> GroupedStream:
    """Multi-turn agent sessions re-submitting a growing context.

    Each session issues up to ``turns`` requests: turn ``j``'s prompt is
    the deployment's shared seed prompt plus all earlier turns' segments
    plus a fresh one, and its prefix path extends the previous turn's
    (``sys:520/s0t1:131/...``).  With sharing on, each turn's prefill
    re-computes only the newly appended segment — the radix tree grows
    one path per session off the common seed.  The seed length is
    deliberately *not* block-aligned, so different sessions' first turns
    diverge inside the seed's last block and exercise the copy-on-write
    path.
    """
    if turns < 1:
        raise ValueError("turns must be >= 1")
    if seed_tokens <= 0 or turn_tokens <= 0 or output_tokens <= 0:
        raise ValueError("token parameters must be positive")
    if think_seconds <= 0:
        raise ValueError("think_seconds must be positive")
    rng = make_rng(seed, "agentic-loop")
    models = replica_models(model, n_models)
    sessions = max(1, int(round(requests_per_model / turns)))

    requests: list[RequestSpec] = []
    for name in models:
        for session in range(sessions):
            time = float(rng.uniform(0.0, duration))
            segments: list[tuple[str, int]] = [("sys", seed_tokens)]
            for turn in range(turns):
                if turn > 0:
                    length = int(
                        rng.integers(max(1, turn_tokens // 2), turn_tokens * 3 // 2 + 1)
                    )
                    segments.append((f"s{session}t{turn}", length))
                    time += think_seconds * float(rng.uniform(0.5, 1.5))
                if time >= duration:
                    break
                total = sum(length for _, length in segments)
                path = "/".join(f"{label}:{length}" for label, length in segments)
                out = int(
                    rng.integers(max(1, output_tokens // 2), output_tokens * 3 // 2 + 1)
                )
                requests.append(
                    RequestSpec(name, time, total, out, prefix_id=path, prefix_len=total)
                )

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(
        f"agentic-loop-{n_models}m", deployments, [SpecGroup(requests)], duration
    )


@SCENARIOS.register("prefix-mix")
def prefix_mix(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    share: float = 0.5,
    prefix_tokens: int = 512,
    zipf_exponent: float = 1.2,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """A tunable mix of prefix-carrying and unique-prompt requests.

    A ``share`` fraction of each deployment's requests (Bernoulli per
    request) open with the deployment's common ``prefix_tokens`` prefix;
    the rest are ordinary unique prompts from ``dataset``.  Sweeping
    ``share`` — or the ad-hoc ``prefix-mix{P}`` scenario spelling, which
    pins it to ``P`` percent — traces prefix-cache benefit as a function
    of achievable hit rate.
    """
    if not 0.0 <= share <= 1.0:
        raise ValueError("share must be in [0, 1]")
    if prefix_tokens <= 0:
        raise ValueError("prefix_tokens must be positive")
    rate_rng = make_rng(seed, "prefix-mix-rates")
    arrival_rng = make_rng(seed, "prefix-mix-arrivals")
    length_rng = make_rng(seed, "prefix-mix-lengths")

    models = replica_models(model, n_models)
    weights = _zipf_weights(n_models, zipf_exponent, rate_rng)
    total_target = requests_per_model * n_models
    lengths = _length_distribution(dataset)

    groups: list[SpecGroup] = []
    for name, weight in zip(models, weights):
        count = int(arrival_rng.poisson(total_target * weight))
        if count == 0:
            continue
        times = arrival_rng.uniform(0.0, duration, size=count)
        input_lens = lengths.sample_input_lens(length_rng, count)
        output_lens = lengths.sample_output_lens(length_rng, count)
        # Shared requests prepend the common prefix, so their user part
        # must leave room for it inside the context window.
        input_lens = clamp_input_lens(
            input_lens, output_lens, model.max_context - prefix_tokens
        )
        shared_flags = length_rng.uniform(0.0, 1.0, size=count) < share
        prefix_id = f"{name}-common:{prefix_tokens}"
        specs: list[RequestSpec] = []
        for time, input_len, output_len, shared in zip(
            times.tolist(), input_lens.tolist(), output_lens.tolist(), shared_flags.tolist()
        ):
            if shared:
                specs.append(
                    RequestSpec(
                        name,
                        time,
                        prefix_tokens + input_len,
                        output_len,
                        prefix_id=prefix_id,
                        prefix_len=prefix_tokens,
                    )
                )
            else:
                specs.append(RequestSpec(name, time, input_len, output_len))
        groups.append(SpecGroup(specs))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(f"prefix-mix-{n_models}m", deployments, groups, duration)


@SCENARIOS.register("cpu-harvest")
def cpu_harvest(
    model: ModelSpec,
    n_models: int,
    duration: float,
    requests_per_model: float,
    seed: int,
    *,
    dataset: str = "azure-conversation",
) -> GroupedStream:
    """Fig. 29: small-model traffic a harvested-core CPU can still serve.

    Replica deployments of the 3B model on the azure arrival process —
    light enough that 4th-gen Xeon nodes stay SLO-feasible as their
    core count shrinks.  Sweep it across ``harvest{C}`` clusters
    (``--clusters harvest8,harvest16,harvest32``) to reproduce the
    CPU-spec sensitivity axis; the ``model`` argument is ignored.
    """
    config = AzureServerlessConfig(
        n_models=n_models,
        duration=duration,
        requests_per_model=requests_per_model,
        seed=seed,
    )
    return _azure_stream(
        f"cpu-harvest-{n_models}m",
        replica_models(LLAMA32_3B, n_models),
        config,
        _length_distribution(dataset),
    )
