"""The registered workload scenarios: shape and determinism."""

import pytest

from repro.models import CODELLAMA_34B, LLAMA2_7B
from repro.registry import SCENARIOS


def build(name, n_models=16, duration=600.0, requests_per_model=24.0, seed=3, **params):
    trace = SCENARIOS.get(name)(LLAMA2_7B, n_models, duration, requests_per_model, seed, **params)
    return trace.materialize()


@pytest.mark.parametrize(
    "name",
    [
        "azure",
        "burstgpt",
        "diurnal",
        "bursty-spike",
        "mixed-fleet",
        "diurnal-week",
        "million-burst",
        "het-fleet",
        "cold-churn",
        "cpu-harvest",
        "decode-marathon",
        "shared-sysprompt",
        "agentic-loop",
        "prefix-mix",
    ],
)
def test_scenarios_build_valid_workloads(name):
    workload = build(name)
    assert len(workload.deployments) == 16
    assert workload.duration == 600.0
    assert workload.total_requests > 0
    assert all(0.0 <= r.arrival < 600.0 for r in workload.requests)


@pytest.mark.parametrize(
    "name, trace_name",
    [
        ("azure", "azure-serverless-16m"),
        ("burstgpt", "burstgpt-0.64rps"),
        ("mixed-fleet", "mixed-fleet-16m"),
        ("het-fleet", "het-fleet-16m"),
        ("cpu-harvest", "cpu-harvest-16m"),
        ("diurnal", "diurnal-16m"),
    ],
)
def test_scenarios_name_their_traces(name, trace_name):
    assert SCENARIOS.get(name)(LLAMA2_7B, 16, 600.0, 24.0, 3).name == trace_name


@pytest.mark.parametrize(
    "name",
    [
        "diurnal",
        "bursty-spike",
        "mixed-fleet",
        "diurnal-week",
        "million-burst",
        "het-fleet",
        "cold-churn",
        "cpu-harvest",
        "decode-marathon",
        "shared-sysprompt",
        "agentic-loop",
        "prefix-mix",
    ],
)
def test_scenarios_deterministic_per_seed(name):
    first, second = build(name), build(name)
    assert [(r.deployment, r.arrival, r.input_len, r.output_len) for r in first.requests] == [
        (r.deployment, r.arrival, r.input_len, r.output_len) for r in second.requests
    ]
    different = build(name, seed=4)
    assert [r.arrival for r in first.requests] != [r.arrival for r in different.requests]


def test_diurnal_concentrates_load_at_the_peak():
    workload = build("diurnal", n_models=32, requests_per_model=40.0, peak_to_trough=6.0)
    counts = workload.per_minute_counts()
    # One cycle starting at the trough: the middle of the trace is the peak.
    edge = sum(counts[:2]) + sum(counts[-2:])
    middle = sum(counts[4:6])
    assert middle > edge


def test_bursty_spike_floods_the_window():
    workload = build(
        "bursty-spike",
        n_models=32,
        requests_per_model=20.0,
        spike_factor=10.0,
        spike_start=0.5,
        spike_width=0.1,
    )
    duration = workload.duration
    window = [r for r in workload.requests if 0.5 * duration <= r.arrival < 0.6 * duration]
    # The 10% window holds far more than 10% of the traffic.
    assert len(window) > 0.4 * workload.total_requests


def test_bursty_spike_rejects_bad_window():
    with pytest.raises(ValueError):
        build("bursty-spike", spike_start=1.2)


def test_mixed_fleet_runs_34b_tensor_parallel():
    workload = build("mixed-fleet", n_models=24)
    tp2 = [d for d in workload.deployments.values() if d.tp_degree == 2]
    assert tp2, "expected TP-2 deployments in the mixed fleet"
    assert all(d.model is CODELLAMA_34B for d in tp2)
    sizes = {d.model.size_label for d in workload.deployments.values()}
    assert len(sizes) == 4


def test_mixed_fleet_ratio_validation():
    with pytest.raises(ValueError):
        build("mixed-fleet", ratio=(1, 2))


def test_diurnal_week_has_seven_cycles_with_quieter_weekend():
    workload = build(
        "diurnal-week", n_models=32, requests_per_model=60.0, weekend_factor=0.3
    )
    duration = workload.duration
    day = duration / 7.0
    per_day = [0] * 7
    for request in workload.requests:
        per_day[min(6, int(request.arrival / day))] += 1
    weekday_mean = sum(per_day[:5]) / 5.0
    weekend_mean = sum(per_day[5:]) / 2.0
    assert weekend_mean < 0.6 * weekday_mean, per_day


def test_diurnal_week_rejects_bad_params():
    with pytest.raises(ValueError):
        build("diurnal-week", peak_to_trough=0.5)
    with pytest.raises(ValueError):
        build("diurnal-week", weekend_factor=0.0)


def test_million_burst_scales_budget_and_concentrates_bursts():
    stationary = build("azure", n_models=32, requests_per_model=20.0)
    storm = build(
        "million-burst",
        n_models=32,
        requests_per_model=20.0,
        load_factor=4.0,
        bursts=4,
        burst_width=0.2,
        burst_share=0.5,
    )
    # The storm carries ~load_factor times the stationary volume...
    assert storm.total_requests > 3.0 * stationary.total_requests
    # ...with the burst half of it inside the four 20%-of-slot windows
    # (20% of the trace overall holds well over 20% of the traffic).
    duration = storm.duration
    slot = duration / 4.0
    window = 0.2 * slot
    in_windows = 0
    for request in storm.requests:
        burst = min(3, int(request.arrival / slot))
        start = burst * slot + (slot - window) / 2.0
        if start <= request.arrival < start + window:
            in_windows += 1
    assert in_windows > 0.4 * storm.total_requests


def test_million_burst_rejects_bad_params():
    with pytest.raises(ValueError):
        build("million-burst", load_factor=0.0)
    with pytest.raises(ValueError):
        build("million-burst", bursts=0)
    with pytest.raises(ValueError):
        build("million-burst", burst_width=1.5)
    with pytest.raises(ValueError):
        build("million-burst", hot_share=1.5)


def test_het_fleet_mixes_three_sizes_that_fit_different_gpus():
    from repro.hardware import A100_80GB, V100_32GB
    from repro.models import LLAMA2_13B

    workload = build("het-fleet", n_models=12)
    sizes = {d.model.name for d in workload.deployments.values()}
    assert len(sizes) == 3
    # The point of the scenario: the 13B deployments are comfortable on
    # an A100 but memory-tight on a 32 GiB V100, so spec-aware placement
    # is doing real work on the het-gpu cluster.
    assert LLAMA2_13B.weight_bytes < 0.35 * A100_80GB.memory_bytes
    assert LLAMA2_13B.weight_bytes > 0.7 * V100_32GB.memory_bytes


def test_het_fleet_ratio_validation():
    with pytest.raises(ValueError, match="ratio"):
        build("het-fleet", ratio=(1, 2))


def test_cold_churn_staggers_activity_into_waves():
    waves = 4
    workload = build("cold-churn", n_models=8, waves=waves, background_share=0.0)
    slot = workload.duration / waves
    names = sorted(workload.deployments)
    for name, deployment_requests in _by_deployment(workload).items():
        index = names.index(name)
        start = (index % waves) * slot
        end = start + 0.5 * slot
        assert all(start <= r.arrival <= end for r in deployment_requests)


def test_cold_churn_rejects_bad_params():
    with pytest.raises(ValueError):
        build("cold-churn", waves=0)
    with pytest.raises(ValueError):
        build("cold-churn", wave_width=0.0)
    with pytest.raises(ValueError):
        build("cold-churn", background_share=1.5)


def test_cpu_harvest_uses_the_small_cpu_servable_model():
    from repro.models import LLAMA32_3B

    workload = build("cpu-harvest", n_models=6)
    assert all(d.model is LLAMA32_3B for d in workload.deployments.values())


def _by_deployment(workload):
    grouped = {}
    for request in workload.requests:
        grouped.setdefault(request.deployment, []).append(request)
    return grouped


def test_dataset_param_selects_length_distribution():
    conv = build("azure", dataset="azure-conversation")
    code = build("azure", dataset="azure-code")
    # Code outputs are much shorter than conversation outputs on average.
    mean_out = lambda w: sum(r.output_len for r in w.requests) / w.total_requests
    assert mean_out(code) < mean_out(conv)
    with pytest.raises(KeyError):
        build("azure", dataset="no-such-dataset")


def test_decode_marathon_is_decode_dominated():
    workload = build("decode-marathon", n_models=4, requests_per_model=8.0)
    for request in workload.requests:
        # Short prompts, near-max outputs clamped inside the context
        # window: the run spends virtually all its events decoding.
        assert request.input_len == 64
        assert request.output_len >= 100 * request.input_len // 10
        assert request.input_len + request.output_len < LLAMA2_7B.max_context
    # A staggered trickle, not a burst: per-model arrivals are spread
    # at least half the stagger apart.
    by_model = {}
    for request in workload.requests:
        by_model.setdefault(request.deployment, []).append(request.arrival)
    for arrivals in by_model.values():
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(gap > 7.5 for gap in gaps)


def test_decode_marathon_rejects_bad_stagger():
    with pytest.raises(ValueError):
        build("decode-marathon", stagger=0.0)


def test_shared_sysprompt_every_request_opens_with_the_system_prompt():
    workload = build("shared-sysprompt", n_models=8, sys_tokens=512)
    for request in workload.requests:
        assert request.prefix_id == f"{request.deployment}-sys:512"
        assert request.prefix_len == 512
        assert request.input_len > 512  # user turn on top of the prompt
    # Session trains, not uniform Poisson: per-model arrivals include
    # intra-train gaps near the 5 s headway (with its 0.8–1.2 jitter).
    for arrivals in (sorted(a) for a in _arrivals_by_model(workload).values()):
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert any(gap <= 6.0 for gap in gaps)


def test_agentic_loop_turns_extend_the_session_path():
    workload = build("agentic-loop", n_models=4, turns=5)
    for request in workload.requests:
        head = request.prefix_id.split("/")[0]
        assert head.startswith("sys:")  # the shared seed opens every path
        assert request.prefix_len == request.input_len  # whole prompt is named
    depths = {request.prefix_id.count("/") for request in workload.requests}
    assert depths == set(range(5))  # turns 0..4 all present


def test_prefix_mix_share_controls_the_shared_fraction():
    workload = build("prefix-mix", n_models=8, requests_per_model=40.0, share=0.5)
    shared = [r for r in workload.requests if r.prefix_id]
    fraction = len(shared) / workload.total_requests
    assert 0.35 < fraction < 0.65
    assert all(r.prefix_len == 512 for r in shared)
    assert all(r.input_len > r.prefix_len for r in shared)


def test_prefix_mix_rejects_bad_share():
    with pytest.raises(ValueError):
        build("prefix-mix", share=1.5)


def _arrivals_by_model(workload):
    grouped = {}
    for request in workload.requests:
        grouped.setdefault(request.deployment, []).append(request.arrival)
    return grouped
