"""Unit tests for the SURGE session model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http import FilePopulation, Request
from repro.workload import SessionPlan, SurgeConfig, SurgeWorkload


def make_workload(config=None):
    rng = np.random.default_rng(31)
    files = FilePopulation(rng, n_files=300)
    return SurgeWorkload(files, config)


def test_session_plan_structure():
    w = make_workload()
    plan = w.sample_session(np.random.default_rng(1))
    assert len(plan.groups) >= 1
    assert all(len(g) >= 1 for g in plan.groups)
    assert len(plan.think_times) == len(plan.groups) - 1
    assert plan.inter_session_gap >= 0
    assert plan.total_requests == sum(len(g) for g in plan.groups)


def test_requests_per_session_near_paper_value():
    w = make_workload()
    rng = np.random.default_rng(2)
    mean_reqs = np.mean(
        [w.sample_session(rng).total_requests for _ in range(5000)]
    )
    # The paper: ~6.5 requests per session on average.
    assert 5.0 < mean_reqs < 8.0


def test_group_sizes_respect_pipeline_cap():
    cfg = SurgeConfig(max_group_size=3)
    w = make_workload(cfg)
    rng = np.random.default_rng(3)
    for _ in range(500):
        plan = w.sample_session(rng)
        assert all(len(g) <= 3 for g in plan.groups)


def test_requests_carry_population_sizes():
    w = make_workload()
    plan = w.sample_session(np.random.default_rng(4))
    for group in plan.groups:
        for req in group:
            assert req.response_bytes == w.files.size_of(req.file_id)
            assert req.path == f"/file/{req.file_id}"


def test_think_times_bounded():
    cfg = SurgeConfig(think_max=30.0)
    w = make_workload(cfg)
    rng = np.random.default_rng(5)
    thinks = []
    for _ in range(3000):
        thinks.extend(w.sample_session(rng).think_times)
    assert max(thinks) <= 30.0
    assert min(thinks) >= cfg.think_k


def test_sampling_deterministic_for_seed():
    w = make_workload()
    p1 = w.sample_session(np.random.default_rng(6))
    p2 = w.sample_session(np.random.default_rng(6))
    assert p1.total_requests == p2.total_requests
    assert p1.think_times == p2.think_times
    assert [r.file_id for g in p1.groups for r in g] == [
        r.file_id for g in p2.groups for r in g
    ]


def test_offered_load_estimate_positive_and_sane():
    w = make_workload()
    load = w.offered_load_per_client()
    # Calibrated to ~1 request/s per client (see SurgeConfig docs).
    assert 0.5 < load < 2.0


def test_reset_exposure_probability():
    w = make_workload()
    p = w.reset_exposure_probability(15.0)
    assert 0.001 < p < 0.02
    assert w.reset_exposure_probability(5.0) > p


def test_no_inter_session_think_config():
    cfg = SurgeConfig(inter_session_think=False)
    w = make_workload(cfg)
    plan = w.sample_session(np.random.default_rng(8))
    assert plan.inter_session_gap == 0.0


def test_mean_requests_analytic_estimate():
    cfg = SurgeConfig()
    w = make_workload(cfg)
    rng = np.random.default_rng(9)
    sampled = np.mean(
        [w.sample_session(rng).total_requests for _ in range(100_000)]
    )
    assert cfg.mean_requests_per_session() == pytest.approx(sampled, rel=0.01)


def reference_sample_session(workload, rng):
    """The session sampler as one draw per value: the behavioural spec.

    The group count, each group's size, the session's file picks (one
    vectorised popularity draw), each think gap and the inter-session
    gap, in that order, with a fresh :class:`Request` per pick.
    ``SurgeWorkload.sample_session`` batches the draws and shares
    requests, and must agree with this exactly.
    """
    n_groups = max(1, int(workload._groups.sample(rng)))
    group_sizes = [
        max(1, int(workload._embedded.sample(rng))) for _ in range(n_groups)
    ]
    file_ids = workload.files.sample_files(rng, sum(group_sizes))
    sizes = workload.files.sizes[file_ids]
    groups = []
    cursor = 0
    for n_objects in group_sizes:
        group = [
            Request(
                path=f"/file/{file_ids[cursor + j]}",
                response_bytes=int(sizes[cursor + j]),
                file_id=int(file_ids[cursor + j]),
            )
            for j in range(n_objects)
        ]
        cursor += n_objects
        groups.append(group)
    think_times = [workload._think.sample(rng) for _ in range(n_groups - 1)]
    gap = (
        workload._think.sample(rng)
        if workload.config.inter_session_think
        else 0.0
    )
    return SessionPlan(groups, think_times, gap)


def _plan_key(plan):
    return (
        [
            [(r.path, r.response_bytes, r.file_id) for r in group]
            for group in plan.groups
        ],
        plan.think_times,
        plan.inter_session_gap,
    )


@st.composite
def surge_configs(draw):
    think_k = draw(st.floats(0.05, 2.0))
    return SurgeConfig(
        groups_per_session=draw(st.floats(1.0, 12.0)),
        embedded_alpha=draw(st.floats(0.5, 4.0)),
        max_group_size=draw(st.integers(2, 8)),
        think_alpha=draw(st.floats(0.5, 3.0)),
        think_k=think_k,
        think_max=think_k * draw(st.floats(1.5, 300.0)),
        inter_session_think=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_files=st.integers(1, 3000),
    cfg=surge_configs(),
)
def test_sample_session_matches_one_draw_per_value_reference(seed, n_files, cfg):
    files = FilePopulation(np.random.default_rng(seed ^ 0x5EED), n_files)
    w = SurgeWorkload(files, cfg)
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    for _ in range(6):
        assert _plan_key(w.sample_session(rng_fast)) == _plan_key(
            reference_sample_session(w, rng_ref)
        )
    # Same stream position afterwards: the batching consumed exactly
    # the draws the reference did.
    assert rng_fast.random() == rng_ref.random()


def test_sessions_share_one_frozen_request_per_file():
    files = FilePopulation(np.random.default_rng(31), n_files=5)
    w = SurgeWorkload(files)
    rng = np.random.default_rng(10)
    plans = [w.sample_session(rng) for _ in range(50)]
    requests = [r for plan in plans for group in plan.groups for r in group]
    first = {r.file_id: r for r in plans[0].groups[0]}
    again = [
        r
        for plan in plans[1:]
        for group in plan.groups
        for r in group
        if r.file_id in first
    ]
    assert again
    assert all(r is first[r.file_id] for r in again)
    # One object per distinct file across all fifty sessions.
    assert len({id(r) for r in requests}) == len({r.file_id for r in requests})
    req = requests[0]
    assert req is files.request_for(req.file_id)
    with pytest.raises(dataclasses.FrozenInstanceError):
        req.response_bytes = 1
