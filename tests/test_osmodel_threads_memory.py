"""Unit tests for memory accounting, thread registry and cost model."""

import pytest

from repro.osmodel import (
    CPU,
    CostModel,
    Machine,
    MachineSpec,
    MemoryAccount,
    MemoryExhausted,
    ThreadLimitExceeded,
    ThreadRegistry,
)
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# MemoryAccount
# ---------------------------------------------------------------------------

def test_memory_allocate_and_free():
    mem = MemoryAccount(1000)
    mem.allocate(400)
    assert mem.used_bytes == 400
    assert mem.free_bytes == 600
    mem.free(150)
    assert mem.used_bytes == 250
    assert mem.peak_bytes == 400


def test_memory_exhaustion_raises():
    mem = MemoryAccount(1000)
    mem.allocate(900)
    with pytest.raises(MemoryExhausted):
        mem.allocate(200, what="thread stack")


def test_memory_free_more_than_used_raises():
    mem = MemoryAccount(1000)
    mem.allocate(10)
    with pytest.raises(ValueError):
        mem.free(20)


def test_memory_negative_amounts_rejected():
    mem = MemoryAccount(1000)
    with pytest.raises(ValueError):
        mem.allocate(-1)
    with pytest.raises(ValueError):
        mem.free(-1)


def test_memory_pressure_penalty_curve():
    mem = MemoryAccount(1000, pressure_threshold=0.8, swap_penalty=0.4)
    mem.allocate(500)
    assert mem.cpu_penalty_factor() == 1.0  # below threshold
    mem.allocate(400)  # 90% used: halfway into the penalty band
    assert mem.cpu_penalty_factor() == pytest.approx(1.0 - 0.4 * 0.5)
    mem.allocate(100)  # fully used
    assert mem.cpu_penalty_factor() == pytest.approx(0.6)


def test_memory_invalid_construction():
    with pytest.raises(ValueError):
        MemoryAccount(0)
    with pytest.raises(ValueError):
        MemoryAccount(100, pressure_threshold=0.0)


# ---------------------------------------------------------------------------
# ThreadRegistry
# ---------------------------------------------------------------------------

def make_registry(**kwargs):
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    mem = MemoryAccount(kwargs.pop("memory", 2 * 1024**3))
    reg = ThreadRegistry(sim, cpu, mem, **kwargs)
    return sim, cpu, mem, reg


def test_spawn_and_exit_track_counts():
    _sim, _cpu, mem, reg = make_registry(default_stack_bytes=1024)
    t1 = reg.spawn("worker-1")
    t2 = reg.spawn("worker-2")
    assert reg.live == 2
    assert mem.used_bytes == 2048
    t1.exit()
    assert reg.live == 1
    assert mem.used_bytes == 1024
    t1.exit()  # idempotent
    assert reg.live == 1
    t2.exit()
    assert reg.live == 0
    assert reg.peak == 2
    assert reg.spawned == 2


def test_thread_mgmt_overhead_lowers_cpu_capacity():
    _sim, cpu, _mem, reg = make_registry(
        mgmt_overhead_per_thread=1e-4, default_stack_bytes=1024
    )
    threads = reg.spawn_pool("w", 1000)
    assert cpu.capacity_factor == pytest.approx(0.9)
    for t in threads:
        t.exit()
    assert cpu.capacity_factor == pytest.approx(1.0)


def test_thread_limit_enforced():
    _sim, _cpu, _mem, reg = make_registry(
        max_threads=2, default_stack_bytes=1024
    )
    reg.spawn("a")
    reg.spawn("b")
    with pytest.raises(ThreadLimitExceeded):
        reg.spawn("c")


def test_spawn_pool_rolls_back_on_failure():
    _sim, _cpu, mem, reg = make_registry(
        max_threads=5, default_stack_bytes=1024
    )
    with pytest.raises(ThreadLimitExceeded):
        reg.spawn_pool("w", 10)
    assert reg.live == 0
    assert mem.used_bytes == 0


def test_stack_memory_exhaustion_on_huge_pool():
    _sim, _cpu, _mem, reg = make_registry(
        memory=1024 * 1024, default_stack_bytes=256 * 1024
    )
    with pytest.raises(MemoryExhausted):
        reg.spawn_pool("w", 5)
    assert reg.live == 0


def test_memory_pressure_feeds_cpu_factor():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    mem = MemoryAccount(1000, pressure_threshold=0.5, swap_penalty=0.5)
    ThreadRegistry(sim, cpu, mem, default_stack_bytes=1)
    mem.allocate(750)  # halfway into penalty band -> factor 0.75
    assert cpu.capacity_factor == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# CostModel
# ---------------------------------------------------------------------------

def test_cost_model_scaled_multiplies_everything():
    base = CostModel()
    java = base.scaled(1.3)
    assert java.parse_request == pytest.approx(base.parse_request * 1.3)
    assert java.per_byte == pytest.approx(base.per_byte * 1.3)


def test_cost_model_scaled_rejects_nonpositive():
    with pytest.raises(ValueError):
        CostModel().scaled(0.0)


# ---------------------------------------------------------------------------
# Machine
# ---------------------------------------------------------------------------

def test_machine_wires_components():
    sim = Simulator()
    machine = Machine(sim, MachineSpec(cpus=4))
    assert machine.cpu.nproc == 4
    assert machine.memory.capacity_bytes == 2 * 1024**3
    t = machine.threads.spawn("acceptor")
    assert machine.threads.live == 1
    t.exit()


def test_machine_spec_uniprocessor_variant():
    spec = MachineSpec(cpus=4, max_threads=1000)
    up = spec.uniprocessor()
    assert up.cpus == 1
    assert up.max_threads == 1000
    assert up.memory_bytes == spec.memory_bytes


def test_machine_smp_capacity_matches_paper_scaling():
    sim = Simulator()
    up = Machine(sim, MachineSpec(cpus=1))
    smp = Machine(sim, MachineSpec(cpus=4))
    # The paper observes ~2x throughput from 1 -> 4 CPUs.
    ratio = smp.cpu.base_capacity / up.cpu.base_capacity
    assert 1.8 <= ratio <= 2.3
