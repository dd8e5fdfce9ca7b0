"""Scale-mode smoke benchmark: a 50k-session fluid population.

One aggregated :class:`~repro.workload.fluid.FluidLoadGenerator` run —
50,000 client sessions against the best uniprocessor configuration —
exercising the whole scale path: cohort binning, budgeted
materialisation, the SYN retry ladder and batched abandonment.  The
floor check (``check_perf_floor.py``) converts the fastest round into
population-sessions per wall-clock second; a regression here means the
aggregation stopped being O(classes + bins + budget) and started
scaling with the population again.

The full 100k-1M sweep with memory accounting lives in
``repro.core.perf.measure_scale`` (-> ``BENCH_scale.json``); this is
the cheap CI canary in front of it.
"""

from repro.core.experiment import Experiment
from repro.core.params import ServerSpec, WorkloadSpec
from repro.workload.fluid import FluidConfig

SESSIONS = 50_000


def run_scale_smoke(n):
    workload = WorkloadSpec(
        clients=n, duration=6.0, warmup=6.0, fluid=FluidConfig()
    )
    metrics = Experiment(ServerSpec.nio(1), workload, seed=42).run()
    stats = metrics.server_stats
    assert stats["fluid.aggregate"] == 1
    assert stats["fluid.sessions_materialized"] > 0
    return n


def test_fluid_scale_smoke(benchmark):
    # "events" here are population sessions.
    benchmark.extra_info.update(bench="scale_smoke", events=SESSIONS)
    result = benchmark(run_scale_smoke, SESSIONS)
    assert result == SESSIONS
