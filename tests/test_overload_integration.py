"""Integration tests: overload control mounted on simulated servers.

Covers the subsystem's three load-bearing promises:

* policies actually change what the simulated TCP/server stack does
  (shed SYNs, reorder accept queues);
* runs stay deterministic per seed with policies mounted, and every run
  mounts its own copy of the spec's policy;
* the overload-mounted paths produce the same whole RunMetrics on the
  production and the reference kernel (pinned digests).
"""


from repro.core import Experiment, ServerSpec, WorkloadSpec
from repro.net import Connection, ListenSocket
from repro.net.link import DuplexLink
from repro.osmodel import Machine, MachineSpec
from repro.overload import LIFO, CoDelShedder, OverloadControl, TokenBucket
from repro.sim import Simulator
from repro.workload import SurgeConfig
from tests.test_fluid_equivalence import _metrics_digest

#: Think times guaranteed to outlive a 15 s idle timeout (same as
#: tests/test_servers.py): every keep-alive session risks an idle reap.
LONG_THINKS = SurgeConfig(think_k=20.0, think_max=25.0, groups_per_session=2.5)


def run_mini(spec, clients=20, duration=60.0, warmup=20.0, surge=None, seed=7):
    workload = WorkloadSpec(
        clients=clients,
        duration=duration,
        warmup=warmup,
        n_files=100,
        surge=surge or SurgeConfig(),
    )
    return Experiment(
        server=spec, workload=workload, machine=MachineSpec(cpus=1), seed=seed
    ).run()


# ---------------------------------------------------------------------------
# transport level: policies drive the simulated listen socket
# ---------------------------------------------------------------------------

def make_listener(overload=None, backlog=511):
    sim = Simulator()
    machine = Machine(sim, MachineSpec(cpus=1))
    listener = ListenSocket(
        sim, machine, backlog=backlog, overload=overload
    )
    duplex = DuplexLink(sim, 1e7, 0.001)
    return sim, listener, duplex


def connect(sim, listener, duplex):
    conn = Connection(sim, duplex, listener)
    sim.process(conn.connect(30.0))
    return conn


def test_lifo_discipline_accepts_newest_first():
    sim, listener, duplex = make_listener(
        overload=OverloadControl(discipline=LIFO)
    )
    conns = []

    def arrivals():
        for _ in range(3):
            conns.append(connect(sim, listener, duplex))
            yield sim.timeout(0.5)

    accepted = []

    def acceptor():
        yield sim.timeout(2.0)  # let all three queue up first
        for _ in range(3):
            got = yield sim.process(listener.accept())
            accepted.append(got)

    sim.process(arrivals())
    sim.process(acceptor())
    sim.run(until=5.0)
    assert accepted == [conns[2], conns[1], conns[0]]  # newest first


def test_fifo_discipline_accepts_oldest_first():
    sim, listener, duplex = make_listener(overload=OverloadControl())
    conns = []

    def arrivals():
        for _ in range(3):
            conns.append(connect(sim, listener, duplex))
            yield sim.timeout(0.5)

    accepted = []

    def acceptor():
        yield sim.timeout(2.0)
        for _ in range(3):
            got = yield sim.process(listener.accept())
            accepted.append(got)

    sim.process(arrivals())
    sim.process(acceptor())
    sim.run(until=5.0)
    assert accepted == conns


def test_admission_policy_sheds_syns_before_kernel_limit():
    policy = TokenBucket(rate=0.001, burst=2.0)
    sim, listener, duplex = make_listener(
        overload=OverloadControl(admission=policy), backlog=511
    )
    for _ in range(5):
        connect(sim, listener, duplex)
    sim.run(until=1.0)
    # Kernel backlog (511) never filled; the policy shed the excess.
    assert listener.backlog_depth == 2
    assert listener.syns_shed == policy.shed > 0
    assert listener.backlog_peak == 2


# ---------------------------------------------------------------------------
# server level: shedding changes the error profile (paper fig 3)
# ---------------------------------------------------------------------------

def test_token_bucket_reduces_httpd_resets():
    base = run_mini(ServerSpec.httpd(64), surge=LONG_THINKS)
    limited = run_mini(
        ServerSpec(
            "httpd", 64,
            overload=OverloadControl(
                admission=TokenBucket(rate=0.5, burst=2.0)
            ),
        ),
        surge=LONG_THINKS,
    )
    assert base.connection_reset_rate > 0.05  # the paper's failure mode
    assert limited.server_stats["requests_shed"] > 0
    # Capping session establishment shrinks the idle keep-alive
    # population that reaping victimises.
    assert limited.connection_reset_rate < base.connection_reset_rate
    assert limited.replies > 0


def test_eventdriven_with_shedding_still_never_resets():
    m = run_mini(
        ServerSpec(
            "nio", 1,
            overload=OverloadControl(
                admission=TokenBucket(rate=0.5, burst=2.0)
            ),
        ),
        surge=LONG_THINKS,
    )
    assert m.server_stats["requests_shed"] > 0  # policy is live
    assert m.connection_reset_rate == 0.0  # zero-reset guarantee intact
    assert m.replies > 0


def test_stats_expose_overload_counters():
    m = run_mini(
        ServerSpec(
            "httpd", 64,
            overload=OverloadControl(
                admission=TokenBucket(rate=0.5, burst=2.0)
            ),
        ),
        surge=LONG_THINKS,
    )
    stats = m.server_stats
    for key in (
        "requests_shed",
        "requests_admitted",
        "early_closed",
        "accept_queue_peak",
        "queue_delay_mean",
        "queue_delay_p99",
    ):
        assert key in stats
    assert stats["requests_admitted"] > 0
    # 64 workers never let 20 clients queue: peak 0 is the honest value.
    assert stats["accept_queue_peak"] == 0


def test_label_carries_policy_tag():
    spec = ServerSpec(
        "httpd", 64,
        overload=OverloadControl(admission=TokenBucket(rate=1.0)),
    )
    assert spec.label.endswith("+token-bucket")
    assert ServerSpec.httpd(64).label == "httpd-64t"


# ---------------------------------------------------------------------------
# pinned rows: the overload paths run identically on both kernels
# ---------------------------------------------------------------------------

def _overload_up(overload):
    from repro.core import OVERLOAD_UP

    return Experiment(
        server=ServerSpec("httpd", 256, overload=overload),
        workload=WorkloadSpec(clients=400, duration=6.0, warmup=6.0),
        machine=OVERLOAD_UP.machine,
        network=OVERLOAD_UP.network,
        seed=7,
    ).run()


def test_token_bucket_run_is_pinned(reference_oracle):
    """No e2e workload mounts a policy, so these pins are what guard
    the admission path: the whole RunMetrics, on both kernels."""
    metrics = reference_oracle(
        lambda: _overload_up(
            OverloadControl(admission=TokenBucket(rate=40.0, burst=8.0))
        )
    )
    assert metrics.server_stats["requests_shed"] == 819
    assert _metrics_digest(metrics) == "582734c0595c7b43"


def test_codel_lifo_run_is_pinned(reference_oracle):
    """CoDel reads the standing delay of the oldest waiter, which sits
    at the back of a LIFO backlog; reading the front sheds nothing."""
    metrics = reference_oracle(
        lambda: _overload_up(
            OverloadControl(admission=CoDelShedder(), discipline=LIFO)
        )
    )
    assert metrics.server_stats["requests_shed"] == 79
    assert metrics.server_stats["accept_queue_peak"] == 77
    assert _metrics_digest(metrics) == "cea58a769de1746e"


def test_cluster_token_bucket_run_is_pinned(reference_oracle):
    """Each replica sheds through its own copy of the spec's policy."""
    from repro.cluster import ClusterExperiment, uniform_cluster

    server = ServerSpec(
        "httpd", 32,
        overload=OverloadControl(admission=TokenBucket(rate=5.0, burst=4.0)),
    )

    def run():
        exp = ClusterExperiment(
            cluster=uniform_cluster(n=2, server=server),
            workload=WorkloadSpec(clients=120, duration=6.0, warmup=6.0),
            seed=7,
        )
        aggregate = exp.run()
        return [aggregate] + [m for _, m in sorted(exp.replica_metrics.items())]

    aggregate, r0, r1 = reference_oracle(run)
    assert [
        m.server_stats["requests_shed"] for m in (aggregate, r0, r1)
    ] == [253, 127, 126]
    assert _metrics_digest(aggregate) == "1795ab0dfef01b99"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_shed_decisions_deterministic_per_seed():
    spec = ServerSpec(
        "httpd", 64,
        overload=OverloadControl(admission=TokenBucket(rate=0.5, burst=2.0)),
    )
    a = run_mini(spec, surge=LONG_THINKS, seed=11)
    b = run_mini(spec, surge=LONG_THINKS, seed=11)
    assert a.server_stats["requests_shed"] == b.server_stats["requests_shed"]
    assert (
        a.server_stats["requests_admitted"]
        == b.server_stats["requests_admitted"]
    )
    assert a.replies == b.replies
    assert a.errors == b.errors


def test_policy_state_resets_between_runs():
    # The same ServerSpec run twice carries no token-bucket debt across
    # runs: each run mounts its own copy and the spec's policy is never
    # touched.
    policy = TokenBucket(rate=0.5, burst=2.0)
    spec = ServerSpec(
        "httpd", 64, overload=OverloadControl(admission=policy)
    )
    first = run_mini(spec, surge=LONG_THINKS, seed=11)
    second = run_mini(spec, surge=LONG_THINKS, seed=11)
    assert first.server_stats["requests_shed"] > 0
    assert (
        first.server_stats["requests_shed"]
        == second.server_stats["requests_shed"]
    )
    assert policy.admitted == policy.shed == 0
