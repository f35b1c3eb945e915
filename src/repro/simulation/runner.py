"""Trace-replay harness: the experiments of Section VI.

Two replay modes:

* :class:`ClusterSimulator` — full closed-loop replay against the simulated
  cluster (servers, clients, caches, locks, Monitor). Produces throughput /
  latency, regenerating Fig. 5.
* :func:`replay_rounds` — the Fig. 7 methodology: the trace is split into
  rounds, each round's served load is measured under the placement adapted to
  the *previous* rounds, then schemes rebalance. "After the subtraces are
  replayed ... a relatively balanced status is maintained."
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.placement import MetadataScheme, Placement
from repro.baselines.hashing import stable_hash
from repro.cluster.client import SimClient
from repro.cluster.failure import fail_server, rejoin_server
from repro.cluster.locks import LockManager
from repro.cluster.mds import MetadataServer
from repro.cluster.messages import Heartbeat, RoutePlan, Visit, VisitKind
from repro.cluster.monitor import MonitorGroup
from repro.core.namespace import NamespaceTree, PopularitySupport
from repro.core.partition import D2TreePlacement
from repro.metrics.balance import balance_degree
from repro.cluster.cache import LRUCache
from repro.obs.sampler import GaugeSampler
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.simulation.faults import FaultEvent, FaultKind, FaultPlan
from repro.simulation.network import SimNetwork, mds_addr, mon_addr
from repro.simulation.routing import FastRoutingEngine, make_engine
from repro.storage import DurabilityLedger, make_store
from repro.simulation.stats import (
    AvailabilityReport,
    SimulationResult,
    summarize_latencies,
)
from repro.traces.columns import OP_FROM_CODE, iter_op_batches
from repro.traces.generator import GeneratedWorkload
from repro.traces.trace import OpType, Trace

__all__ = [
    "SimulationConfig",
    "ClusterSimulator",
    "simulate",
    "BalanceTrajectory",
    "replay_rounds",
]


@dataclass
class SimulationConfig:
    """Tunables of the simulated testbed (defaults model the EC2 setup)."""

    num_clients: int = 200
    service_time: float = 1e-3       # seconds of MDS CPU per request visit
    hop_latency: float = 2e-4        # one network traversal
    lock_acquire_latency: float = 1e-3   # ZooKeeper round trip
    lock_hold_time: float = 5e-4     # critical section per GL update
    replica_write_work: float = 0.5  # relative CPU per GL replica write
    adjust_every_ops: int = 4000     # heartbeat-driven adjustment cadence
    popularity_blend: float = 0.5    # weight of the newest window in estimates
    migration_work: float = 0.05     # relative CPU per metadata node moved
    index_cache_size: int = 512
    prefix_cache_size: int = 256
    #: Declarative fault schedule (crash / recover / fail_slow /
    #: drop_heartbeats events; see repro.simulation.faults). Crashed servers
    #: keep their metadata until the Monitor misses enough heartbeats.
    fault_plan: Optional[FaultPlan] = None
    #: Legacy crash shorthand: ((completed_ops, server), ...) — folded into
    #: the fault plan as crash events.
    failures: tuple = ()
    #: Client-side timeout before a request to a dead server is retried.
    failover_latency: float = 5e-3
    #: Retry budget per operation; an op that exhausts it counts as *failed*.
    max_retries: int = 16
    #: Capped exponential backoff between retries: attempt k waits
    #: ``min(cap, base * 2**(k-1))`` on top of the failover timeout.
    retry_backoff_base: float = 2e-3
    retry_backoff_cap: float = 0.1
    #: Liveness heartbeat cadence (simulated seconds; <= 0 disables the
    #: detection loop entirely — crashed servers are then never evicted).
    heartbeat_interval: float = 0.05
    #: Monitor declares a server dead after this much heartbeat silence.
    heartbeat_timeout: float = 0.15
    #: Monitor group size: 1 leader + (num_monitors - 1) standbys. One
    #: replica reproduces the singleton Monitor exactly; more buy failover
    #: (with epoch fencing) when monitor_crash faults or partitions hit.
    num_monitors: int = 1
    #: Leadership lease: a standby takes over after the leader has been dead
    #: or quorumless this long (default 2x heartbeat_timeout).
    monitor_lease_timeout: Optional[float] = None
    #: Dispatch prefetch window: how many upcoming trace records get their
    #: namespace lookups resolved per refill. Purely a throughput knob —
    #: lookups are side-effect-free, so results are byte-identical for any
    #: value; ``1`` reproduces per-op dispatch exactly.
    batch_size: int = 64
    #: Route-planning engine: ``"fast"`` (interned paths + incremental owner
    #: index) or ``"legacy"`` (string-keyed ancestor walks). Both produce
    #: identical plans; legacy is kept as the benchmark baseline.
    routing_engine: str = "fast"
    #: Replay engine: ``"auto"`` picks the columnar batched loop whenever the
    #: run is eligible (fault-free, telemetry off, memory store, perfect
    #: network) and falls back to the per-op loop otherwise; ``"columnar"``
    #: forces the batched loop (raising if the run is ineligible);
    #: ``"perop"`` forces the per-op loop. Both engines are bit-identical on
    #: eligible runs — the choice is purely a throughput knob.
    simulate_engine: str = "auto"
    #: Metadata persistence backend (``repro.storage``): ``"memory"`` (the
    #: zero-cost no-op default), ``"wal"`` or ``"sqlite"``. Durable backends
    #: journal acks/fences/subtree moves and replay them when a ``kill9``'d
    #: server rejoins.
    store: str = "memory"
    #: Directory for the durable backends (None = self-cleaning temp dir).
    store_dir: Optional[str] = None
    #: Per-server log appends between snapshots (0 disables snapshots).
    snapshot_every: int = 512
    #: Deterministic head-sampling of causal span trees: every sampled
    #: operation (1 in ``trace_sample``, keyed on ``(seed, op id)`` so both
    #: simulate engines pick the same ops) records a span tree, plus
    #: cluster-lifecycle spans for failover/recovery/adjustment. ``0``
    #: disables tracing entirely (the default — zero-cost, byte-identical
    #: to pre-span builds). Span recording never changes simulation
    #: results; unlike full telemetry it does not disqualify the columnar
    #: engine.
    trace_sample: int = 0
    seed: int = 7


class ClusterSimulator:
    """Closed-loop replay of one trace through one scheme's placement."""

    def __init__(
        self,
        scheme: MetadataScheme,
        workload: GeneratedWorkload,
        num_servers: int,
        config: Optional[SimulationConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.scheme = scheme
        self.workload = workload
        self.tree = workload.tree
        self.trace = workload.trace
        self.num_servers = num_servers
        self.config = config or SimulationConfig()
        self.tree.ensure_popularity()
        self.placement: Placement = scheme.partition(self.tree, num_servers)
        #: Route planner (see repro.simulation.routing). Both engines make
        #: identical decisions; "fast" interns paths and memoises the owner
        #: index, "legacy" is the string-keyed baseline.
        self.engine = make_engine(
            self.config.routing_engine, self.tree, self.placement
        )
        self.servers = [
            MetadataServer(sid, service_time=self.config.service_time)
            for sid in range(num_servers)
        ]
        self.locks = LockManager(acquire_latency=self.config.lock_acquire_latency)
        #: Lossy, partitionable fabric. With no faults installed it degrades
        #: to the constant-latency model (zero RNG draws), so fault-free runs
        #: stay byte-identical to the legacy NetworkModel.
        self.network = SimNetwork(
            hop_latency=self.config.hop_latency, seed=self.config.seed
        )
        self.clients = [
            SimClient(
                cid,
                num_servers,
                index_cache_size=self.config.index_cache_size,
                prefix_cache_size=self.config.prefix_cache_size,
                seed=self.config.seed,
            )
            for cid in range(self.config.num_clients)
        ]
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.network.bind_telemetry(self.telemetry)
        self.monitor = MonitorGroup(
            scheme,
            self.tree,
            self.placement,
            replicas=self.config.num_monitors,
            heartbeat_timeout=self.config.heartbeat_timeout,
            lease_timeout=self.config.monitor_lease_timeout,
            expected_servers=range(num_servers),
            telemetry=self.telemetry,
            network=self.network,
        )
        # Durable persistence (repro.storage). The memory backend keeps
        # ``durable`` False, and every hook below is gated on ``store_on``,
        # so the default configuration pays one predicate per op and stays
        # byte-identical to the pre-durability simulator (golden tests).
        self.store = make_store(
            self.config.store,
            directory=self.config.store_dir,
            snapshot_every=self.config.snapshot_every,
        )
        self.store_on = self.store.durable
        self.durability: Optional[DurabilityLedger] = None
        if self.store_on:
            self.store.bind_telemetry(self.telemetry)
            self.monitor.journal.bind_store(self.store)
            self.durability = DurabilityLedger()
        self.created = 0
        #: Trace records handed to clients (completed + failed + in flight);
        #: the chaos harness balances this against the availability ledger.
        self.ops_issued = 0
        #: Optional client-visible operation history (duck-typed
        #: ``repro.chaos.history.OpHistory``), set externally by the chaos
        #: harness before ``run()``. The runner never imports the chaos
        #: package; when None (the default) every hook below is skipped and
        #: replay stays byte-identical. Recording forces the per-op engine.
        self.history = None
        # Late-created nodes (OpType.CREATE extension) do not exist at
        # partition time: their assignments are forgotten and each scheme
        # places them on first sight.
        for path in getattr(workload, "late_created_paths", ()):  # compat
            node = self.tree.lookup(path)
            if node is not None and self.placement.is_placed(node):
                if not self.placement.is_replicated(node):
                    self.placement.forget(node)
        self.migrations = 0
        self.availability = AvailabilityReport()
        #: server -> sim time it crashed (cleared when it rejoins).
        self._crashed_at: Dict[int, float] = {}
        #: server -> sim time it stopped heartbeating (drop_heartbeats).
        self._muted_at: Dict[int, float] = {}
        #: server -> sim time the Monitor evicted it (span attribution).
        self._detected_at: Dict[int, float] = {}
        # Span tracing (repro.obs.spans): deterministic head-sampled span
        # trees. The recorder rides outside the telemetry enable switch so
        # sampled runs stay columnar-eligible; it is attached to the hub
        # (when one was passed in) purely for JSONL export.
        self.spans: Optional[SpanRecorder] = None
        #: Per-server migration-CPU budget: accrued when migrations charge
        #: background work, consumed by sampled ops' queueing delays to
        #: attribute migration stall. Only maintained while tracing.
        self._mig_budget: Optional[List[float]] = None
        if self.config.trace_sample > 0:
            self.spans = SpanRecorder(
                self.config.trace_sample, seed=self.config.seed
            )
            self._mig_budget = [0.0] * num_servers
            self.monitor.spans = self.spans
            if self.telemetry is not NULL_TELEMETRY:
                self.telemetry.attach_spans(self.spans)
        self._initial_capacities = list(self.placement.capacities)
        #: Where adjustment rounds can find popularity; it also remembers
        #: each blended node's starting value, so a run never leaks adjusted
        #: estimates into the shared workload (simulations must be
        #: independent).
        self._support = PopularitySupport(self.tree)
        # Telemetry wiring: lock contention, adjustment rounds and the
        # sim-time gauge sampler all hang off one Telemetry per run. A
        # scheme's adjuster is shared state, so it is re-pointed (or
        # detached) on every simulator construction.
        self.locks.bind_telemetry(self.telemetry)
        adjuster = getattr(scheme, "adjuster", None)
        if adjuster is not None:
            adjuster.telemetry = self.telemetry if self.telemetry.enabled else None
        self.sampler = GaugeSampler(self.telemetry)
        if self.telemetry.enabled or self.telemetry.spans is not None:
            # A span-only run (sampling on, metrics hub disabled) still
            # writes a JSONL stream, so it needs the run header too.
            info = self.telemetry.run_info
            info.setdefault("scheme", scheme.name)
            info.setdefault("scheme_params", scheme.params())
            info.setdefault("trace", self.trace.name)
            info.setdefault("servers", num_servers)
            info.setdefault("seed", self.config.seed)
            # batch_size is deliberately NOT recorded: it is a pure
            # throughput knob, and identical headers keep the batched run's
            # telemetry byte-identical to the per-op run's.
            info.setdefault("routing_engine", self.engine.name)
            if self.store_on:
                # Recorded only when durability is on: default runs keep
                # the exact pre-durability header.
                info.setdefault("store", self.store.name)
            if self.spans is not None:
                # Recorded only when sampling is on, for the same reason.
                info.setdefault("trace_sample", self.config.trace_sample)
        if self.telemetry.enabled:
            self._register_probes()

    def _register_probes(self) -> None:
        """Register the gauges sampled on the heartbeat grid (Sec. VI
        trajectories: per-server load factor, balance, caches, GL size)."""
        placement = self.placement

        def load_factors() -> List[float]:
            loads = placement.loads()
            return [
                load / cap if cap > 1e-9 else 0.0
                for load, cap in zip(loads, placement.capacities)
            ]

        self.sampler.add_vector("load_factor", load_factors, "server")
        self.sampler.add_vector(
            "server_visits",
            lambda: [float(server.served) for server in self.servers],
            "server",
        )
        if self.num_servers >= 2:  # Eq. 2 needs at least two servers
            self.sampler.add(
                "balance_degree",
                lambda: balance_degree(placement.loads(), placement.capacities),
            )
        self.sampler.add(
            "cache_hit_rate",
            lambda: LRUCache.merged_hit_rate(
                client.index_cache for client in self.clients
            ),
            cache="index",
        )
        self.sampler.add(
            "cache_hit_rate",
            lambda: LRUCache.merged_hit_rate(
                client.prefix_cache for client in self.clients
            ),
            cache="prefix",
        )
        self.sampler.add(
            "monitor_epoch", lambda: float(self.monitor.epoch)
        )
        engine = self.engine
        if isinstance(engine, FastRoutingEngine):
            # Deterministic (depends only on the op sequence), so it joins
            # the sampled series without breaking byte-level reproducibility.
            self.sampler.add(
                "owner_index_hit_rate", lambda: engine.hit_rate
            )
        if isinstance(placement, D2TreePlacement):
            self.sampler.add(
                "global_layer_size",
                lambda: float(len(placement.split.global_layer)),
            )
            pool_gauge = self.telemetry.registry.gauge(
                "pending_pool_depth",
                help="Subtrees parked in the pending pool this adjustment round",
            )
            self.sampler.add("pending_pool_depth", lambda: pool_gauge.value)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def plan_route(self, client: SimClient, node, op: OpType) -> RoutePlan:
        """Resolve which servers an operation touches."""
        return self.engine.plan(client, node, op)

    # ------------------------------------------------------------------
    # Adjustment (heartbeat-driven, mid-replay)
    # ------------------------------------------------------------------
    def _adjust(self, now: float, window: Dict[int, float]) -> None:
        """One adjustment round, shared by both engines.

        ``window`` holds the ops completed since the last round, keyed by
        node id; the round folds it into the popularity estimates and
        clears it. The popularity blend, the Def. 2 re-aggregation and the
        load sums visit only the popularity support (O(nodes with
        traffic), bit-identical to whole-tree passes; see
        :class:`~repro.core.namespace.PopularitySupport`).

        On a columnar run the per-visit decaying access counters are not
        kept (the hot loop skips ``record_access``), so each heartbeat's
        decayed-load estimate is 0.0. That is unobservable fault-free:
        rebalance reads tree popularity and placement only, and the
        liveness bookkeeping (``last_seen``) is identical.
        """
        self.telemetry.set_time(now)
        support = self._support
        support.blend(window, self.config.popularity_blend)
        window.clear()
        self.tree.aggregate_popularity(support)
        # Heartbeats (Sec. IV-B): every live MDS reports its decayed load
        # level and relative capacity to the Monitor, which runs the
        # adjustment. Dead and heartbeat-muted servers stay silent — their
        # absence is what failure detection keys off.
        loads = self.placement.loads(support=support)
        total_cap = sum(self.placement.capacities)
        mu = sum(loads) / total_cap if total_cap > 0 else 0.0
        net = self.network
        leader_addr = self.monitor.leader_addr
        for server in self.servers:
            if not server.alive:
                continue
            # Load reports traverse the real network: mutes
            # (drop_heartbeats), partitions and loss all silence them
            # through the one shared code path.
            if net.faulty:
                arrival = net.deliver(mds_addr(server.server_id), leader_addr, now)
                if arrival is None:
                    continue
            load = server.load_report(now)
            relative = loads[server.server_id] - mu * self.placement.capacities[
                server.server_id
            ]
            self.monitor.on_heartbeat(
                Heartbeat(server.server_id, now, load, relative)
            )
        moves = self.monitor.rebalance(now)
        self.migrations += len(moves)
        self._charge_migrations(moves)
        self._journal_moves(moves, now)
        self._record_adjust_spans(now, len(moves), mu)
        if self.telemetry.enabled:
            self.telemetry.event(
                "adjust_round", t=now, migrations=len(moves), mu=mu,
            )
            self.telemetry.registry.counter(
                "migrations", help="Subtree/key migrations performed",
            ).inc(len(moves))

    def _record_adjust_spans(self, now: float, moves: int, mu: float) -> None:
        """Adjustment-round lifecycle spans (aggregate -> plan -> migrate).

        Shared by both engines' adjustment paths so a sampled columnar run
        emits the exact spans the per-op run does.
        """
        rec = self.spans
        if rec is None:
            return
        parent = rec.cluster(
            "adjust_round", now, now,
            fields=(("migrations", moves), ("mu", mu)),
        )
        rec.cluster("aggregate", now, now, parent=parent)
        rec.cluster("plan", now, now, parent=parent)
        rec.cluster(
            "migrate", now, now, parent=parent,
            fields=(("migrations", moves),),
        )

    def _charge_migrations(self, moves) -> None:
        """Book migration CPU on both ends of every move.

        Migration is not free: source and target servers spend CPU on every
        moved metadata node (the thrashing/rehashing overhead the paper
        charges against dynamic and hash-based schemes). Dead servers do no
        work — a failure re-home only costs the receiving side.
        """
        work = self.config.migration_work
        if work <= 0:
            return
        budget = self._mig_budget
        for move in moves:
            cost = work * self._migration_size(move) * self.config.service_time
            if self.servers[move.source].alive:
                self.servers[move.source].cpu.serve_background(cost)
                if budget is not None:
                    budget[move.source] += cost
            if self.servers[move.target].alive:
                self.servers[move.target].cpu.serve_background(cost)
                if budget is not None:
                    budget[move.target] += cost

    def _journal_moves(self, moves, now: float) -> None:
        """Persist subtree ownership changes to the per-MDS logs.

        Each move revokes the subtree from its source and grants it to its
        target. Only *live* servers journal — a dead server's log must not
        change while it is down (injected tail damage has to stay exactly
        where the crash left it until recovery inspects it).
        """
        if not self.store_on or not moves:
            return
        store = self.store
        for move in moves:
            path = move.node.path
            if self.servers[move.source].alive:
                store.append_mutation(move.source, "revoke", path, now)
            if self.servers[move.target].alive:
                store.append_mutation(move.target, "grant", path, now)

    # ------------------------------------------------------------------
    # Fault injection (Sec. IV-A3: failure detection and recovery)
    # ------------------------------------------------------------------
    def _partition_endpoints(self, event: FaultEvent):
        """Map a partition event's member tokens onto network endpoints."""
        return [
            tuple(
                mon_addr(int(token[1:])) if token.startswith("m")
                else mds_addr(int(token))
                for token in group
            )
            for group in (event.groups or ())
        ]

    def _fire_fault(self, event: FaultEvent, now: float) -> None:
        """Apply one scheduled fault event at sim time ``now``."""
        self.telemetry.set_time(now)
        kind = event.kind
        if kind is FaultKind.PARTITION:
            self.network.partition(
                event.partition_name, self._partition_endpoints(event)
            )
            self.availability.partitions += 1
            self.telemetry.event(
                "fault_partition", t=now, partition=event.partition_name,
            )
            return
        if kind is FaultKind.HEAL:
            self.network.heal(event.partition_name)
            self.telemetry.event(
                "fault_heal", t=now, partition=event.partition_name or "*",
            )
            return
        if kind is FaultKind.MONITOR_CRASH:
            self.monitor.crash_monitor(event.server, now)
            self.telemetry.event(
                "fault_monitor_crash", t=now, replica=event.server,
            )
            return
        if kind is FaultKind.MONITOR_RECOVER:
            self.monitor.recover_monitor(event.server, now)
            self.telemetry.event(
                "fault_monitor_recover", t=now, replica=event.server,
            )
            return
        server = self.servers[event.server]
        if kind is FaultKind.CRASH:
            if server.alive:
                server.fail()
                self._crashed_at[event.server] = now
                self.availability.crashes += 1
                self.telemetry.event("fault_crash", t=now, server=event.server)
        elif kind in (
            FaultKind.KILL9, FaultKind.TORN_WRITE, FaultKind.CORRUPT_RECORD
        ):
            # The kill9 family: crash with volatile-state loss, optionally
            # plus injected damage on the unsynced WAL tail. The damage is
            # applied even if the server was already down (a second fault
            # hitting the same dead disk), but the crash itself only counts
            # once.
            if server.alive:
                server.kill9()
                self._crashed_at[event.server] = now
                self.availability.crashes += 1
                if self.history is not None:
                    # Volatile state (fence, counters) is gone: the history
                    # audit resets this server's epoch floor and — absent a
                    # durable store — excuses its ledger for earlier acks.
                    self.history.wipe(event.server, now)
                if self.durability is not None:
                    self.durability.note_kill(event.server)
                self.telemetry.event(
                    "fault_kill9", t=now, server=event.server,
                    damage=kind.value if kind is not FaultKind.KILL9 else None,
                )
            if self.store_on:
                damaged = False
                if kind is FaultKind.TORN_WRITE:
                    damaged = self.store.tear_tail(event.server)
                    if damaged:
                        self.durability.note_damage(event.server, "torn")
                elif kind is FaultKind.CORRUPT_RECORD:
                    damaged = self.store.corrupt_tail(event.server)
                    if damaged:
                        self.durability.note_damage(event.server, "corrupt")
                if damaged:
                    # Damaged logs are only repaired by recovery replay, so
                    # the rejoin path must replay even if the server was
                    # already down from an earlier plain crash.
                    server.lost_volatile = True
        elif kind is FaultKind.RECOVER:
            self._recover_server(event.server, now)
        elif kind is FaultKind.FAIL_SLOW:
            server.slow_factor = event.factor
            self.telemetry.event(
                "fault_fail_slow", t=now, server=event.server,
                factor=event.factor,
            )
        elif kind is FaultKind.DROP_HEARTBEATS:
            if not server.muted:
                server.muted = True
                self.network.mute(mds_addr(event.server))
                self._muted_at[event.server] = now
                self.telemetry.event(
                    "fault_drop_heartbeats", t=now, server=event.server,
                )
        elif kind is FaultKind.LOSS:
            self.network.set_loss(mds_addr(event.server), event.probability)
            self.telemetry.event(
                "fault_loss", t=now, server=event.server,
                probability=event.probability,
            )
        elif kind is FaultKind.DELAY:
            self.network.set_delay(mds_addr(event.server), event.delay)
            self.telemetry.event(
                "fault_delay", t=now, server=event.server, delay=event.delay,
            )

    def _heartbeat_round(self, now: float) -> None:
        """Liveness heartbeats plus failure detection.

        Liveness beats carry the served-visit count as a cheap load proxy;
        the full decayed-load reports ride the adjustment-cadence heartbeats
        in :meth:`_adjust`. Detection runs after the beats so a server that
        rejoined this round is never re-declared dead.
        """
        self.telemetry.set_time(now)
        net = self.network
        leader_addr = self.monitor.leader_addr
        live = 0
        rejoined: List[int] = []
        for server in self.servers:
            if not server.alive:
                continue
            if net.faulty:
                arrival = net.deliver(mds_addr(server.server_id), leader_addr, now)
                if arrival is None:
                    continue
            was_dead = self.monitor.is_dead(server.server_id)
            delivered = self.monitor.on_heartbeat(
                Heartbeat(server.server_id, now, float(server.served), 0.0)
            )
            if not delivered:
                continue
            live += 1
            if was_dead:
                # A heartbeat from an acknowledged-dead server: it was
                # falsely evicted (partition, mute) or crashed and came
                # back — either way it rejoins once the beat gets through.
                rejoined.append(server.server_id)
        if self.telemetry.enabled:
            self.telemetry.event("heartbeat_round", t=now, live=live)
            self.sampler.snapshot(now)
        # Lease clock: a dead or quorumless leader is eventually replaced
        # (epoch bump + journal replay) before detection runs, so a fresh
        # leader starts with full heartbeat grace instead of mass-evicting.
        self.monitor.tick(now)
        for sid in rejoined:
            self._recover_server(sid, now)
        for dead in self.monitor.detect_failures(now):
            self.monitor.mark_dead(dead, now)
            self._rehome_failed(dead, now)

    def _rehome_failed(self, dead: int, now: float) -> None:
        """Detection fired: re-home the lost metadata (Sec. IV-A3)."""
        server = self.servers[dead]
        if server.alive:
            # False positive — a live server went silent (drop_heartbeats);
            # the Monitor evicts it all the same and survivors take over.
            self.availability.false_detections += 1
            since = self._muted_at.get(dead, now)
        else:
            since = self._crashed_at.get(dead, now)
            self.availability.unavailability += now - since
        self.availability.detection_latency[dead] = now - since
        self._detected_at[dead] = now
        moves = fail_server(self.placement, dead)
        # Re-homing rewrites ownership wholesale; flush the owner index
        # rather than trusting version counters to cover every write.
        self.engine.invalidate()
        self.migrations += len(moves)
        self._charge_migrations(moves)
        # Failover lifecycle chain: the heartbeat_miss span covers the whole
        # degraded window (silence -> eviction); detect/evict/journal_commit
        # /fence hang off it at the instant detection fired.
        rec = self.spans
        chain = None
        if rec is not None:
            chain = rec.cluster(
                "heartbeat_miss", since, now, fields=(("server", dead),),
            )
            rec.cluster(
                "detect", now, now, parent=chain,
                fields=(
                    ("false_positive", server.alive),
                    ("server", dead),
                    ("timeout", self.config.heartbeat_timeout),
                ),
            )
            rec.cluster(
                "evict", now, now, parent=chain,
                fields=(("moves", len(moves)), ("server", dead)),
            )
            self.monitor.span_parent = chain
        # The eviction is an epoch-stamped directive: every receiving MDS
        # ratchets its fence forward, so a later directive from a deposed
        # leader (an older epoch) can no longer move these subtrees.
        directive = self.monitor.issue(
            "rehome", now, server=dead, moves=len(moves)
        )
        if rec is not None:
            self.monitor.span_parent = None
        if directive is not None:
            accepted = set()
            for move in moves:
                if self.servers[move.target].accept_directive(directive.epoch):
                    accepted.add(move.target)
            if self.store_on:
                for target in sorted(accepted):
                    self.store.append_fence(target, directive.epoch, now)
            if rec is not None:
                rec.cluster(
                    "fence", now, now, parent=chain,
                    fields=(
                        ("epoch", directive.epoch),
                        ("servers", len(accepted)),
                    ),
                )
        self._journal_moves(moves, now)
        self.telemetry.event(
            "failure_detected", t=now, server=dead,
            latency=now - since, false_positive=server.alive,
            moves=len(moves),
        )

    def _recover_server(self, sid: int, now: float) -> None:
        """Rejoin path: restore capacity and pull subtrees back."""
        self.telemetry.set_time(now)
        server = self.servers[sid]
        was_crashed = not server.alive
        if was_crashed:
            server.recover()
            if server.lost_volatile:
                # kill9 rejoin: the process image is gone, so whatever the
                # durable store replays — snapshot plus WAL tail, with any
                # torn/corrupt tail truncated — is the server's state. The
                # fence is restored *before* the rejoin directive below, so
                # a stale directive is still rejected post-crash.
                if self.store_on:
                    recovered = self.store.recover_server(sid)
                    server.fence_epoch = recovered.fence_epoch
                    self.durability.note_recovery(sid, recovered)
                    if self.telemetry.enabled:
                        self.telemetry.event(
                            "recovery_replay", t=now, server=sid,
                            replayed=recovered.replayed_records,
                            snapshot=recovered.snapshot_loaded,
                            truncated=recovered.truncated,
                            reason=recovered.truncate_reason,
                            fence_epoch=recovered.fence_epoch,
                        )
                        self.telemetry.registry.counter(
                            "recoveries",
                            help="kill9 rejoins that replayed durable state",
                        ).inc()
                        self.telemetry.registry.histogram(
                            "recovery_replay_ops",
                            help="Log records replayed per recovery",
                        ).observe(float(recovered.replayed_records))
                        if recovered.truncated:
                            self.telemetry.registry.counter(
                                "wal_truncations",
                                help="Torn/corrupt WAL tails truncated "
                                     "during recovery",
                            ).inc()
                server.lost_volatile = False
        else:
            server.slow_factor = 1.0
            server.muted = False
        self.network.clear_endpoint(mds_addr(sid))
        self._muted_at.pop(sid, None)
        # Recovery lifecycle chain: the root span covers eviction -> rejoin
        # (or crash -> rejoin when detection never fired); journal_commit
        # and the rejoin land under it. An aborted rejoin leaves a childless
        # recovery span — the next attempt opens a fresh one.
        rec = self.spans
        chain = None
        if rec is not None:
            t0 = self._detected_at.get(sid, self._crashed_at.get(sid, now))
            chain = rec.cluster(
                "recovery", t0, now,
                fields=(("server", sid), ("was_crashed", was_crashed)),
            )
            self.monitor.span_parent = chain
        # Rejoining is a placement change, so it needs a committed,
        # epoch-stamped directive. Without a quorum (leader on the wrong
        # side of a partition) the server is locally up but stays evicted;
        # the next heartbeat that reaches a committable leader retries the
        # rejoin through the auto-rejoin path in _heartbeat_round.
        directive = self.monitor.issue("rejoin", now, server=sid)
        if rec is not None:
            self.monitor.span_parent = None
        if directive is None:
            self.monitor.state.mark_dead(sid)
            return
        self.monitor.mark_alive(sid, now)
        self.monitor.expect(sid, now)
        # Epoch fence: the rejoining server applies the directive only if
        # it is not stale. A stale rejoin (issued by a deposed leader)
        # must not resurrect the pre-crash subtree assignments that a newer
        # epoch already re-homed.
        if not server.accept_directive(directive.epoch):
            return
        if self.store_on:
            self.store.append_fence(sid, directive.epoch, now)
        live = [s.server_id for s in self.servers if s.alive]
        moves = rejoin_server(
            self.placement, sid,
            capacity=self._initial_capacities[sid],
            live=live,
        )
        self.engine.invalidate()
        self.migrations += len(moves)
        self._charge_migrations(moves)
        self._journal_moves(moves, now)
        self._detected_at.pop(sid, None)
        if rec is not None:
            rec.cluster(
                "rejoin", now, now, parent=chain,
                fields=(("moves", len(moves)), ("server", sid)),
            )
        self.availability.rejoins += 1
        time_to_recover = None
        if was_crashed and sid in self._crashed_at:
            time_to_recover = now - self._crashed_at.pop(sid)
            self.availability.time_to_recover[sid] = time_to_recover
        self.telemetry.event(
            "server_rejoined", t=now, server=sid, moves=len(moves),
            was_crashed=was_crashed, time_to_recover=time_to_recover,
        )

    def _migration_size(self, move) -> int:
        """Metadata nodes transferred by one migration."""
        if isinstance(self.placement, D2TreePlacement):
            return move.node.subtree_size()
        from repro.baselines.dynamic_subtree import DynamicSubtreePlacement

        if isinstance(self.placement, DynamicSubtreePlacement):
            # Exclusive zone: subtree minus nested zones.
            size = move.node.subtree_size()
            for other in self.placement.zone_of:
                if other is not move.node and other.parent is not None:
                    walk = other.parent
                    while walk is not None and walk is not move.node:
                        walk = walk.parent
                    if walk is move.node:
                        size -= other.subtree_size()
            return max(1, size)
        return 1  # DROP/AngleCut migrate individual keys

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Replay the whole trace; returns throughput and latency stats."""
        try:
            return self._run()
        finally:
            self._support.restore()
            self.tree.aggregate_popularity(self._support)

    def _run(self) -> SimulationResult:
        """Pick the replay engine (see ``SimulationConfig.simulate_engine``)."""
        mode = self.config.simulate_engine
        if mode not in ("auto", "columnar", "perop"):
            raise ValueError(
                f"unknown simulate_engine {mode!r} "
                "(expected 'auto', 'columnar' or 'perop')"
            )
        if mode == "perop":
            return self._run_perop()
        eligible = self._columnar_eligible()
        if not eligible:
            if mode == "columnar":
                raise ValueError(
                    "simulate_engine='columnar' needs a fault-free run: no "
                    "fault plan or legacy failures, telemetry disabled, the "
                    "memory store, and a perfect (non-faulty, jitter-free) "
                    "network; use 'auto' or 'perop' for this configuration"
                )
            return self._run_perop()
        return self._run_columnar()

    def _columnar_eligible(self) -> bool:
        """Whether the batched columnar loop covers this configuration.

        The columnar engine implements the fault-free fast path only: every
        branch it drops (heartbeat rounds, failure detection, retries,
        telemetry, durability journaling) is *provably unobservable* under
        these conditions, which is what makes it bit-identical rather than
        merely approximate.
        """
        cfg = self.config
        return (
            not cfg.fault_plan
            and not cfg.failures
            and not self.telemetry.enabled
            and not self.store_on
            and not self.network.faulty
            and self.network.jitter == 0
            # History recording needs the per-op lifecycle hooks (invoke /
            # ack / fail with per-visit servers); the columnar loop has no
            # per-op control flow to hang them on.
            and self.history is None
        )

    def _run_perop(self) -> SimulationResult:
        """Event-heap replay: visits are served in global time order.

        Each in-flight operation is an event ``(time, seq, op_state)``; a
        server's FIFO timeline therefore only ever sees arrivals with
        non-decreasing timestamps, which keeps queueing causal (an earlier
        arrival is never stuck behind work that starts later).
        """
        import heapq
        import itertools

        cfg = self.config
        try:
            records = self.trace.records
        except TypeError:
            # Streaming trace on the per-op engine (faults, telemetry or a
            # durable store forced the fallback): materialize once. Only the
            # columnar engine replays streams in fixed memory.
            records = list(self.trace)
        # Telemetry fast path: everything below is gated on one local bool
        # and metric handles are resolved once, so a disabled run only pays
        # a handful of predicate checks per operation.
        tel = self.telemetry
        tel_on = tel.enabled
        record_ops = tel_on and tel.record_ops
        # Durability fast path: same shape as the telemetry gate — one local
        # bool, handles resolved once, nothing on the disabled path.
        store_on = self.store_on
        store = self.store
        ledger = self.durability
        # Span-tracing fast path: same shape again. Untraced runs pay one
        # predicate per site; traced runs only do real work on sampled ops.
        rec = self.spans
        rec_on = rec is not None
        mig_budget = self._mig_budget
        # History fast path: same gate shape once more. Recording an
        # operation history forces this engine (see _columnar_eligible),
        # so the invoke/ack/fail hooks live only here.
        hist = self.history
        hist_on = hist is not None
        if tel_on:
            m_completed = tel.registry.counter(
                "ops_completed", help="Operations completed")
            m_failed = tel.registry.counter(
                "ops_failed", help="Operations dropped after retry exhaustion")
            m_retries = tel.registry.counter(
                "retries", help="Client retries against crashed servers")
            m_redirects = tel.registry.counter(
                "redirects", help="Operations that hit a stale cache entry")
            h_latency = tel.registry.histogram(
                "op_latency_seconds", help="End-to-end operation latency")
            h_visits = tel.registry.histogram(
                "route_plan_visits",
                help="Server visits per route plan (deterministic plan cost)")
            h_client_retries = tel.registry.histogram(
                "client_retries",
                help="Retry attempts per finished operation "
                     "(completed or abandoned)")
        latencies: List[float] = []
        redirects = 0
        jumps_total = 0
        makespan = 0.0
        completed = 0
        next_record = 0
        #: node id -> ops completed since the last adjustment round.
        window: Dict[int, float] = defaultdict(float)
        seq = itertools.count()
        #: (event_time, tiebreak, op) where op is a mutable dict.
        events: List = []

        # Batched dispatch: namespace lookups for the next ``batch_size``
        # records are resolved in one tight pass per refill. Lookups are
        # pure reads of a static tree, so prefetching them never changes
        # behaviour — placement-dependent decisions (is_placed, CREATE
        # placement, route planning) stay at dispatch time, which is what
        # keeps any batch size byte-identical to per-op dispatch.
        batch_window = max(1, int(cfg.batch_size))
        prefetched: List = []  # consumed back-to-front (reversed refill)
        lookup = self.tree.lookup
        network = self.network

        def retry_op(op: Dict, now: float, server: int) -> None:
            """Client timeout path: back off and retry, or give up.

            Shared by every loss mode — a request to a crashed server, a
            send the network dropped, a forward cut by a partition. The op
            id is stable across attempts, which is what makes the retry
            idempotent: a completed operation is counted exactly once no
            matter how many sends it took.
            """
            attempts = op.get("attempts", 0) + 1
            op["attempts"] = attempts
            if attempts > cfg.max_retries:
                # Retry budget exhausted: the operation *fails* instead
                # of looping forever; the client moves on. Simulated
                # failures are determinate (the model never drops the
                # completion hop of a served op), so this is a history
                # ``fail``, never an ``indeterminate``.
                self.availability.failed_operations += 1
                if hist_on:
                    hist.fail(
                        op["hid"], op["client"].client_id, now, attempts
                    )
                if tel_on:
                    m_failed.inc()
                    h_client_retries.observe(float(attempts))
                    tel.op_event(
                        "op_failed", op.get("id"), t=now,
                        server=server, attempts=attempts,
                    )
                dispatch(op["client"], now + cfg.failover_latency)
                return
            self.availability.retries += 1
            if tel_on:
                m_retries.inc()
                tel.op_event(
                    "op_retry", op.get("id"), t=now,
                    server=server, attempt=attempts,
                )
            backoff = min(
                cfg.retry_backoff_cap,
                cfg.retry_backoff_base * (2 ** (attempts - 1)),
            )
            # The tree is static mid-replay, so the node resolved at
            # dispatch time is still authoritative — no re-lookup.
            fresh = self.plan_route(op["client"], op["node"], op["op"])
            op["plan"] = fresh
            op["visit"] = 0
            if rec_on:
                tr = op.get("tr")
                if tr is not None:
                    rec.retry(tr, now + cfg.failover_latency + backoff)
            heapq.heappush(
                events,
                (now + cfg.failover_latency + backoff, next(seq), op),
            )

        def dispatch(client: SimClient, start: float) -> bool:
            """Issue the next trace record from this client; False when done."""
            nonlocal next_record
            if not prefetched:
                total = len(records)
                while not prefetched and next_record < total:
                    end = min(next_record + batch_window, total)
                    while next_record < end:
                        record = records[next_record]
                        next_record += 1
                        node = lookup(record.path)
                        if node is not None:
                            prefetched.append((record, node))
                    prefetched.reverse()
                if not prefetched:
                    return False
            record, node = prefetched.pop()
            self.ops_issued += 1
            if not self.placement.is_placed(node):
                # CREATE (or first touch of a late node): the scheme
                # places the newcomer and the owner does the insert.
                server = self.scheme.place_created(
                    self.tree, self.placement, node
                )
                if self.monitor.is_dead(server):
                    # The cluster already evicted that server; a real
                    # client is routed by the authoritative map and
                    # never creates at an acknowledged-dead MDS.
                    live = [s.server_id for s in self.servers if s.alive]
                    if live:
                        server = live[stable_hash(record.path) % len(live)]
                        zones = getattr(self.placement, "zone_of", None)
                        if zones is not None and node in zones:
                            # Keep the zone map consistent, or a later
                            # rebuild would resurrect the dead owner.
                            zones[node] = server
                        self.placement.assign(node, server)
                self.created += 1
                plan = RoutePlan(visits=[Visit(server, VisitKind.SERVE)])
            else:
                plan = self.plan_route(client, node, record.op)
            # The hop tick always fires first (it keeps the fault-free path
            # byte-identical); fault adjustment only ever adds to or drops
            # the already-computed arrival.
            first_arrival = start + network.hop()
            if network.faulty:
                arrival = network.client_arrival(
                    plan.visits[0].server, first_arrival
                )
            else:
                arrival = first_arrival
            pre_lock = arrival
            if arrival is not None and plan.lock_key:
                arrival = self.locks.acquire(
                    plan.lock_key, arrival, cfg.lock_hold_time
                )
            op = {
                "client": client,
                "plan": plan,
                "visit": 0,
                "start": start,
                "path": record.path,
                "node": node,
                "op": record.op,
            }
            if hist_on:
                # Stable history op id: the 0-based issue index (the
                # durable dseq below is the same counter 1-based). Invoked
                # before the lost-send branch so a first-attempt loss still
                # has its invoke on record.
                op["hid"] = self.ops_issued - 1
                hist.invoke(op["hid"], client.client_id, start)
            if store_on:
                # Durable op sequence: stable across retries, so the acked
                # set the ledger audits is exactly-once per operation.
                op["dseq"] = self.ops_issued
            if record_ops:
                op["id"] = tel.next_op_id()
                tel.event(
                    "op_start", op["id"], t=start, path=record.path,
                    type=record.op.value, client=client.client_id,
                )
            if rec_on and rec.sampled(self.ops_issued - 1):
                op["tr"] = rec.begin_op(
                    self.ops_issued - 1, record.path, client.client_id,
                    start, pre_lock,
                    arrival if plan.lock_key else None,
                )
            if arrival is None:
                # The send was lost (loss fault): the client times out and
                # retries like any other failed attempt.
                retry_op(op, start, plan.visits[0].server)
                return True
            heapq.heappush(events, (arrival, next(seq), op))
            return True

        for client in self.clients[: cfg.num_clients]:
            if not dispatch(client, 0.0):
                break

        # Fault schedule: the declarative plan plus the legacy crash tuples,
        # split into op-count-triggered and time-triggered queues.
        fault_events = list(cfg.fault_plan) if cfg.fault_plan else []
        for at_ops, dead in cfg.failures:
            fault_events.append(
                FaultEvent(FaultKind.CRASH, dead, at_ops=int(at_ops))
            )
        plan_all = FaultPlan(fault_events)
        plan_all.validate(self.num_servers, num_monitors=cfg.num_monitors)
        ops_faults = plan_all.by_ops()
        time_faults = plan_all.by_time()
        ops_cursor = 0
        time_cursor = 0
        infinity = float("inf")
        next_heartbeat = (
            cfg.heartbeat_interval if cfg.heartbeat_interval > 0 else infinity
        )

        while events:
            now, _tick, op = heapq.heappop(events)
            # Heartbeat rounds and time-triggered faults due before ``now``
            # fire first, in chronological order (deterministic: both grids
            # derive from sim time, never the wall clock).
            while True:
                fault_at = (
                    time_faults[time_cursor].at_time
                    if time_cursor < len(time_faults)
                    else infinity
                )
                if next_heartbeat > now and fault_at > now:
                    break
                if next_heartbeat <= fault_at:
                    self._heartbeat_round(next_heartbeat)
                    next_heartbeat += cfg.heartbeat_interval
                else:
                    self._fire_fault(time_faults[time_cursor], fault_at)
                    time_cursor += 1
            plan: RoutePlan = op["plan"]
            visit = plan.visits[op["visit"]]
            server = self.servers[visit.server]
            if not server.alive:
                # The target crashed: the client times out, backs off, and
                # retries against the placement — which still routes to the
                # dead server until the Monitor detects the failure and
                # re-homes its metadata (the degraded window).
                retry_op(op, now, visit.server)
                continue
            # Span tracing captures the service start with the exact float
            # expression ResourceTimeline.serve uses (not end - duration,
            # which can differ in the last ulp and break engine parity).
            busy = server.cpu.busy_until
            end = server.process(now)
            if rec_on:
                tr = op.get("tr")
                if tr is not None:
                    rec.visit(
                        tr, visit.server, now,
                        now if now > busy else busy, end, mig_budget,
                    )
            if visit.kind is VisitKind.SERVE:
                server.record_access(op["path"], end)
            op["visit"] += 1
            if op["visit"] < len(plan.visits):
                next_server = plan.visits[op["visit"]].server
                base = end + network.hop()
                if network.faulty:
                    base = network.server_arrival(
                        visit.server, next_server, base
                    )
                    if base is None:
                        # The forward crossed a partition (or was lost):
                        # the client times out and retries the whole op.
                        retry_op(op, end, next_server)
                        continue
                heapq.heappush(events, (base, next(seq), op))
                continue
            # Final visit done: fan out replica writes asynchronously (the
            # lock orders writers; version/lease checks cover readers, so the
            # client is acked after the primary) and complete the operation.
            for s in plan.fanout:
                self.servers[s].cpu.serve_background(
                    cfg.replica_write_work * cfg.service_time
                )
            completion = end + self.network.hop()
            if store_on:
                # fsync-before-ack: the ack record is durable before the
                # client observes the completion, so a crash after this
                # point can never lose an acknowledged operation.
                store.append_ack(visit.server, op["dseq"], op["path"], completion)
                ledger.note_ack(visit.server, op["dseq"])
            client = op["client"]
            if hist_on:
                # Append order here is per-server serve order (arrivals are
                # FIFO per server), which is exactly the order the history
                # audit walks fence epochs in.
                hist.ok(
                    op["hid"], client.client_id, completion,
                    visit.server, server.fence_epoch,
                )
            redirected = any(v.kind is VisitKind.REDIRECT for v in plan.visits)
            client.note_operation(redirected)
            if redirected:
                redirects += 1
            jumps_total += plan.num_jumps
            latencies.append(completion - op["start"])
            if rec_on:
                tr = op.get("tr")
                if tr is not None:
                    rec.finish(tr, completion, len(plan.fanout))
            if tel_on:
                latency = completion - op["start"]
                m_completed.inc()
                if redirected:
                    m_redirects.inc()
                h_latency.observe(latency)
                h_visits.observe(float(len(plan.visits)))
                h_client_retries.observe(float(op.get("attempts", 0)))
                tel.op_event(
                    "op_complete", op.get("id"), t=completion,
                    latency=latency, jumps=plan.num_jumps,
                    redirected=redirected, attempts=op.get("attempts", 0),
                )
            if completion > makespan:
                makespan = completion
            window[op["node"].node_id] += 1.0
            completed += 1
            while (
                ops_cursor < len(ops_faults)
                and completed >= ops_faults[ops_cursor].at_ops
            ):
                self._fire_fault(ops_faults[ops_cursor], completion)
                ops_cursor += 1
            if cfg.adjust_every_ops and completed % cfg.adjust_every_ops == 0:
                self._adjust(completion, window)
            dispatch(client, completion)

        # Crashes the Monitor never got to detect (detection disabled, or the
        # trace drained first) were unavailable until the end of the run.
        for sid, since in self._crashed_at.items():
            if sid not in self.availability.detection_latency:
                self.availability.unavailability += max(0.0, makespan - since)

        operations = len(latencies)
        if tel_on:
            # Closing grid point: the end-of-run cluster state joins the
            # time series even when the trace drained between heartbeats.
            tel.set_time(makespan)
            self.sampler.snapshot(makespan)
            tel.registry.gauge(
                "throughput", help="Completed operations per simulated second"
            ).set(operations / makespan if makespan > 0 else 0.0)
        durability = None
        if store_on:
            durability = store.stats()
            durability.update(ledger.summary())
        return SimulationResult(
            scheme=self.scheme.name,
            trace=self.trace.name,
            num_servers=self.num_servers,
            operations=operations,
            makespan=makespan,
            throughput=operations / makespan if makespan > 0 else 0.0,
            latency=summarize_latencies(latencies),
            server_visits=[server.served for server in self.servers],
            server_utilization=[
                server.cpu.utilization(makespan) for server in self.servers
            ],
            redirects=redirects,
            migrations=self.migrations,
            lock_waits=self.locks.total_wait,
            jumps_total=jumps_total,
            availability=self.availability,
            durability=durability,
        )

    def _run_columnar(self) -> SimulationResult:
        """Batched columnar replay: the fault-free fast path of
        :meth:`_run_perop`, bit-identical on eligible runs.

        The trace streams through as :class:`~repro.traces.columns.OpBatch`
        windows (fixed memory for streaming traces); per-op dict state is
        replaced by per-client *slot* arrays (a closed loop has at most one
        in-flight op per client); server CPU timelines are inlined as
        parallel lists (synced to the real objects around rebalancing, which
        charges migration CPU on them); and per-op load counts land in the
        adjustment window keyed by node id, which both engines hand to the
        one shared round, :meth:`_adjust`.

        Parity: every dropped branch is unobservable under
        :meth:`_columnar_eligible` — heartbeat rounds only refresh Monitor
        liveness state that fault-free detection never reads to effect,
        access counters/load reports only feed heartbeats, client per-op
        stats feed nothing, and telemetry/durability hooks are disabled by
        the gate. Everything observable — service order (same heap order:
        identical (time, seq) keys), lock sequencing, CREATE placement, the
        adjustment rounds, migration charging — runs through the same code
        or an order-exact replay of it.
        """
        import heapq
        from itertools import count

        cfg = self.config
        placement = self.placement
        scheme = self.scheme
        tree = self.tree
        engine_plan = self.engine.plan
        # FastRoutingEngine: bind the scheme planner directly, hoisting the
        # per-op interning-staleness check out of the loop. Safe because the
        # tree is structurally static mid-replay (CREATE ops move placement,
        # not structure) — re-intern once up front if the engine is stale.
        planner = getattr(self.engine, "_planner", None)
        if planner is not None:
            if self.engine.table.version != tree.structure_version:
                self.engine._reintern()
            engine_plan = planner
        is_placed = placement.is_placed
        place_created = scheme.place_created
        locks_acquire = self.locks.acquire
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop
        next_seq = count().__next__
        hop = self.network.hop()  # constant: non-faulty, jitter-free
        # Exactly MetadataServer.process's duration (work=1.0, slow_factor
        # 1.0 on every server in a fault-free run).
        service = 1.0 * cfg.service_time * 1.0
        fan_cost = cfg.replica_write_work * cfg.service_time
        lock_hold = cfg.lock_hold_time
        adjust_every = cfg.adjust_every_ops
        decode = OP_FROM_CODE
        REDIRECT = VisitKind.REDIRECT
        # Span tracing (bound methods hoisted): unsampled runs pay one local
        # bool per site, sampled ops call the same SpanRecorder methods the
        # per-op engine does — shared construction is the parity guarantee.
        rec = self.spans
        rec_on = rec is not None
        mig_budget = self._mig_budget
        if rec_on:
            rec_sampled = rec.sampled
            rec_begin = rec.begin_op
            rec_visit = rec.visit
            rec_finish = rec.finish

        window: Dict[int, float] = defaultdict(float)

        servers = self.servers
        busy_until = [s.cpu.busy_until for s in servers]
        busy_time = [s.cpu.busy_time for s in servers]
        served = [s.cpu.served for s in servers]

        def sync_out() -> None:
            for i, srv in enumerate(servers):
                cpu = srv.cpu
                cpu.busy_until = busy_until[i]
                cpu.busy_time = busy_time[i]
                cpu.served = served[i]

        def sync_in() -> None:
            for i, srv in enumerate(servers):
                cpu = srv.cpu
                busy_until[i] = cpu.busy_until
                busy_time[i] = cpu.busy_time
                served[i] = cpu.served

        batches = iter_op_batches(self.trace, tree)
        b_codes: List[int] = []
        b_nids: List[int] = []
        b_nodes: List = []
        b_len = 0
        b_idx = 0
        dispatched = 0
        created = 0

        num_slots = cfg.num_clients
        clients = self.clients[:num_slots]
        slot_plan: List[Optional[RoutePlan]] = [None] * num_slots
        slot_visit = [0] * num_slots
        slot_start = [0.0] * num_slots
        slot_nid = [0] * num_slots
        #: Per-slot span trace state (None for unsampled ops).
        slot_tr: List[Optional[Dict]] = [None] * num_slots
        #: server -> interned single-SERVE plan for CREATE placements (the
        #: per-op loop builds a fresh identical plan each time; plans are
        #: immutable, so sharing cannot change behaviour).
        create_plans: Dict[int, RoutePlan] = {}

        latencies: List[float] = []
        lat_append = latencies.append
        redirects = 0
        jumps_total = 0
        makespan = 0.0
        completed = 0
        events: List = []

        # Dispatch is inlined twice below — at the seed loop and at the
        # completion site — instead of living in a closure: the hot loop
        # then runs on plain locals (no cell-variable indirection) and pays
        # no per-op call. The two copies must stay line-for-line identical
        # apart from how the new event enters the heap.
        for slot in range(num_slots):
            if b_idx >= b_len:
                batch = next(batches, None)
                if batch is None:
                    break
                b_codes = batch.op_codes
                b_nids = batch.node_ids
                b_nodes = batch.nodes
                b_len = len(b_codes)
                b_idx = 0
            i = b_idx
            b_idx = i + 1
            node = b_nodes[i]
            dispatched += 1
            if is_placed(node):
                plan = engine_plan(clients[slot], node, decode[b_codes[i]])
            else:
                # CREATE (or first touch of a late node). No dead-server
                # fallback: fault-free, the Monitor never evicts anyone.
                server = place_created(tree, placement, node)
                created += 1
                plan = create_plans.get(server)
                if plan is None:
                    plan = RoutePlan(visits=[Visit(server, VisitKind.SERVE)])
                    create_plans[server] = plan
            pre_lock = arrival = hop
            if plan.lock_key:
                arrival = locks_acquire(plan.lock_key, arrival, lock_hold)
            slot_plan[slot] = plan
            slot_visit[slot] = 0
            slot_start[slot] = 0.0
            slot_nid[slot] = b_nids[i]
            if rec_on:
                slot_tr[slot] = rec_begin(
                    dispatched - 1, node.path, clients[slot].client_id,
                    0.0, pre_lock,
                    arrival if plan.lock_key else None,
                ) if rec_sampled(dispatched - 1) else None
            heappush(events, (arrival, next_seq(), slot))

        while events:
            now, _tick, slot = events[0]  # peek; replaced or popped below
            plan = slot_plan[slot]
            visits = plan.visits
            vidx = slot_visit[slot]
            sid = visits[vidx][0]
            # Inlined ResourceTimeline.serve (FIFO busy-until clock).
            busy = busy_until[sid]
            begin = now if now > busy else busy
            end = begin + service
            busy_until[sid] = end
            busy_time[sid] += service
            served[sid] += 1
            if rec_on:
                tr = slot_tr[slot]
                if tr is not None:
                    rec_visit(tr, sid, now, begin, end, mig_budget)
            vidx += 1
            nvis = len(visits)
            if vidx < nvis:
                slot_visit[slot] = vidx
                heapreplace(events, (end + hop, next_seq(), slot))
                continue
            # Final visit done: async replica fan-out, then completion.
            for fs in plan.fanout:
                # Inlined ResourceTimeline.serve_background.
                busy_until[fs] += fan_cost
                busy_time[fs] += fan_cost
                served[fs] += 1
            completion = end + hop
            if nvis == 1:
                if visits[0][1] is REDIRECT:
                    redirects += 1
            else:
                jumps_total += nvis - 1
                for visit in visits:
                    if visit[1] is REDIRECT:
                        redirects += 1
                        break
            lat_append(completion - slot_start[slot])
            if rec_on:
                tr = slot_tr[slot]
                if tr is not None:
                    rec_finish(tr, completion, len(plan.fanout))
            if completion > makespan:
                makespan = completion
            window[slot_nid[slot]] += 1.0
            completed += 1
            if adjust_every and completed % adjust_every == 0:
                # Rebalancing charges migration CPU on the real timeline
                # objects, so the inlined columns sync out and back in.
                sync_out()
                self._adjust(completion, window)
                sync_in()
            # Inlined dispatch (see the seed loop above).
            if b_idx >= b_len:
                batch = next(batches, None)
                if batch is None:
                    heappop(events)
                    continue
                b_codes = batch.op_codes
                b_nids = batch.node_ids
                b_nodes = batch.nodes
                b_len = len(b_codes)
                b_idx = 0
            i = b_idx
            b_idx = i + 1
            node = b_nodes[i]
            dispatched += 1
            if is_placed(node):
                plan = engine_plan(clients[slot], node, decode[b_codes[i]])
            else:
                server = place_created(tree, placement, node)
                created += 1
                plan = create_plans.get(server)
                if plan is None:
                    plan = RoutePlan(visits=[Visit(server, VisitKind.SERVE)])
                    create_plans[server] = plan
            pre_lock = arrival = completion + hop
            if plan.lock_key:
                arrival = locks_acquire(plan.lock_key, arrival, lock_hold)
            slot_plan[slot] = plan
            slot_visit[slot] = 0
            slot_start[slot] = completion
            slot_nid[slot] = b_nids[i]
            if rec_on:
                slot_tr[slot] = rec_begin(
                    dispatched - 1, node.path, clients[slot].client_id,
                    completion, pre_lock,
                    arrival if plan.lock_key else None,
                ) if rec_sampled(dispatched - 1) else None
            heapreplace(events, (arrival, next_seq(), slot))

        self.created += created

        sync_out()
        # Fault-free, every dispatched op completes exactly once; the bulk
        # add matches the per-op loop's per-dispatch increments.
        self.ops_issued += dispatched
        operations = len(latencies)
        return SimulationResult(
            scheme=self.scheme.name,
            trace=self.trace.name,
            num_servers=self.num_servers,
            operations=operations,
            makespan=makespan,
            throughput=operations / makespan if makespan > 0 else 0.0,
            latency=summarize_latencies(latencies),
            server_visits=[server.served for server in self.servers],
            server_utilization=[
                server.cpu.utilization(makespan) for server in self.servers
            ],
            redirects=redirects,
            migrations=self.migrations,
            lock_waits=self.locks.total_wait,
            jumps_total=jumps_total,
            availability=self.availability,
            durability=None,
        )

    def close(self) -> None:
        """Release the durable store's files (idempotent)."""
        self.store.close()


def simulate(
    scheme: MetadataScheme,
    workload: GeneratedWorkload,
    num_servers: int,
    config: Optional[SimulationConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> SimulationResult:
    """One-call wrapper: partition, replay, report.

    Pass a :class:`repro.obs.Telemetry` to collect sim-time metrics, gauge
    time series and trace events for the run (see ``docs/OBSERVABILITY.md``).
    """
    sim = ClusterSimulator(
        scheme, workload, num_servers, config, telemetry=telemetry
    )
    try:
        return sim.run()
    finally:
        sim.close()


# ----------------------------------------------------------------------
# Fig. 7 methodology: round-based balance trajectory
# ----------------------------------------------------------------------
@dataclass
class BalanceTrajectory:
    """Per-round balance degrees under online adjustment."""

    scheme: str
    trace: str
    num_servers: int
    per_round: List[float] = field(default_factory=list)
    migrations: int = 0

    @property
    def final_balance(self) -> float:
        """Balance of the last replay round (the Fig. 7 reading)."""
        return self.per_round[-1] if self.per_round else float("inf")


def _set_popularity_from_counts(tree: NamespaceTree, counts: Dict[str, float]) -> None:
    for node in tree:
        node.individual_popularity = counts.get(node.path, 0.0)
    tree.aggregate_popularity()


def _count_paths(trace: Trace) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for record in trace.records:
        counts[record.path] = counts.get(record.path, 0.0) + 1.0
    return counts


def _served_loads(placement: Placement, tree: NamespaceTree, counts: Dict[str, float]) -> List[float]:
    loads = [0.0] * placement.num_servers
    for path, count in counts.items():
        node = tree.lookup(path)
        if node is None or not placement.is_placed(node):
            continue
        servers = placement.servers_of(node)
        share = count / len(servers)
        for server in servers:
            loads[server] += share
    return loads


def replay_rounds(
    scheme: MetadataScheme,
    workload: GeneratedWorkload,
    num_servers: int,
    rounds: int = 20,
    popularity_blend: float = 0.5,
    normalize: bool = True,
) -> BalanceTrajectory:
    """Measure balance while replaying the trace in adjustment rounds.

    Round ``r``'s served load is measured under the placement adapted to
    rounds ``< r`` (online evaluation); the scheme then observes round ``r``
    and rebalances. The last round's balance is what Fig. 7 plots.
    """
    if rounds < 2:
        raise ValueError("need at least two rounds (one to adapt, one to measure)")
    tree = workload.tree
    initial_popularity = [node.individual_popularity for node in tree]
    pieces = workload.trace.rounds(rounds)
    estimate = _count_paths(pieces[0])
    _set_popularity_from_counts(tree, estimate)
    placement = scheme.partition(tree, num_servers)

    trajectory = BalanceTrajectory(
        scheme=scheme.name, trace=workload.trace.name, num_servers=num_servers
    )
    for piece in pieces[1:]:
        counts = _count_paths(piece)
        loads = _served_loads(placement, tree, counts)
        if normalize:
            total = sum(loads)
            if total > 0:
                loads = [load * num_servers / total for load in loads]
        trajectory.per_round.append(balance_degree(loads, placement.capacities))
        # Servers observe the round and adjust.
        for path, count in counts.items():
            estimate[path] = (1 - popularity_blend) * estimate.get(path, 0.0) + (
                popularity_blend * count
            )
        for path in list(estimate):
            if path not in counts:
                estimate[path] *= 1 - popularity_blend
        _set_popularity_from_counts(tree, estimate)
        trajectory.migrations += len(scheme.rebalance(tree, placement))
    for node, popularity in zip(tree.nodes, initial_popularity):
        node.individual_popularity = popularity
    tree.aggregate_popularity()
    return trajectory
