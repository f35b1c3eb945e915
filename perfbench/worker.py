"""One measured process: runs a workload once and prints a JSON sample.

``run.py`` starts this script as a fresh interpreter for every sample, so
set-up time covers interpreter start, imports and workload generation the
way a user's ``repro simulate`` / ``repro serve`` invocation pays them. The
last line of standard output is the sample; the clock is
``time.monotonic()``, which is shared by every process on the host, so the
parent's spawn instant and this process's timestamps subtract directly.

A sim workload generates, partitions, simulates and serialises the
result, as ``repro simulate --json`` does. A serve workload generates,
then makes one live run per offered rate in ``--rates``, each on a fresh
cluster, as ``repro serve --max-ops --rate`` does.

``--traced 1`` installs the span wrappers of ``tracer.py`` before any
workload object exists. A :class:`hostspeed.SpeedSampler` runs from the
first line on, so the sample also carries its times in reference seconds
(``*_ref_s``), with the host's speed drift taken out.
"""

from hostspeed import SpeedSampler

SPEED = SpeedSampler()
SPEED.start()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer, rebind_everywhere  # noqa: E402
from workloads import WORKLOADS, fault_specs, percentile  # noqa: E402

#: Scratch directory for WAL files, unix sockets and span files. Relative
#: to the checkout root (the working directory) so socket paths stay short.
OUT_DIR = ".perfbench_out"
#: Below saturation the generator dispatches on time; a median lateness
#: above this means the fixed-rate run was saturated or the due times
#: were derived wrongly.
LATE_P50_LIMIT_MS = 50.0


# ----------------------------------------------------------------------
# Always-on probes (one call per run, or two clock reads per live op)
# ----------------------------------------------------------------------
class SimProbe:
    """Notes when the replay loop starts and which loop it was."""

    def __init__(self) -> None:
        self.t_first_op = None
        self.sim = None
        self.engine = 0  # 1 columnar, 2 per-op

    def install(self) -> None:
        from repro.simulation.runner import ClusterSimulator

        probe = self
        run = ClusterSimulator.run
        run_columnar = ClusterSimulator._run_columnar
        run_perop = ClusterSimulator._run_perop

        def hooked_run(sim):
            probe.t_first_op = time.monotonic()
            probe.sim = sim
            return run(sim)

        def hooked_columnar(sim):
            probe.engine = 1
            return run_columnar(sim)

        def hooked_perop(sim):
            probe.engine = 2
            return run_perop(sim)

        ClusterSimulator.run = hooked_run
        ClusterSimulator._run_columnar = hooked_columnar
        ClusterSimulator._run_perop = hooked_perop


class OpenLoopProbe:
    """Due-time bookkeeping for ``LoadGenerator`` (which times ops from
    dispatch). Records each op's dispatch and finish on the loop clock,
    the generator's own Poisson gaps, and the process CPU clock around
    each ``LoadGenerator.run``."""

    def __init__(self) -> None:
        self.t_first_op = None
        self.reset()

    def reset(self) -> None:
        """Forget the previous run's ops (the first-op instant stays)."""
        self.generator = None
        self.dispatch = {}
        self.finish = {}
        #: Exponential draws of each loadgen RNG that made any.
        self.schedules = []
        #: ``time.process_time()`` when ``LoadGenerator.run`` started/ended.
        self.cpu = None

    def install(self) -> None:
        import asyncio

        import repro.transport.loadgen as loadgen
        from repro.transport.loadgen import LoadGenerator

        probe = self

        class RecordingRandom(random.Random):
            """loadgen's RNG, keeping the Poisson gaps it draws."""

            def expovariate(self, lambd):
                value = super().expovariate(lambd)
                try:
                    self.draws.append(value)
                except AttributeError:
                    self.draws = [value]
                    probe.schedules.append(self.draws)
                return value

        class RandomModule:
            """What loadgen sees as ``random``: the module, with
            :class:`RecordingRandom` as its ``Random``."""

            Random = RecordingRandom

            def __getattr__(self, name):
                return getattr(random, name)

        loadgen.random = RandomModule()
        run = LoadGenerator.run
        run_op = LoadGenerator._run_op

        async def hooked_run(gen):
            if probe.t_first_op is None:
                probe.t_first_op = time.monotonic()
            probe.generator = gen
            cpu_start = time.process_time()
            try:
                return await run(gen)
            finally:
                probe.cpu = (cpu_start, time.process_time())

        async def timed(coro, op_id, loop):
            try:
                await coro
            finally:
                probe.finish[op_id] = loop.time()

        def hooked_run_op(gen, op_id, path, op_value, entry, gate):
            loop = asyncio.get_running_loop()
            probe.dispatch[op_id] = loop.time()
            return timed(run_op(gen, op_id, path, op_value, entry, gate),
                         op_id, loop)

        LoadGenerator.run = hooked_run
        LoadGenerator._run_op = hooked_run_op

    def due_times(self, ops):
        """Each op's due time on the loop clock, or None when the run did
        not draw exactly one Poisson gap per op.

        The offsets are the running sum of the gaps the generator drew.
        The start instant is the latest one every dispatch is consistent
        with (no op is dispatched before it is due), so lateness is a
        lower bound.
        """
        if len(self.schedules) != 1 or len(self.schedules[0]) != len(ops):
            return None
        offsets = list(itertools.accumulate(self.schedules[0]))
        started = min(
            self.dispatch[op_id] - offsets[i]
            for i, (op_id, _p, _v) in enumerate(ops)
        )
        return {op_id: started + offsets[i]
                for i, (op_id, _p, _v) in enumerate(ops)}


# ----------------------------------------------------------------------
# Traced run: wrap each layer's entry points at the names callers bind
# ----------------------------------------------------------------------
def install_tracer(tracer: Tracer) -> dict:
    """Wrap the layer entry points; return the extra counters they feed."""
    import repro.transport.wire as wire
    from repro.cluster.locks import LockManager
    from repro.cluster.monitor import MonitorGroup
    from repro.core.namespace import NamespaceTree, NodeArena
    from repro.core.scheme import D2TreeScheme
    from repro.simulation.routing import FastRoutingEngine
    from repro.simulation.runner import ClusterSimulator
    from repro.storage.base import MetadataStore
    from repro.storage.wal import WalFile
    from repro.traces import columns
    from repro.traces.generator import TraceGenerator
    from repro.transport.asyncio_net import AsyncioTransport

    extra = {"global_layer_nodes": 0, "migrations": 0, "wal_bytes": 0,
             "wire_bytes": 0, "directive_bytes": 0}
    wrap = tracer.wrap

    TraceGenerator.generate = wrap("traces.generate", TraceGenerator.generate)
    rebind_everywhere(
        columns.iter_op_batches,
        tracer.wrap_generator("traces.batch", columns.iter_op_batches),
    )

    def note_partition(placement):
        split = getattr(placement, "split", None)
        if split is not None:
            extra["global_layer_nodes"] = len(split.global_layer)

    D2TreeScheme.partition = wrap(
        "core.partition", D2TreeScheme.partition, note_partition)
    D2TreeScheme.place_created = wrap(
        "core.place_created", D2TreeScheme.place_created)
    NodeArena.aggregate_popularity = wrap(
        "core.aggregate", NodeArena.aggregate_popularity)
    NamespaceTree.aggregate_popularity = wrap(
        "core.aggregate", NamespaceTree.aggregate_popularity)

    def note_moves(moves):
        extra["migrations"] += len(moves)

    MonitorGroup.rebalance = wrap(
        "adjust.rebalance", MonitorGroup.rebalance, note_moves)
    # The planner is bound per engine instance in __init__ (the columnar
    # loop calls it directly), so the class functions are what to wrap.
    FastRoutingEngine._plan_d2 = wrap(
        "routing.plan", FastRoutingEngine._plan_d2)
    FastRoutingEngine._plan_generic = wrap(
        "routing.plan", FastRoutingEngine._plan_generic)
    LockManager.acquire = wrap("locks.acquire", LockManager.acquire)
    ClusterSimulator.run = wrap("runner.run", ClusterSimulator.run)

    for name in ("append_ack", "append_fence", "append_mutation",
                 "append_directive"):
        setattr(MetadataStore, name,
                wrap("storage.append", getattr(MetadataStore, name)))
    MetadataStore.recover_server = wrap(
        "storage.recover", MetadataStore.recover_server)

    def note_wal_bytes(written):
        extra["wal_bytes"] += written

    WalFile.append = wrap("storage.wal_append", WalFile.append,
                          note_wal_bytes)

    encode = wire.encode_frame

    def sized_encode(payload):
        frame = encode(payload)
        extra["wire_bytes"] += len(frame)
        if payload.get("type") == "directive":
            extra["directive_bytes"] = max(extra["directive_bytes"],
                                           len(frame))
        return frame

    rebind_everywhere(encode, wrap("wire.encode", sized_encode))
    rebind_everywhere(wire.decode_payload,
                      wrap("wire.decode", wire.decode_payload))
    AsyncioTransport.send_data = tracer.wrap_async(
        "transport.send_data", AsyncioTransport.send_data)
    return extra


# ----------------------------------------------------------------------
# Workload bodies
# ----------------------------------------------------------------------
def make_profile(params, seed, num_operations=None):
    from repro.cli import PROFILE_MAKERS

    profile = PROFILE_MAKERS[params["trace"]](
        num_nodes=params["nodes"], scale=params.get("scale", 1e-3))
    changes = {"seed": seed}
    if params.get("create_fraction"):
        changes["create_fraction"] = params["create_fraction"]
    if num_operations is not None:
        changes["num_operations"] = num_operations
    return dataclasses.replace(profile, **changes)


def run_sim(params, seed, sample):
    from repro import registry
    from repro.metrics.balance import balance_from_placement
    from repro.cluster.cache import LRUCache
    from repro.simulation import SimulationConfig, simulate
    from repro.simulation.faults import FaultPlan
    from repro.traces import load_workload

    probe = SimProbe()
    probe.install()
    sample["t_imported"] = time.monotonic()
    if sample.get("tracer") is not None:
        sample["extra"] = install_tracer(sample["tracer"])

    workload = load_workload(make_profile(params, seed))
    num_ops = sample["trace_len"] = len(workload.trace)
    specs = fault_specs(params, num_ops)
    store_dir = os.path.join(OUT_DIR, f"store-{os.getpid()}")
    config = SimulationConfig(
        seed=seed, num_monitors=params["monitors"], store=params["store"],
        store_dir=store_dir,
        fault_plan=FaultPlan.parse(specs) if specs else None,
    )
    scheme = registry.create(params["scheme"])
    try:
        result = simulate(scheme, workload, params["servers"], config)
        # The reporting step of `repro simulate --json`.
        payload = result.to_dict()
        payload["scheme_params"] = scheme.params()
        json.dumps([payload], indent=2, sort_keys=True)
        sample["t_result"] = time.monotonic()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    sim = probe.sim
    ops = result.operations
    failed = result.failed_operations
    checks = []
    if sim.ops_issued != ops + failed:
        checks.append(f"issued {sim.ops_issued} != completed {ops} "
                      f"+ failed {failed}")
    if sim.ops_issued != num_ops:
        checks.append(f"issued {sim.ops_issued} of {num_ops} trace ops")
    if not specs and failed:
        checks.append(f"{failed} ops failed on a fault-free run")
    durability = result.durability
    if params["store"] != "memory":
        kills = sum(1 for spec in specs if spec.startswith("kill9"))
        if durability is None:
            checks.append("durable run reported no durability block")
        else:
            if durability["violations"]:
                checks.extend(durability["violations"])
            if durability["kill9_crashes"] != kills:
                checks.append(f"{durability['kill9_crashes']} kill9 "
                              f"crashes fired, expected {kills}")
            if durability["recoveries"] != kills:
                checks.append(f"{durability['recoveries']} recoveries, "
                              f"expected {kills}")
            if durability["acked_ops"] != ops:
                checks.append(f"durable acks {durability['acked_ops']} "
                              f"!= completed ops {ops}")
    balance = balance_from_placement(sim.tree, sim.placement)
    sample.update(
        t_first_op=probe.t_first_op,
        issued=sim.ops_issued,
        completed=ops,
        failed=failed,
        checks=checks,
        engine=probe.engine,
        model={
            "p50_ms": result.latency.p50 * 1e3,
            "p99_ms": result.latency.p99 * 1e3,
            "sim_throughput": result.throughput,
            "jumps_per_op": result.mean_jumps,
            "redirects_per_op": result.redirects / ops if ops else 0.0,
            "round_trips_per_op": (
                (ops + result.redirects + result.retries) / ops
                if ops else 0.0),
            # Eq. 2 on normalised loads; infinite (a perfect balance) is
            # not valid JSON, so it reads as 0.
            "balance": balance if math.isfinite(balance) else 0.0,
        },
        counters={
            "owner_index_hit_rate": sim.engine.hit_rate,
            "index_cache_hit_rate": LRUCache.merged_hit_rate(
                client.index_cache for client in sim.clients),
            "fsyncs": sim.store.fsyncs,
            "replayed_records": (durability or {}).get("replayed_records", 0),
        },
    )


def serve_once(params, seed, workload, rate, num_ops, probe):
    """One `repro serve` run of the first ``num_ops`` ops at ``rate``."""
    from repro import registry
    from repro.transport.live import LiveConfig
    from repro.transport.loadgen import LoadConfig, trace_ops
    from repro.transport.serve import serve_workload

    workload = dataclasses.replace(
        workload, trace=workload.trace.slice(0, num_ops))
    socket_dir = os.path.join(OUT_DIR, f"sock-{os.getpid()}")
    os.makedirs(socket_dir, exist_ok=True)
    probe.reset()
    try:
        report = serve_workload(
            registry.create(params["scheme"]), workload,
            LiveConfig(num_servers=params["servers"],
                       num_monitors=params["monitors"], transport="unix",
                       socket_dir=socket_dir, seed=seed),
            LoadConfig(rate=rate, seed=seed),
        )
    finally:
        shutil.rmtree(socket_dir, ignore_errors=True)

    ops = trace_ops(workload.trace)
    checks = list(report.violations)
    unfinished = len(ops) - len(probe.finish)
    if unfinished:
        checks.append(f"{unfinished} ops never finished")
    settled = report.acked + report.failed + report.indeterminate
    if settled != report.operations:
        checks.append(f"issued {report.operations} != acked {report.acked} "
                      f"+ failed {report.failed} "
                      f"+ indeterminate {report.indeterminate}")
    due = probe.due_times(ops)
    if due is None:
        checks.append("the load generator drew no one-gap-per-op Poisson "
                      "schedule; due times are unknown")
        due = probe.dispatch
    acked = probe.generator.report.acked_ids
    # Latency is event-loop work: clients, MDSs and monitors share the
    # loop, so it is converted to reference time like the CPU time. A
    # failed op counts as missing every limit.
    clock = SPEED.reference_clock()
    latencies = sorted(
        (clock(probe.finish[op_id]) - clock(due[op_id])) * 1e3
        if op_id in acked else math.inf
        for op_id, _p, _v in ops
    )
    lateness = sorted(probe.dispatch[op_id] - due[op_id]
                      for op_id, _p, _v in ops)
    late_p50_ms = percentile(lateness, 0.50) * 1e3
    if rate <= params["fixed_rate"] and late_p50_ms > LATE_P50_LIMIT_MS:
        checks.append(f"median dispatch lateness {late_p50_ms:.1f} ms at "
                      f"{rate:g} ops/s: the open loop fell behind its "
                      f"schedule, or the due times are wrong")
    served = report.per_server_served
    cpu_start, cpu_end = probe.cpu
    cpu_clock = SPEED.reference_clock(cpu=True)
    return {
        "rate": rate,
        "issued": report.operations,
        "completed": report.acked,
        "failed": report.failed + report.indeterminate,
        "checks": checks,
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
        "redirects": report.redirects,
        "retries": report.retries,
        "saturated": probe.generator.report.saturated,
        "lateness_p99_ms": percentile(lateness, 0.99) * 1e3,
        "cpu_s": cpu_end - cpu_start,
        "cpu_ref_s": cpu_clock(cpu_end) - cpu_clock(cpu_start),
        "served_share_max": max(served) / sum(served) if sum(served) else 0.0,
    }


def run_serve(params, seed, sample, rates, run_s, trace_ops_total):
    """Live runs at each offered rate in turn, each on a fresh cluster.

    With several rates (the ladder) the climb stops after two consecutive
    rates miss the p99 limit: the cluster is past saturation.
    """
    import repro.transport.serve  # noqa: F401  (what `repro serve` loads)
    from repro.traces import load_workload

    probe = OpenLoopProbe()
    probe.install()
    sample["t_imported"] = time.monotonic()
    if sample.get("tracer") is not None:
        sample["extra"] = install_tracer(sample["tracer"])

    workload = load_workload(make_profile(params, seed, trace_ops_total))
    sample["trace_len"] = len(workload.trace)
    runs = []
    missed = 0
    for rate in rates:
        runs.append(serve_once(params, seed, workload, rate,
                               int(rate * run_s), probe))
        sample.setdefault("t_first_op", probe.t_first_op)
        missed = missed + 1 if runs[-1]["p99_ms"] > params["p99_limit_ms"] \
            else 0
        if missed == 2:
            break
    sample["t_result"] = time.monotonic()
    sample.update(
        runs=runs,
        issued=sum(r["issued"] for r in runs),
        completed=sum(r["completed"] for r in runs),
        failed=sum(r["failed"] for r in runs),
        checks=[c for r in runs for c in r.pop("checks")],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() when run.py spawned us")
    parser.add_argument("--rates", default=None,
                        help="serve: offered ops/s, comma-separated")
    parser.add_argument("--run-s", type=float, default=None,
                        help="serve: seconds of offered load per rate")
    parser.add_argument("--trace-ops", type=int, default=None,
                        help="serve: length of the generated trace")
    args = parser.parse_args(argv)

    params = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}") \
        if args.traced else None
    sample = {"tracer": tracer}
    if params["kind"] == "sim":
        run_sim(params, args.seed, sample)
    else:
        rates = [float(rate) for rate in args.rates.split(",")]
        run_serve(params, args.seed, sample, rates, args.run_s,
                  args.trace_ops)
    sample["rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    sample["repro_modules"] = sum(
        1 for name in sys.modules
        if name == "repro" or name.startswith("repro."))
    sample.pop("tracer")
    SPEED.stop()
    clock = SPEED.reference_clock()
    spawned = clock(args.t_spawn)
    sample.update(
        import_ref_s=clock(sample["t_imported"]) - spawned,
        setup_ref_s=clock(sample["t_first_op"]) - spawned,
        wall_ref_s=clock(sample["t_result"]) - spawned,
        burst_median_s=SPEED.median_burst(),
    )
    if tracer is not None:
        span_file = os.path.join(OUT_DIR, f"spans-{tracer.run_id}.jsonl")
        tracer.write(span_file)
        sample["spans_file"] = span_file
        sample["layers"] = tracer.totals()
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
