"""D2-Tree repro benchmark: whole-path simulate and serve workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-dtr --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes one untraced and one traced run of the same seed and
reports the per-layer metrics. Every sample is a fresh ``worker.py``
process, so set-up time includes interpreter start. The last line of
standard output is the result object; the line before it is the full
record (provenance, per-process samples, checks), which is also appended
to ``.perfbench_out/records.jsonl``. README.md documents the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Whole-run wall budget; children are killed past it.
DEADLINE_S = 170.0
#: Sim workloads: at least this many processes per measured run.
MIN_REPS = 3

END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "round_trips_per_op": "ratio",
}

PER_LAYER = {
    "import_s": "s",
    "import.modules": "count",
    "traces.generate_s": "s",
    "traces.records_per_s": "1/s",
    "traces.batch_s": "s",
    "core.partition_s": "s",
    "core.global_layer_nodes": "count",
    "core.aggregate_calls": "count",
    "core.aggregate_s": "s",
    "core.place_created_calls": "count",
    "core.place_created_s": "s",
    "adjust.rounds": "count",
    "adjust.rebalance_s": "s",
    "adjust.migrations": "count",
    "routing.plan_calls": "count",
    "routing.plan_s": "s",
    "routing.owner_index_hit_rate": "ratio",
    "cluster.index_cache_hit_rate": "ratio",
    "locks.acquires": "count",
    "locks.acquire_s": "s",
    "runner.engine": "1col_2perop",
    "runner.run_s": "s",
    "runner.self_s": "s",
    "storage.appends": "count",
    "storage.append_s": "s",
    "storage.fsyncs": "count",
    "storage.bytes_per_op": "B/op",
    "storage.recover_s": "s",
    "storage.replayed_records": "count",
    "wire.encode_calls": "count",
    "wire.encode_s": "s",
    "wire.decode_calls": "count",
    "wire.decode_s": "s",
    "wire.bytes_per_op": "B/op",
    "transport.send_data_s": "s",
    "live.redirects_per_op": "ratio",
    "live.retries": "count",
    "live.served_share_max": "ratio",
    "live.directive_bytes": "B",
    "p99_ms": "ms",
    "max_rate": "ops/s",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.saturated": "count",
    "model.sim_throughput": "ops/s",
    "model.jumps_per_op": "ratio",
    "model.redirects_per_op": "ratio",
    "model.balance": "ratio",
    "ops_failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class ChildFailed(RuntimeError):
    """A worker process crashed, timed out or printed no sample."""


class Runner:
    """Spawns worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.samples = []
        #: serve ladder climbs, each a list of ``(rate, p99_ms)``.
        self.rungs = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, *extra: str, seed=None) -> dict:
        seed = self.seed if seed is None else seed
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise ChildFailed("run deadline passed before the next sample")
        t_spawn = time.monotonic()
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(seed), "--t-spawn", repr(t_spawn), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as error:
            raise ChildFailed(f"worker timed out: {' '.join(cmd)}") from error
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(
                f"worker exited {proc.returncode}: {' '.join(cmd)}\n"
                + proc.stderr[-4000:])
        sample = json.loads(lines[-1])
        sample["wall_s"] = sample["t_result"] - t_spawn
        sample["setup_s"] = sample["t_first_op"] - t_spawn
        self.samples.append(sample)
        return sample


# ----------------------------------------------------------------------
# End-to-end runs (tracing off)
# ----------------------------------------------------------------------
def measure_sim(runner: Runner, seconds: float) -> dict:
    """Whole-command repeats of the simulate path; medians over repeats.

    Repeat ``i`` runs the inputs of ``seed * 1000 + i``, so no single
    seed's tree sets the figures. Times are in reference seconds
    (``hostspeed.py``).
    """
    samples = runner.samples
    while True:
        runner.spawn(seed=runner.seed * 1000 + len(samples))
        mean = runner.elapsed() / len(samples)
        # Stop at the repeat count whose end is nearest to ``seconds``.
        if len(samples) >= MIN_REPS and runner.elapsed() + mean / 2 > seconds:
            break
        if runner.elapsed() + mean > DEADLINE_S - 10:
            break
    return {
        "ops_per_s": statistics.median(
            s["completed"] / s["wall_ref_s"] for s in samples),
        "setup_s": statistics.median(s["setup_ref_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        # The simulated cluster's median op latency, as `repro simulate`
        # reports it; a pure speed change leaves it unchanged. It depends
        # on the seed's tree alone, so the mean over the repeats' seeds
        # is the steadier estimate.
        "p50_ms": statistics.mean(s["model"]["p50_ms"] for s in samples),
        "round_trips_per_op": statistics.median(
            s["model"]["round_trips_per_op"] for s in samples),
    }


def max_rate(rungs, limit_ms) -> float:
    """Highest offered rate meeting the p99 limit with no growing backlog.

    ``rungs`` are ``(rate, p99_ms)``. A failed op makes its rung's p99
    infinite, and a growing backlog shows as rising due-time latency, so
    the limit rejects both. Between the highest passing rung and the rung
    above it the p99 curve is taken as linear.
    """
    passing = [r for r in rungs if r[1] <= limit_ms]
    if not passing:
        return 0.0
    rate_a, p99_a = max(passing)
    above = sorted(r for r in rungs if r[0] > rate_a)
    if not above:
        return rate_a
    rate_b, p99_b = above[0]
    if p99_b == float("inf"):
        return rate_a
    return rate_a + (rate_b - rate_a) * (limit_ms - p99_a) / (p99_b - p99_a)


def serve_plan(params, seconds):
    """(fixed-rate run seconds, ladder rung seconds, trace length)."""
    fixed_s = seconds * params["fixed_share"] / params["fixed_runs"]
    rung_s = params["rung_s"]
    trace_ops = int(max(params["fixed_rate"] * fixed_s,
                        max(params["ladder"]) * rung_s))
    return fixed_s, rung_s, trace_ops


def fixed_args(params, seconds):
    fixed_s, _rung_s, trace_ops = serve_plan(params, seconds)
    return ["--rates", str(params["fixed_rate"]), "--run-s", str(fixed_s),
            "--trace-ops", str(trace_ops)]


def measure_serve(runner: Runner, seconds: float) -> dict:
    """Fixed-rate open-loop runs; medians over the processes.

    A host stall can hit one process and not the others, so each figure
    but peak memory is the median of the per-process figures. The
    offered rate is fixed, so acked ops per wall second would only
    restate it. ``ops_per_s`` is acked ops per CPU second the process
    spent inside ``LoadGenerator.run`` (clients, MDSs and monitors share
    its one event loop), in reference seconds: the capacity the live path
    would reach on one core.
    """
    params = WORKLOADS[runner.workload]
    fixed = [
        runner.spawn(*fixed_args(params, seconds),
                     seed=runner.seed * 1000 + index)["runs"][0]
        for index in range(params["fixed_runs"])
    ]
    samples = runner.samples
    return {
        "ops_per_s": statistics.median(
            run["completed"] / run["cpu_ref_s"] for run in fixed),
        "setup_s": statistics.median(s["setup_ref_s"] for s in samples),
        # A process's peak lands at one of two levels about 6 MB apart,
        # as garbage collection happens to fall; the lowest of the three
        # is the steady figure, and a program that needs more memory
        # raises it too.
        "peak_rss_mb": min(s["rss_mb"] for s in samples),
        "p50_ms": statistics.median(run["p50_ms"] for run in fixed),
        "round_trips_per_op": statistics.median(
            (run["completed"] + run["redirects"] + run["retries"])
            / max(run["completed"], 1) for run in fixed),
    }


def climb_ladders(runner: Runner, seconds: float, base) -> float:
    """``max_rate``: the median over the ladder climbs.

    ``base`` is the fixed-rate ``(rate, p99_ms)``, the rung below the
    ladder. One climb hit by a host stall can fail rungs far below
    saturation, hence several climbs.
    """
    params = WORKLOADS[runner.workload]
    _fixed_s, rung_s, trace_ops = serve_plan(params, seconds)
    runner.rungs = [
        [(run["rate"], run["p99_ms"]) for run in runner.spawn(
            "--rates", ",".join(str(rate) for rate in params["ladder"]),
            "--run-s", str(rung_s), "--trace-ops", str(trace_ops),
            seed=runner.seed * 1000 + params["fixed_runs"] + index)["runs"]]
        for index in range(params["ladder_runs"])
    ]
    return statistics.median(
        max_rate([base] + rungs, params["p99_limit_ms"])
        for rungs in runner.rungs)


# ----------------------------------------------------------------------
# Traced run (per-layer metrics)
# ----------------------------------------------------------------------
def layer_metrics(plain: dict, traced: dict, top_rate: float) -> dict:
    """Per-layer figures from one untraced and one traced sample."""
    layers = traced["layers"]
    extra = traced["extra"]

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return layers.get(name, (0, 0.0, 0.0))[1]

    generate_s = total("traces.generate")
    counters = plain.get("counters", {})
    model = plain.get("model", {})
    live = plain["runs"][0] if "runs" in plain else {}
    issued = plain["issued"]
    completed = max(plain["completed"], 1)
    if live:
        # A fixed-rate process idles between ops: compare the CPU time
        # spent serving, not the wall time.
        overhead = traced["runs"][0]["cpu_ref_s"] / live["cpu_ref_s"] - 1.0
    else:
        overhead = traced["wall_ref_s"] / plain["wall_ref_s"] - 1.0
    return {
        "import_s": plain["import_ref_s"],
        "import.modules": plain["repro_modules"],
        "traces.generate_s": generate_s,
        "traces.records_per_s": (
            traced["trace_len"] / generate_s
            if generate_s else 0.0),
        "traces.batch_s": total("traces.batch"),
        "core.partition_s": total("core.partition"),
        "core.global_layer_nodes": extra["global_layer_nodes"],
        "core.aggregate_calls": calls("core.aggregate"),
        "core.aggregate_s": total("core.aggregate"),
        "core.place_created_calls": calls("core.place_created"),
        "core.place_created_s": total("core.place_created"),
        "adjust.rounds": calls("adjust.rebalance"),
        "adjust.rebalance_s": total("adjust.rebalance"),
        "adjust.migrations": extra["migrations"],
        "routing.plan_calls": calls("routing.plan"),
        "routing.plan_s": total("routing.plan"),
        "routing.owner_index_hit_rate": counters.get(
            "owner_index_hit_rate", 0.0),
        "cluster.index_cache_hit_rate": counters.get(
            "index_cache_hit_rate", 0.0),
        "locks.acquires": calls("locks.acquire"),
        "locks.acquire_s": total("locks.acquire"),
        "runner.engine": plain.get("engine", 0),
        "runner.run_s": total("runner.run"),
        "runner.self_s": layers.get("runner.run", (0, 0.0, 0.0))[2],
        "storage.appends": calls("storage.append"),
        "storage.append_s": total("storage.append"),
        "storage.fsyncs": counters.get("fsyncs", 0),
        "storage.bytes_per_op": extra["wal_bytes"] / completed,
        "storage.recover_s": total("storage.recover"),
        "storage.replayed_records": counters.get("replayed_records", 0),
        "wire.encode_calls": calls("wire.encode"),
        "wire.encode_s": total("wire.encode"),
        "wire.decode_calls": calls("wire.decode"),
        "wire.decode_s": total("wire.decode"),
        "wire.bytes_per_op": extra["wire_bytes"] / completed,
        "transport.send_data_s": total("transport.send_data"),
        "live.redirects_per_op": live.get("redirects", 0) / completed,
        "live.retries": live.get("retries", 0),
        "live.served_share_max": live.get("served_share_max", 0.0),
        "live.directive_bytes": extra["directive_bytes"],
        "p99_ms": live.get("p99_ms", 0.0),
        "max_rate": top_rate,
        "loadgen.lateness_p99_ms": live.get("lateness_p99_ms", 0.0),
        "loadgen.saturated": live.get("saturated", 0),
        "model.sim_throughput": model.get("sim_throughput", 0.0),
        "model.jumps_per_op": model.get("jumps_per_op", 0.0),
        "model.redirects_per_op": model.get("redirects_per_op", 0.0),
        "model.balance": model.get("balance", 0.0),
        "ops_failed_frac": plain["failed"] / issued if issued else 0.0,
        "trace.overhead_frac": overhead,
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    params = WORKLOADS[runner.workload]
    serve = params["kind"] == "serve"
    args = fixed_args(params, seconds) if serve else []
    plain = runner.spawn(*args)
    traced = runner.spawn("--traced", "1", *args)
    if plain.get("model") != traced.get("model"):
        traced["checks"].append(
            "traced run changed the model outputs (tracing must be "
            "transparent)")
    if serve:
        base = (params["fixed_rate"], plain["runs"][0]["p99_ms"])
        top_rate = climb_ladders(runner, seconds, base)
    else:
        # The replay loop runs closed-loop flat out, so its rate is the
        # highest the simulator sustains.
        top_rate = plain["completed"] / (
            plain["wall_ref_s"] - plain["setup_ref_s"])
    return layer_metrics(plain, traced, top_rate)


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------
def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree of
    its own (a directory nested in another repository does not count)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over src/repro (stands in for the commit outside git)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: src/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # Build step: byte-compile once so no measured process pays it.
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    if build.returncode != 0:
        print(build.stdout + build.stderr, file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    kind = WORKLOADS[args.workload]["kind"]
    try:
        if args.trace:
            metrics = measure_traced(runner, args.seconds)
            units = PER_LAYER
        elif kind == "sim":
            metrics = measure_sim(runner, args.seconds)
            units = END_TO_END
        else:
            metrics = measure_serve(runner, args.seconds)
            units = END_TO_END
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    samples = runner.samples
    checks = [c for s in samples for c in s["checks"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": WORKLOADS[args.workload],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "rungs": runner.rungs,
        "samples": samples,
        "checks": checks,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, "records.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    for check in checks:
        print(f"check failed: {check}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks,
        "attempted": sum(s["issued"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
