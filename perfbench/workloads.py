"""The benchmark's workloads: fixed parameters, inputs derived from a seed.

Each workload drives one of the repo's two user paths through the public
API that ``repro simulate`` and ``repro serve`` call. Only the seed varies
between runs; every other parameter is pinned here. README.md says why
each workload was chosen.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: scheme -> workload parameters. ``scale`` is the fraction of the paper's
#: Table I record count (DTR: 34.3M records, RA: 259.9M records).
WORKLOADS: Dict[str, Dict[str, object]] = {
    # Headline simulate path: fault-free DTR on the columnar engine,
    # memory store. ~343k ops on a 20k-node tree.
    "sim-dtr": {
        "kind": "sim",
        "trace": "dtr",
        "nodes": 20_000,
        "scale": 1.0e-2,
        "scheme": "d2-tree",
        "servers": 8,
        "monitors": 1,
        "store": "memory",
        "create_fraction": 0.0,
        "faults": [],
    },
    # Per-op engine path: RA (writes and global-layer updates) with a
    # CREATE share, a 200k-node tree that overflows the 512-entry client
    # index cache, the WAL store, 3 monitors and a kill9 + recover of one
    # MDS mid-run. ~31k ops.
    "sim-ra-wal": {
        "kind": "sim",
        "trace": "ra",
        "nodes": 200_000,
        "scale": 1.2e-4,
        "scheme": "d2-tree",
        "servers": 8,
        "monitors": 3,
        "store": "wal",
        "create_fraction": 0.02,
        # (kind, server, fraction of the trace completed when it fires)
        "faults": [["kill9", 2, 1 / 3], ["recover", 2, 2 / 3]],
    },
    # Live path: asyncio cluster on unix sockets, 2 MDS + 3 monitors, a
    # Poisson open loop at one fixed rate; the traced run adds rate-ladder
    # climbs. The trace length follows from the run length.
    "serve-dtr": {
        "kind": "serve",
        "trace": "dtr",
        "nodes": 20_000,
        "scheme": "d2-tree",
        "servers": 2,
        "monitors": 3,
        # Below saturation with margin: the host's slow stretches halve
        # the loop's capacity (to about 3k ops/s), and at 2000 ops/s they
        # left the open loop seconds behind its schedule.
        "fixed_rate": 1000.0,
        # Share of --seconds spent at the fixed rate, split over this many
        # processes; each figure is the median over them, so one process
        # hit by a host stall does not set it. Serve process i runs the
        # inputs of seed * 1000 + i, so no single seed sets the figures.
        "fixed_share": 0.75,
        "fixed_runs": 3,
        # Ladder climbs of the traced run; max_rate is their median, so
        # one climb hit by a host stall does not set it.
        "ladder_runs": 3,
        # Seconds of offered load per ladder rung.
        "rung_s": 1.0,
        "ladder": [4400.0 + 400.0 * step for step in range(13)],
        # Rung limit on the due-time p99, in ms: above the live path's
        # garbage-collector pauses, below the backlog a rung about 20%
        # over capacity builds within its 1 s.
        "p99_limit_ms": 200.0,
    },
}


def fault_specs(params: Dict[str, object], num_ops: int) -> List[str]:
    """``repro simulate --fault`` specs, pinned to op counts of this trace."""
    return [
        f"{kind}:{server}@ops={max(1, int(num_ops * share))}"
        for kind, server, share in params.get("faults", [])
    ]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a sorted sequence (0.0 when empty), the
    convention of ``repro.transport.loadgen.latency_summary``."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
