"""Byte-identity regression against committed goldens.

The partition-tolerance machinery (SimNetwork, MonitorGroup, epoch fencing)
must cost *nothing* on a fault-free run: no RNG draws, no latency, no
serialization changes. These goldens were captured with `repro simulate
--json` and the simulator must keep reproducing them byte for byte.

Two more goldens pin the adjustment rounds: a faulted, durable run that
only the per-op engine replays, and an API-level d2-tree run whose trace
creates files mid-run, replayed through both engines.
"""

import dataclasses
import json
import pathlib

import pytest

from repro import registry
from repro.cli import main
from repro.simulation import ClusterSimulator, SimulationConfig
from repro.traces.datasets import DatasetProfile
from repro.traces.generator import TraceGenerator

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    (
        "perfect_network_all.json",
        [
            "simulate", "--trace", "dtr", "--nodes", "1200",
            "--scale", "5e-5", "--seed", "11", "--servers", "6", "--json",
        ],
    ),
    (
        "perfect_network_d2_legacy.json",
        [
            "simulate", "--trace", "lmbe", "--nodes", "800",
            "--scale", "4e-5", "--seed", "3", "--servers", "5",
            "--scheme", "d2-tree", "--routing-engine", "legacy", "--json",
        ],
    ),
    # The durability subsystem must also cost nothing when disabled: an
    # explicit `--store memory` serializes byte-identically to a run that
    # never mentions a store (no "durability" key, no counter drift).
    (
        "perfect_network_all.json",
        [
            "simulate", "--trace", "dtr", "--nodes", "1200",
            "--scale", "5e-5", "--seed", "11", "--servers", "6",
            "--store", "memory", "--json",
        ],
    ),
]


@pytest.mark.parametrize("golden,argv", CASES, ids=[c[0] for c in CASES])
def test_fault_free_output_matches_golden(capsys, golden, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / golden).read_text()
    assert json.loads(out) == json.loads(expected)  # readable diff first
    assert out == expected  # then the full byte-identity contract


def test_perop_faulted_durable_output_matches_golden(capsys, tmp_path):
    """All six schemes on the per-op engine: RA writes, a WAL store, three
    monitors, and a kill9 + recover of MDS 2 mid-run."""
    argv = [
        "simulate", "--trace", "ra", "--nodes", "20000", "--scale", "3e-5",
        "--seed", "7", "--servers", "8", "--monitors", "3", "--store", "wal",
        "--store-dir", str(tmp_path / "store"),
        "--fault", "kill9:2@ops=2500", "--fault", "recover:2@ops=5000",
        "--json",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / "perop_ra_wal_kill9.json").read_text()
    assert json.loads(out) == json.loads(expected)
    assert out == expected


def create_case_output(engine: str) -> str:
    """d2-tree on an RA trace whose cold files are created mid-run, with an
    adjustment round every 500 ops. Checks that the run leaves the shared
    tree's popularity exactly as it found it."""
    profile = dataclasses.replace(
        DatasetProfile.ra(num_nodes=3000, scale=2.5e-5),
        seed=5, create_fraction=0.02,
    )
    workload = TraceGenerator(profile).generate()
    tree = workload.tree
    before = [
        (n.individual_popularity.hex(), n.popularity.hex()) for n in tree
    ]
    config = SimulationConfig(
        seed=5, adjust_every_ops=500, simulate_engine=engine
    )
    sim = ClusterSimulator(registry.create("d2-tree"), workload, 6, config)
    try:
        result = sim.run()
    finally:
        sim.close()
    after = [
        (n.individual_popularity.hex(), n.popularity.hex()) for n in tree
    ]
    assert after == before
    payload = result.to_dict()
    payload["created"] = sim.created
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("engine", ["perop", "columnar"])
def test_create_run_matches_golden(engine):
    expected = (GOLDEN / "d2_create_rounds.json").read_text()
    assert create_case_output(engine) == expected
