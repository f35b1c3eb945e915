"""Property tests: the sparse popularity passes equal the whole-tree ones.

Two identical trees take the same random mutations. One runs the sparse
passes of :class:`PopularitySupport` (blend, Def. 2 aggregation, loads);
the other runs the whole-tree oracles (the object walk of
``NamespaceTree.aggregate_popularity`` and the full ``Placement.loads``).
Every node's popularity and every server's load must match bit for bit
(compared with ``float.hex``), including removed and detached nodes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NamespaceTree
from repro.core.namespace import PopularitySupport
from repro.placement import Placement

SERVERS = 4
#: Mostly zeros (whole zero subtrees are common), plus values whose sums
#: depend on addition order (0.1 + 0.2, 1e16 + 1.0), so an order slip shows.
VALUES = [0.0] * 6 + [0.1, 0.2, 0.3, 1.0, 2.5, 1e16, 3e-300]


def build(seed: int, size: int):
    rng = random.Random(seed)
    tree = NamespaceTree()
    dirs = [tree.root]
    cold = set()  # directories whose whole subtree stays at zero
    for i in range(size):
        parent = rng.choice(dirs)
        is_dir = rng.random() < 0.4
        zero = parent in cold or rng.random() < 0.2
        node = tree.add_child(
            parent, f"n{i}", is_directory=is_dir,
            individual_popularity=0.0 if zero else rng.choice(VALUES),
        )
        if is_dir:
            dirs.append(node)
            if zero and rng.random() < 0.5:
                cold.add(node)
    tree.aggregate_popularity()
    placement = Placement(SERVERS)
    for node in tree:
        roll = rng.random()
        if roll < 0.15:
            placement.replicate(node)
        elif roll < 0.9:
            placement.assign(node, rng.randrange(SERVERS))
        # else: created mid-run, placed on first sight ("place" below)
    return tree, placement


steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "remove", "move", "blend", "forget", "assign", "place",
             "check"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=20,
)


def mutate(tree, placement, action, pick, arg, counter):
    """Apply one structural or placement step; both trees take the same."""
    live = [n for n in tree if n.parent is not None]
    if not live:
        return
    node = live[pick % len(live)]
    dirs = [d for d in tree if d.is_directory]
    try:
        if action == "add":
            parent = dirs[arg % len(dirs)]
            prefix = "" if parent.parent is None else parent.path
            leaf = tree.add_path(
                f"{prefix}/new{counter}/leaf",
                individual_popularity=VALUES[arg % len(VALUES)],
            )
            for created in (leaf.parent, leaf):
                placement.assign(created, arg % SERVERS)
        elif action == "remove":
            tree.remove(node)
        elif action == "move":
            tree.move_node(node, dirs[arg % len(dirs)])
        elif action == "forget":
            # A re-placed key moves to the end of the placement's order.
            placement.forget(node)
            placement.assign(node, arg % SERVERS)
        elif action == "assign":
            placement.assign(node, arg % SERVERS)  # keeps its place
        elif action == "place":
            # A CREATE: the newcomer's key appends to the placement.
            unplaced = [n for n in live if not placement.is_placed(n)]
            if unplaced:
                placement.assign(unplaced[arg % len(unplaced)], pick % SERVERS)
    except ValueError:
        pass  # invalid pick (cycle, name collision)


def window_for(tree, pick, arg):
    ids = [n.node_id for n in tree]
    rng = random.Random(pick * 10_007 + arg)
    window = {}
    for _ in range(rng.randrange(6)):
        nid = rng.choice(ids)
        window[nid] = window.get(nid, 0.0) + 1.0
    return window


def oracle_blend(tree, window, weight):
    """The whole-tree update every live node used to take."""
    for node in tree:
        observed = window.get(node.node_id, 0.0)
        node.individual_popularity = (
            (1 - weight) * node.individual_popularity + weight * observed
        )


def state(tree, loads):
    nodes = [
        (n.individual_popularity.hex(), n.popularity.hex()) for n in tree._nodes
    ]
    return nodes, [load.hex() for load in loads]


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=60),
    steps,
    st.sampled_from([0.5, 0.3, 0.9]),
)
@settings(max_examples=150, deadline=None)
def test_sparse_passes_match_whole_tree(seed, size, script, weight):
    sparse_tree, sparse_placement = build(seed, size)
    full_tree, full_placement = build(seed, size)
    support = PopularitySupport(sparse_tree)
    initial = {n.node_id: n.individual_popularity for n in full_tree._nodes}
    for counter, (action, pick, arg) in enumerate(script):
        if action == "blend":
            support.blend(window_for(sparse_tree, pick, arg), weight)
            oracle_blend(full_tree, window_for(full_tree, pick, arg), weight)
        elif action != "check":
            mutate(sparse_tree, sparse_placement, action, pick, arg, counter)
            mutate(full_tree, full_placement, action, pick, arg, counter)
            for node in full_tree._nodes:
                initial.setdefault(node.node_id, node.individual_popularity)
        sparse_tree.aggregate_popularity(support)
        full_tree.aggregate_popularity()
        assert state(
            sparse_tree, sparse_placement.loads(support=support)
        ) == state(full_tree, full_placement.loads())
    # End of run: every blended estimate goes back to where it started.
    support.restore()
    sparse_tree.aggregate_popularity(support)
    for node in full_tree._nodes:
        node.individual_popularity = initial[node.node_id]
    full_tree.aggregate_popularity()
    assert state(
        sparse_tree, sparse_placement.loads(support=support)
    ) == state(full_tree, full_placement.loads())


def test_stale_popularity_is_reset():
    """A node whose p_j is stale but whose subtree carries no p'_j ends at
    0.0, as the object walk leaves it."""
    tree = NamespaceTree()
    hot = tree.add_path("/a/hot", individual_popularity=2.0)
    cold = tree.add_path("/b/cold")
    tree.aggregate_popularity()
    cold.popularity = 5.0
    cold.parent.popularity = 5.0
    support = PopularitySupport(tree)
    tree.aggregate_popularity(support)
    assert (cold.popularity, cold.parent.popularity) == (0.0, 0.0)
    assert (hot.popularity, tree.root.popularity) == (2.0, 2.0)


def test_support_skips_zero_subtrees():
    tree = NamespaceTree()
    hot = tree.add_path("/a/b/hot", individual_popularity=1.0)
    for i in range(50):
        tree.add_path(f"/cold/c{i}")
    support = PopularitySupport(tree)
    assert support.members == {hot, hot.parent, hot.parent.parent, tree.root}
    assert list(support.active) == [hot]
