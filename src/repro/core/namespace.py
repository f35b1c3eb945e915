"""Namespace tree container.

``NamespaceTree`` owns the root :class:`~repro.core.node.MetadataNode` and
provides path-based insertion/lookup, popularity bookkeeping (Def. 2 of the
paper), and the traversal utilities the partitioning algorithms rely on.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.node import PATH_SEPARATOR, MetadataNode

__all__ = ["NamespaceTree", "NodeArena", "PathTable", "PopularitySupport", "split_path"]


def split_path(path: str) -> List[str]:
    """Split an absolute path into components, ignoring blank segments.

    >>> split_path("/home/b/h.jpg")
    ['home', 'b', 'h.jpg']
    >>> split_path("/")
    []
    """
    return [part for part in path.split(PATH_SEPARATOR) if part]


class PathTable:
    """Interned-path view of one :class:`NamespaceTree` snapshot.

    The routing fast path never wants to split or hash path *strings* in its
    hot loop, so the table interns every live path to the node's dense
    integer id and precomputes the structural arrays route planning needs:

    * ``parent_id`` / ``depth`` — parent pointers and depths indexed by id,
    * lazily-built **ancestor chains** (root-first, excluding the node
      itself) shared across every lookup of the same node, and
    * ``ancestor_at_depth`` — O(1) after the first touch of a node's chain.

    A table is valid for one structure version of its tree; mutation
    (insert / rename / move / remove) bumps the version and
    :meth:`NamespaceTree.path_table` hands out a fresh table. Popularity
    updates do not invalidate it.
    """

    __slots__ = ("tree", "version", "_id_of", "_nodes", "parent_id", "depth", "_chains")

    def __init__(self, tree: "NamespaceTree") -> None:
        self.tree = tree
        self.version = tree.structure_version
        self._nodes = tree._nodes
        self._id_of: Dict[str, int] = {
            path: node.node_id for path, node in tree._by_path.items()
        }
        # Top-down traversal (registration order is NOT topological once
        # move_node has re-parented a subtree under a later-registered node).
        parent_id: List[int] = [-1] * len(self._nodes)
        depth: List[int] = [0] * len(self._nodes)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nid = node.node_id
            child_depth = depth[nid] + 1
            for child in node.children:
                cid = child.node_id
                parent_id[cid] = nid
                depth[cid] = child_depth
                stack.append(child)
        self.parent_id = parent_id
        self.depth = depth
        #: node_id -> ancestors root-first, excluding the node (lazy).
        self._chains: List[Optional[Tuple[MetadataNode, ...]]] = [None] * len(self._nodes)

    def __len__(self) -> int:
        return len(self._id_of)

    def id_of(self, path: str) -> int:
        """Interned id for ``path``, or -1 when the path is absent."""
        return self._id_of.get(path, -1)

    def node_of(self, node_id: int) -> MetadataNode:
        """The node carrying dense id ``node_id``."""
        return self._nodes[node_id]

    def chain(self, node: MetadataNode) -> Tuple[MetadataNode, ...]:
        """Ancestors of ``node`` root-first, excluding ``node`` (set ``A_j``).

        Unlike :meth:`MetadataNode.ancestors` this allocates once per node
        per table — the tuple is cached and shared, which is what lets the
        generic planner walk POSIX prefixes without per-operation list
        builds. Chains compose: a node's chain is its parent's chain plus
        the parent.
        """
        chains = self._chains
        nid = node.node_id
        cached = chains[nid]
        if cached is None:
            parent = node.parent
            if parent is None:
                cached = ()
            else:
                cached = self.chain(parent) + (parent,)
            chains[nid] = cached
        return cached

    def ancestor_at_depth(self, node: MetadataNode, depth: int) -> MetadataNode:
        """The ancestor of ``node`` at ``depth`` (``node`` itself at its own).

        O(1) once the node's chain is built.
        """
        own = self.depth[node.node_id]
        if not 0 <= depth <= own:
            raise ValueError(f"depth {depth} outside [0, {own}]")
        if depth == own:
            return node
        return self.chain(node)[depth]


class NodeArena:
    """Array-backed (structure-of-arrays) view of one tree snapshot.

    Where :class:`PathTable` interns *paths* for route planning, the arena
    lays the tree's structural facts out as parallel ``array`` columns keyed
    by dense node id — the form batch engines want for per-node load
    accounting without touching one Python object per node per op:

    * ``parent_id`` / ``depth`` / ``is_dir`` — structural columns,
    * :meth:`aggregate_popularity` — Def. 2 aggregation over the columns.

    Aggregation replays the exact child→parent addition sequence of
    :meth:`NamespaceTree.aggregate_popularity` (recorded symbolically at
    build time), so the float sums it produces are bit-identical to the
    object-walking version — same addends, same order. It covers the whole
    tree; adjustment rounds use the sparse :class:`PopularitySupport`
    replay instead, which skips the nodes without traffic. Like the path table,
    an arena is valid for one ``structure_version`` and is re-issued by
    :meth:`NamespaceTree.arena` after any structural mutation; popularity
    updates do not invalidate it.
    """

    __slots__ = (
        "tree",
        "version",
        "size",
        "parent_id",
        "depth",
        "is_dir",
        "_agg_child",
        "_agg_parent",
    )

    def __init__(self, tree: "NamespaceTree") -> None:
        self.tree = tree
        self.version = tree.structure_version
        size = len(tree._nodes)
        self.size = size
        parent_id = array("q", bytes(8 * size))  # zero-filled
        depth = array("q", bytes(8 * size))
        is_dir = array("b", bytes(size))
        parent_id[0] = -1
        # One top-down walk fills the structural columns; one symbolic replay
        # of the aggregation stack records the child->parent addition order
        # (registration order is NOT topological after move_node).
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nid = node.node_id
            is_dir[nid] = 1 if node.is_directory else 0
            child_depth = depth[nid] + 1
            for child in node.children:
                cid = child.node_id
                parent_id[cid] = nid
                depth[cid] = child_depth
                stack.append(child)
        agg_child = array("q")
        agg_parent = array("q")
        agg_stack: List[Tuple[MetadataNode, bool]] = [(tree.root, False)]
        while agg_stack:
            node, children_done = agg_stack.pop()
            if children_done:
                if node.parent is not None:
                    agg_child.append(node.node_id)
                    agg_parent.append(node.parent.node_id)
            else:
                agg_stack.append((node, True))
                for child in node.children:
                    agg_stack.append((child, False))
        self.parent_id = parent_id
        self.depth = depth
        self.is_dir = is_dir
        self._agg_child = agg_child
        self._agg_parent = agg_parent

    def __len__(self) -> int:
        return self.size

    def aggregate_popularity(self) -> None:
        """Recompute ``p_j`` for every node via the column replay.

        Bit-identical to :meth:`NamespaceTree.aggregate_popularity`: the
        recorded (child, parent) sequence performs the same float additions
        in the same order, and detached nodes keep
        ``popularity == individual_popularity`` exactly as the object walk
        leaves them.
        """
        nodes = self.tree._nodes
        pop = [node.individual_popularity for node in nodes]
        for cid, pid in zip(self._agg_child, self._agg_parent):
            pop[pid] += pop[cid]
        for nid, node in enumerate(nodes):
            node.popularity = pop[nid]
        self.tree._popularity_dirty = False


class PopularitySupport:
    """The part of one tree that can carry popularity.

    ``active`` holds every node whose individual popularity ``p'_j`` may be
    non-zero; ``members`` adds all of their ancestors. Outside the members
    ``p'_j == p_j == 0.0``, so the whole-tree popularity passes can skip
    those nodes and stay bit-identical: an outside node adds ``x + 0.0 ==
    x`` to its parent and ``0.0 / R`` to a server's load. That makes a
    heartbeat adjustment round cost O(support) instead of O(tree):

    * :meth:`blend` — the per-round popularity update, over ``active``,
    * :meth:`aggregate` — Def. 2 aggregation, a column replay over
      ``members`` (reach it through :meth:`NamespaceTree.aggregate_popularity`),
    * :meth:`Placement.loads` — the per-server sums, over ``active``.

    The support only grows. It sees ``p'_j`` change through :meth:`blend`
    and through nodes added to the tree since it last looked; any other
    write of a non-zero ``p'_j`` outside it needs a fresh support.
    Popularity is a count: never negative, never ``-0.0``.
    """

    __slots__ = (
        "tree",
        "members",
        "active",
        "_scanned",
        "_version",
        "_order",
        "_up",
        "_stray",
    )

    def __init__(self, tree: "NamespaceTree") -> None:
        self.tree = tree
        self.members: Set[MetadataNode] = set()
        #: Node -> its ``p'_j`` when it joined (what :meth:`restore` puts
        #: back), in join order.
        self.active: Dict[MetadataNode, float] = {}
        self._scanned = 0
        self._version = tree.structure_version
        #: Aggregation columns over the members reachable from the root:
        #: post-order nodes (root last) and each one's parent position.
        self._order: Optional[List[MetadataNode]] = None
        self._up: List[int] = []
        #: Detached members: the object walk leaves them at ``p'_j``.
        self._stray: List[MetadataNode] = []
        # A stale non-zero p_j counts too: aggregation must reset it.
        self._scan()

    def _scan(self) -> None:
        """Take in the nodes registered since the last scan."""
        nodes = self.tree._nodes
        for node in islice(nodes, self._scanned, None):
            if node.individual_popularity:
                self._join(node)
            elif node.popularity:
                self._include(node)
        self._scanned = len(nodes)

    def _include(self, node: Optional[MetadataNode]) -> None:
        """Make ``node`` and its ancestors members."""
        members = self.members
        while node is not None and node not in members:
            members.add(node)
            node = node.parent
            self._order = None

    def _join(self, node: MetadataNode) -> None:
        if node not in self.active:
            self.active[node] = node.individual_popularity
            self._include(node)

    def _sync(self) -> None:
        """Catch up with structural mutations since the last call."""
        tree = self.tree
        if tree.structure_version == self._version:
            return
        self._version = tree.structure_version
        self._scan()
        # move_node can hang a member under a parent outside the support.
        members = self.members
        for node in list(members):
            if node.parent is not None and node.parent not in members:
                self._include(node.parent)
        self._order = None

    def _build(self) -> None:
        """Record the object walk's addition order over the members."""
        members = self.members
        order: List[MetadataNode] = []
        root = self.tree.root
        stack = [(root, False)] if root in members else []
        while stack:
            node, children_done = stack.pop()
            if children_done:
                order.append(node)
            else:
                stack.append((node, True))
                for child in node.children:
                    if child in members:
                        stack.append((child, False))
        position = {node: i for i, node in enumerate(order)}
        self._up = [position[node.parent] for node in order[:-1]]
        self._stray = [node for node in members if node not in position]
        self._order = order

    def blend(self, window: Dict[int, float], weight: float) -> None:
        """``p'_j <- (1 - weight) * p'_j + weight * window[j]`` on every live
        node, ``window`` keyed by node id (absent ids observed 0.0).

        Visits only ``active`` after joining the window's nodes to it; any
        other node computes ``(1 - w) * 0.0 + w * 0.0 == 0.0 == p'_j``.
        """
        self._sync()
        nodes = self.tree._nodes
        active = self.active
        for nid in window:
            node = nodes[nid]
            if node not in active:
                self._join(node)
        removed = self.tree._removed
        targets = (
            [n for n in active if n.node_id not in removed] if removed else active
        )
        keep = 1 - weight
        observed = window.get
        for node in targets:
            node.individual_popularity = (
                keep * node.individual_popularity
                + weight * observed(node.node_id, 0.0)
            )

    def restore(self) -> None:
        """Put back every ``p'_j`` the blends changed (aggregate after)."""
        for node, popularity in self.active.items():
            node.individual_popularity = popularity

    def aggregate(self) -> None:
        """Def. 2 over the members, bit-identical to the object walk.

        The columns replay the walk's (child, parent) additions restricted
        to the members, in the same post-order; the additions skipped are
        all ``+ 0.0``. They are re-derived only when the support grows or
        the tree's structure changes.
        """
        self._sync()
        if self._order is None:
            self._build()
        order = self._order
        pop = [node.individual_popularity for node in order]
        for child, parent in enumerate(self._up):
            pop[parent] += pop[child]
        for node, value in zip(order, pop):
            node.popularity = value
        for node in self._stray:
            node.popularity = node.individual_popularity
        self.tree._popularity_dirty = False


class NamespaceTree:
    """A file-system namespace tree of :class:`MetadataNode` objects.

    The tree assigns every node a dense integer ``node_id`` (the root is 0) so
    partitioning schemes can use arrays keyed by id.
    """

    def __init__(self) -> None:
        self.root = MetadataNode(PATH_SEPARATOR, parent=None, is_directory=True, node_id=0)
        self._nodes: List[MetadataNode] = [self.root]
        self._by_path: Dict[str, MetadataNode] = {PATH_SEPARATOR: self.root}
        self._removed: Set[int] = set()
        self._popularity_dirty = False
        #: Bumped on any structural mutation; readers holding a PathTable
        #: compare against it to detect staleness.
        self.structure_version = 0
        self._path_table: Optional[PathTable] = None
        self._arena: Optional[NodeArena] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_path(
        self,
        path: str,
        is_directory: bool = False,
        individual_popularity: float = 0.0,
        update_cost: float = 0.0,
    ) -> MetadataNode:
        """Insert ``path``, creating intermediate directories as needed.

        Existing nodes are returned unchanged (their popularity is *not*
        overwritten); intermediate components are created as directories with
        zero individual popularity.
        """
        existing = self._by_path.get(path if path.startswith(PATH_SEPARATOR) else PATH_SEPARATOR + path)
        if existing is not None:
            return existing

        parts = split_path(path)
        node = self.root
        for i, part in enumerate(parts):
            child = node.child_by_name(part)
            if child is None:
                last = i == len(parts) - 1
                child = MetadataNode(
                    part,
                    parent=node,
                    is_directory=is_directory or not last,
                    individual_popularity=individual_popularity if last else 0.0,
                    update_cost=update_cost if last else 0.0,
                )
                node.add_child(child)
                self._register(child)
                self._popularity_dirty = True
            node = child
        return node

    def add_child(
        self,
        parent: MetadataNode,
        name: str,
        is_directory: bool = False,
        individual_popularity: float = 0.0,
        update_cost: float = 0.0,
    ) -> MetadataNode:
        """Create a child node directly under ``parent`` and register it."""
        if parent.child_by_name(name) is not None:
            raise ValueError(f"{parent.path!r} already has a child named {name!r}")
        child = MetadataNode(
            name,
            parent=parent,
            is_directory=is_directory,
            individual_popularity=individual_popularity,
            update_cost=update_cost,
        )
        parent.add_child(child)
        self._register(child)
        self._popularity_dirty = True
        return child

    def _register(self, node: MetadataNode) -> None:
        node.node_id = len(self._nodes)
        self._nodes.append(node)
        self._by_path[node.path] = node
        self.structure_version += 1

    # ------------------------------------------------------------------
    # Mutation (rename / move / remove)
    # ------------------------------------------------------------------
    def _reindex_subtree(self, node: MetadataNode) -> int:
        """Re-key a subtree in the path index after its paths changed."""
        count = 0
        for member in node.descendants(include_self=True):
            member._path_cache = None
        for member in node.descendants(include_self=True):
            self._by_path[member.path] = member
            count += 1
        return count

    def rename(self, node: MetadataNode, new_name: str) -> int:
        """Rename a node in place; returns how many paths changed.

        Every descendant's pathname changes with it — the operation whose
        cost separates pathname-hashing schemes from tree-partitioning ones.
        """
        if node.parent is None:
            raise ValueError("the root cannot be renamed")
        if not new_name or PATH_SEPARATOR in new_name:
            raise ValueError("names must be non-empty and slash-free")
        if node.parent.child_by_name(new_name) is not None:
            raise ValueError(f"{node.parent.path!r} already has {new_name!r}")
        for member in node.descendants(include_self=True):
            self._by_path.pop(member.path, None)
        node.name = new_name
        self.structure_version += 1
        return self._reindex_subtree(node)

    def move_node(self, node: MetadataNode, new_parent: MetadataNode) -> int:
        """Re-parent a subtree; returns how many paths changed."""
        if node.parent is None:
            raise ValueError("the root cannot be moved")
        if not new_parent.is_directory:
            raise ValueError("target parent must be a directory")
        if new_parent.child_by_name(node.name) is not None:
            raise ValueError(f"{new_parent.path!r} already has {node.name!r}")
        walk = new_parent
        while walk is not None:
            if walk is node:
                raise ValueError("cannot move a node into its own subtree")
            walk = walk.parent
        for member in node.descendants(include_self=True):
            self._by_path.pop(member.path, None)
        node.parent.children.remove(node)
        node.parent = new_parent
        new_parent.children.append(node)
        self._popularity_dirty = True
        self.structure_version += 1
        return self._reindex_subtree(node)

    def remove(self, node: MetadataNode) -> int:
        """Detach a subtree from the namespace; returns nodes removed.

        Node-id slots are retired (iteration skips them; ids of surviving
        nodes stay stable so placements keyed by node object remain valid
        for the survivors).
        """
        if node.parent is None:
            raise ValueError("the root cannot be removed")
        removed = 0
        for member in node.descendants(include_self=True):
            self._by_path.pop(member.path, None)
            self._removed.add(member.node_id)
            removed += 1
        node.parent.children.remove(node)
        node.parent = None
        self._popularity_dirty = True
        self.structure_version += 1
        return removed

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, path: str) -> Optional[MetadataNode]:
        """Return the node at ``path``, or ``None`` when absent."""
        return self._by_path.get(path)

    def path_table(self) -> PathTable:
        """The interned-path table for the tree's current structure.

        Cached until the next structural mutation; see :class:`PathTable`.
        """
        table = self._path_table
        if table is None or table.version != self.structure_version:
            table = PathTable(self)
            self._path_table = table
        return table

    def arena(self) -> NodeArena:
        """The array-backed node store for the tree's current structure.

        Cached until the next structural mutation; see :class:`NodeArena`.
        """
        arena = self._arena
        if arena is None or arena.version != self.structure_version:
            arena = NodeArena(self)
            self._arena = arena
        return arena

    def node_by_id(self, node_id: int) -> MetadataNode:
        """Return the node with dense id ``node_id``."""
        if node_id in self._removed:
            raise KeyError(f"node {node_id} was removed")
        return self._nodes[node_id]

    def __contains__(self, path: str) -> bool:
        return path in self._by_path

    def __len__(self) -> int:
        return len(self._nodes) - len(self._removed)

    def __iter__(self) -> Iterator[MetadataNode]:
        if not self._removed:
            return iter(self._nodes)
        return (n for n in self._nodes if n.node_id not in self._removed)

    @property
    def nodes(self) -> List[MetadataNode]:
        """Live nodes in registration (insertion) order."""
        if not self._removed:
            return self._nodes
        return [n for n in self._nodes if n.node_id not in self._removed]

    # ------------------------------------------------------------------
    # Popularity bookkeeping (Def. 2)
    # ------------------------------------------------------------------
    def record_access(self, node: MetadataNode, weight: float = 1.0) -> None:
        """Add ``weight`` to a node's individual popularity ``p'_j``."""
        node.individual_popularity += weight
        self._popularity_dirty = True

    def aggregate_popularity(self, support: Optional[PopularitySupport] = None) -> None:
        """Recompute total popularity ``p_j = p'_j + Σ p' (descendants)``.

        Runs one bottom-up pass over the tree. The paper sums only the
        *individual* popularity of descendants into the parent (Def. 2), which
        makes ``p_j`` the total traffic passing through ``n_j`` under
        POSIX-style path traversal. With a ``support`` the pass visits only
        its members, with a bit-identical result (see
        :class:`PopularitySupport`).
        """
        if support is not None:
            support.aggregate()
            return
        # Explicit post-order traversal from the root: registration order is
        # NOT a topological order once move_node has re-parented subtrees.
        # Removed subtrees are detached (parent None), so their popularity
        # never reaches the live tree.
        for node in self._nodes:
            node.popularity = node.individual_popularity
        stack = [(self.root, False)]
        while stack:
            node, children_done = stack.pop()
            if children_done:
                if node.parent is not None:
                    node.parent.popularity += node.popularity
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
        self._popularity_dirty = False

    def ensure_popularity(self) -> None:
        """Aggregate popularity only when a write invalidated it."""
        if self._popularity_dirty:
            self.aggregate_popularity()

    @property
    def total_popularity(self) -> float:
        """Total access popularity of the system (== root popularity)."""
        self.ensure_popularity()
        return self.root.popularity

    # ------------------------------------------------------------------
    # Whole-tree utilities
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if d > best:
                best = d
            stack.extend((child, d + 1) for child in node.children)
        return best

    def map_nodes(self, fn: Callable[[MetadataNode], None]) -> None:
        """Apply ``fn`` to every node (registration order)."""
        for node in self._nodes:
            fn(node)

    def files(self) -> List[MetadataNode]:
        """All non-directory nodes."""
        return [n for n in self._nodes if not n.is_directory]

    def directories(self) -> List[MetadataNode]:
        """All directory nodes (including the root)."""
        return [n for n in self._nodes if n.is_directory]

    def validate(self) -> None:
        """Check structural invariants; raise ``AssertionError`` on breakage.

        Intended for tests and debugging, not hot paths.
        """
        assert self.root.parent is None
        seen_ids = set()
        for node in self:
            assert node.node_id not in seen_ids, "duplicate node id"
            seen_ids.add(node.node_id)
            assert self._by_path[node.path] is node
            for child in node.children:
                assert child.parent is node
        assert len(seen_ids) == len(self)
