"""Persistent bottleneck cluster tree over the WPG: Algorithm 1, fast form.

Algorithm 1 removes edges from a connected component in descending weight
order "until this cluster is no longer connected and is thus partitioned
into some smaller connected components".  Under Definition 4.1 the
resulting pieces must be *t-connectivity clusters*, i.e. connected
components of the subgraph keeping only edges of weight <= t — so a
partition step lowers the connectivity threshold t to the next smaller
edge weight present in the component and removes the whole weight class.
(Removing strictly one edge at a time could strand a piece that is not a
t-component for any t, breaking the equivalence-class structure that
Theorems 4.1/4.3 rely on.)

Decreasing t through the distinct weight levels of the graph traces out
a single-linkage dendrogram: each node is a t-component at some level,
its children the components it splits into at the next level down.
Nodes merge *multi-way*: all components joined by edges of one weight
level become children of a single node, so one tree level is one weight
class.  One ascending Kruskal scan over the sorted edges builds it
(:func:`_kruskal_scan`), and Algorithm 1 becomes a top-down cut.  The
literal translation in :mod:`repro.clustering.centralized` removes
descending weight classes from an explicit graph copy; the test suite
verifies it computes exactly the same partitions.

:class:`ClusterTree` is that dendrogram as a persistent, query-oriented
object — the one fast Algorithm 1 of the package, whether over the whole
WPG (the tree clustering service, ``centralized_k_clustering``) or over a
gathered vertex subset (Algorithm 2's step 3):

* one array-backed tree per connected component (parent/weight/size per
  node, children in visit order, leaves as a contiguous slice of a
  DFS-ordered vertex array), so a vertex's ancestor path is an O(depth)
  walk — and depth is bounded by the number of distinct weight levels,
  which mutual-rank WPG weights cap at ``max_peers``;
* per-vertex *minimum-MEW k-cluster* lookup
  (:meth:`smallest_valid_cluster`): the lowest ancestor with >= k
  leaves.  By the minimax-path property this is exactly the level-scan
  cluster of :func:`repro.verify.oracles.oracle_smallest_cluster` and
  the set Algorithm 2's step 1 gathers under t-reachability closure;
* memoized strict/greedy partitions (Algorithm 1) and per-node step-3
  partitions, computed natively on the tree: a strict cut below a node
  is a subtree descent (the node is a t-component, so its subtree *is*
  the dendrogram of its induced subgraph), and the greedy refinement
  runs over the persistent *constrained Kruskal forest* instead of the
  full induced subgraph — reverse-delete discards every non-forest edge
  as a non-bridge before making any keep/split decision, so restricting
  the pass to the forest is decision-for-decision identical (see
  :meth:`node_partition`);
* exact Property 4.1 *isolation bits* (:meth:`is_isolated`): a
  >=k-node C is isolated iff at every proper ancestor all off-path
  sibling subtrees have >= k leaves — then no outside vertex resolves
  through an ancestor of C, so removing C changes nobody's smallest
  valid cluster (cross-validated against
  :func:`~repro.verify.oracles.oracle_isolation_violations`);
* *marked leaves* bookkeeping (:meth:`mark` / :meth:`marked_below`):
  callers flag assigned users so a lookup can prove, in O(1) per node,
  that a resolved cluster is untouched by registry exclusions and the
  assignment-oblivious tree answer is exact;
* incremental maintenance under churn (:meth:`apply_patch`): only the
  components incident to a patch's changed edges are re-derived (plus
  the components they merge into, discovered by a closure walk over the
  patched graph); every other component tree, with all its memos,
  survives.  After the call the tree is bit-identical to a fresh build
  over the patched graph — the ``cluster-tree-equal`` fuzz invariant
  checks exactly that.

Node handles are ``(component id, node index)`` pairs; they are
invalidated for rebuilt components by :meth:`apply_patch` (their
component id disappears), never silently reused.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.errors import ConfigurationError, GraphError
from repro.graph.wpg import WeightedProximityGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.incremental import ChurnPatch

#: A node handle: (component id, node index within that component's tree).
NodeRef = tuple[int, int]

#: Forest adjacency: vertex -> [(neighbor, weight)] over forest edges.
ForestAdjacency = dict[int, list[tuple[int, float]]]


def _is_cut(
    x: int, y: int, parent: dict[int, int], tops: set[int]
) -> bool:
    """Whether tree edge (x, y) has been cut (its child endpoint is a top)."""
    return (parent[y] == x and y in tops) or (parent[x] == y and x in tops)


def _find(rep: dict[int, int], x: int) -> int:
    """Union-find root of ``x`` (path halving)."""
    while rep[x] != x:
        rep[x] = rep[rep[x]]
        x = rep[x]
    return x


class _ComponentTree:
    """The array form of one component's dendrogram (internal).

    Nodes are stored in DFS preorder, so every node's leaves occupy the
    contiguous slice ``leaf_order[leaf_lo[i]:leaf_hi[i]]``.  Parent
    weights strictly increase along every root path (the dendrogram's
    level flattening), which the ancestor walks rely on.
    """

    __slots__ = (
        "parent",
        "weight",
        "size",
        "children",
        "leaf_lo",
        "leaf_hi",
        "leaf_order",
        "leaf_node",
        "marked_below",
        "anc_ok_memo",
        "partition_memo",
        "refine_memo",
    )

    def __init__(
        self,
        parent: list[int],
        weight: list[float],
        size: list[int],
        leaf_lo: list[int],
        leaf_order: list[int],
    ) -> None:
        """Adopt the five primary preorder columns; derive the rest.

        Children are the nodes naming ``i`` as parent in ascending index
        (preorder visits siblings in child order), ``leaf_hi = leaf_lo +
        size``, and the j-th childless node in preorder owns
        ``leaf_order[j]`` (leaves are emitted in preorder).  Memos start
        empty — they are caches — and marked counters at zero.
        """
        self.parent = parent
        self.weight = weight
        self.size = size
        self.leaf_lo = leaf_lo
        self.leaf_hi = [lo + sz for lo, sz in zip(leaf_lo, size)]
        self.leaf_order = leaf_order
        self.children: list[list[int]] = [[] for _ in parent]
        for index, par in enumerate(parent):
            if par >= 0:
                self.children[par].append(index)
        self.leaf_node: dict[int, int] = {}
        position = 0
        for index, kids in enumerate(self.children):
            if not kids:
                self.leaf_node[leaf_order[position]] = index
                position += 1
        self.marked_below: list[int] = [0] * len(parent)
        #: k -> per-node "every ancestor's off-path siblings are >= k".
        self.anc_ok_memo: dict[int, list[bool]] = {}
        #: (node, k, method) -> step-3 partition clusters, in order.
        self.partition_memo: dict[
            tuple[int, int, str], tuple[frozenset[int], ...]
        ] = {}
        #: (cut-piece node, k) -> its greedy refinement, in order.  Cut
        #: pieces are tree nodes shared by every ancestor's partition,
        #: so this memo dedupes across overlapping node partitions.
        self.refine_memo: dict[tuple[int, int], tuple[frozenset[int], ...]] = {}

    def leaves(self, index: int) -> list[int]:
        return self.leaf_order[self.leaf_lo[index] : self.leaf_hi[index]]

    def strict_cut_below(self, index: int, k: int) -> list[int]:
        """Strict-cut node indices of the subtree rooted at ``index``.

        Algorithm 1's work stack: a node splits into its children iff
        *every* child has at least ``k`` leaves ("a further partition
        will lead to an invalid cluster" stops the recursion); the last
        child pushed is cut first.  A root below ``k`` comes back whole —
        an invalid cluster the caller must deal with (the paper's
        disconnected-component caveat, Fig. 5).
        """
        cut: list[int] = []
        stack = [index]
        while stack:
            node = stack.pop()
            kids = self.children[node]
            if not kids or any(self.size[c] < k for c in kids):
                cut.append(node)
            else:
                stack.extend(kids)
        return cut

    def anc_ok(self, k: int) -> list[bool]:
        """Per-node Property 4.1 bit (memoized per k): see ClusterTree."""
        memo = self.anc_ok_memo.get(k)
        if memo is not None:
            return memo
        ok = [False] * len(self.parent)
        ok[0] = True  # the root has no proper ancestors
        stack = [0]
        while stack:
            index = stack.pop()
            kids = self.children[index]
            if not kids:
                continue
            below_k = [c for c in kids if self.size[c] < k]
            for child in kids:
                off_path_ok = not below_k or (
                    len(below_k) == 1 and below_k[0] == child
                )
                ok[child] = ok[index] and off_path_ok
            stack.extend(kids)
        self.anc_ok_memo[k] = ok
        return ok


def _kruskal_scan(
    vertices: Iterable[int],
    edges: list[tuple[float, int, int]],
    with_trees: bool = True,
) -> tuple[list[_ComponentTree], ForestAdjacency]:
    """Algorithm 1's one sorted edge scan: component trees and forest.

    ``edges`` — ``(weight, u, v)`` with ``u < v``, the subgraph induced
    on ``vertices`` — is sorted once, ascending, and walked one weight
    level at a time, each level's slice twice:

    * forward (ascending ``(u, v)``), merging the level's components
      multi-way: a join adopts a same-level node's children instead of
      nesting it.  Trees come back untouched singletons first, in
      ``vertices`` order, then in the order their roots last merged;
    * in reverse (descending ``(u, v)``, the exact reverse of greedy
      removal order: descending weight, ascending key), accepting each
      edge that joins two sets into the constrained Kruskal forest.  An
      edge is therefore in the forest iff no cycle through it survives
      on edges strictly later in removal order, the certificate
      :meth:`ClusterTree.node_partition` needs.  The forest never
      crosses components, so a patch scope's slice is exact alone.

    ``with_trees=False`` runs the forest walk only (a restored tree
    brings its component trees along).
    """
    order = list(vertices)
    forest: ForestAdjacency = {vertex: [] for vertex in order}
    forest_rep = {vertex: vertex for vertex in order}
    tree_rep = dict(forest_rep)
    # Dendrogram nodes under construction; ids below len(order) are the
    # leaves, in ``order``.  ``node_of`` maps a live union-find root to
    # its component's node, in the order the roots were (re)inserted.
    node_weight = [0.0] * len(order)
    node_size = [1] * len(order)
    node_children: list[list[int]] = [[] for _ in order]
    node_of = {vertex: index for index, vertex in enumerate(order)}
    edges.sort()
    for weight, level_iter in groupby(edges, key=itemgetter(0)):
        level = list(level_iter)
        if with_trees:
            fresh = len(node_size)  # ids >= fresh were made this level
            for _, u, v in level:
                ru, rv = _find(tree_rep, u), _find(tree_rep, v)
                if ru == rv:
                    continue
                a, b = node_of.pop(ru), node_of.pop(rv)
                size_a, size_b = node_size[a], node_size[b]
                if a >= fresh:
                    merged = a
                else:
                    merged = len(node_size)
                    node_weight.append(weight)
                    node_size.append(0)
                    node_children.append([a])
                node_children[merged].extend(
                    node_children[b] if b >= fresh else (b,)
                )
                node_size[merged] = size_a + size_b
                if size_a < size_b:
                    ru, rv = rv, ru
                tree_rep[rv] = ru
                node_of[ru] = merged
        for _, u, v in reversed(level):
            ru, rv = _find(forest_rep, u), _find(forest_rep, v)
            if ru != rv:
                forest_rep[rv] = ru
                forest[u].append((v, weight))
                forest[v].append((u, weight))
    if not with_trees:
        return [], forest

    trees: list[_ComponentTree] = []
    for root in node_of.values():
        parent: list[int] = []
        weights: list[float] = []
        sizes: list[int] = []
        leaf_lo: list[int] = []
        leaf_order: list[int] = []
        stack = [(root, -1)]
        while stack:
            node, par = stack.pop()
            index = len(parent)
            parent.append(par)
            weights.append(node_weight[node])
            sizes.append(node_size[node])
            leaf_lo.append(len(leaf_order))
            kids = node_children[node]
            if kids:
                stack.extend((child, index) for child in reversed(kids))
            else:
                leaf_order.append(order[node])
        trees.append(_ComponentTree(parent, weights, sizes, leaf_lo, leaf_order))
    return trees, forest


class ClusterTree:
    """Bottleneck cluster tree of ``graph`` (see module docstring).

    The tree keeps a reference to ``graph`` — the same live object the
    engine patches in place under churn — and uses it only for
    :meth:`apply_patch`'s closure walk and edge reads, never for
    per-vertex lookups.

    With ``vertices`` the tree covers only the subgraph induced on them
    (unknown vertices raise :class:`GraphError`): the one-shot input of
    Algorithm 2's step 3.  Such a tree answers every query but cannot
    be patched — :meth:`apply_patch` walks the whole graph.
    """

    def __init__(
        self,
        graph: WeightedProximityGraph,
        vertices: Optional[Iterable[int]] = None,
    ) -> None:
        self._graph = graph
        self._components: dict[int, _ComponentTree] = {}
        self._component_of: dict[int, int] = {}
        self._next_id = 0
        self._marked: set[int] = set()
        self._forest_adj: ForestAdjacency = {}
        if vertices is None:
            self._build(graph.vertices(), graph.weighted_edges())
        else:
            keep = set(vertices)
            self._build(keep, graph.weighted_edges(keep))

    def _build(
        self, vertices: Iterable[int], edges: list[tuple[float, int, int]]
    ) -> None:
        trees, forest = _kruskal_scan(vertices, edges)
        for tree in trees:
            comp_id = self._next_id
            self._next_id += 1
            self._components[comp_id] = tree
            for vertex in tree.leaf_order:
                self._component_of[vertex] = comp_id
        self._forest_adj.update(forest)

    def _forest_refine(self, leaves: list[int], k: int) -> list[set[int]]:
        """Greedy refinement of a tree node's leaves over its forest slice.

        Every node is a t-component, so all edges leaving it are heavier
        than all edges inside it; the forest scan spans the node before
        touching any outgoing edge, and the restriction is a spanning
        tree of the leaves.  On a spanning tree every removal
        disconnects, so greedy Algorithm 1's pass-until-fixpoint (the
        literal :func:`~repro.clustering.centralized._greedy_refine_naive`)
        collapses to: accept the first edge in removal order whose two
        sides both hold >= k vertices, recurse into the sides, and a
        component with no acceptable edge is final.

        Two facts make that a *single* ordered scan instead of a
        per-component rescan:

        * a skipped edge never becomes acceptable — later cuts only
          shrink its sides — so each edge is decided exactly once, in
          removal order, against its current component's sizes;
        * cuts in disjoint components cannot affect each other, so the
          scan's cut set equals the work list's regardless of the order
          components are processed in.

        Side sizes are maintained incrementally: subtree counters are
        decremented along the cut's ancestor path (stopping at the
        component top), and the smaller side is relabelled on every cut,
        keeping component sizes O(1) and the relabel total O(n log n).
        The work list's output order — pop the far side first, emit on
        pop — is the post-order of the split recursion, where each
        component splits at its minimum removal-order cut; it is rebuilt
        by merging the final components over the cut edges in reverse.
        """
        members = set(leaves)
        adjacency: dict[int, list[int]] = {vertex: [] for vertex in leaves}
        edges: list[tuple[float, int, int]] = []
        for u in leaves:
            for v, weight in self._forest_adj[u]:
                if v in members:
                    adjacency[u].append(v)
                    if u < v:
                        edges.append((weight, u, v))
        edges.sort(key=lambda edge: (-edge[0], edge[1], edge[2]))

        # Root the spanning tree once; subtree sizes seed the running
        # "my subtree, within my current component" counters.
        root = leaves[0]
        parent = {root: root}
        order = [root]
        for vertex in order:  # grows while iterating: a BFS
            for neighbor in adjacency[vertex]:
                if neighbor not in parent:
                    parent[neighbor] = vertex
                    order.append(neighbor)
        size_cur = dict.fromkeys(members, 1)
        for vertex in reversed(order[1:]):
            size_cur[parent[vertex]] += size_cur[vertex]

        comp = dict.fromkeys(members, 0)
        comp_size = {0: len(members)}
        next_id = 1
        tops = {root}
        cuts: list[tuple[int, int]] = []
        for weight, u, v in edges:
            child, over = (v, u) if parent[v] == u else (u, v)
            child_side = size_cur[child]
            other_side = comp_size[comp[child]] - child_side
            if child_side < k or other_side < k:
                continue
            cuts.append((u, v))
            vertex = over
            while True:
                size_cur[vertex] -= child_side
                if vertex in tops:
                    break
                vertex = parent[vertex]
            tops.add(child)
            old = comp[child]
            if child_side <= other_side:
                seed, seed_size = child, child_side
            else:
                seed, seed_size = over, other_side
            comp_size[old] -= seed_size
            comp_size[next_id] = seed_size
            comp[seed] = next_id
            stack = [seed]
            while stack:
                x = stack.pop()
                for y in adjacency[x]:
                    if comp[y] == old and not _is_cut(x, y, parent, tops):
                        comp[y] = next_id
                        stack.append(y)
            next_id += 1

        if not cuts:
            return [members]
        groups: dict[int, set[int]] = {}
        for vertex in members:
            groups.setdefault(comp[vertex], set()).add(vertex)
        # Reverse merge: at each cut's turn all later cuts are merged,
        # so its two trees are exactly the split recursion's children.
        rep = {cid: cid for cid in groups}
        node_of: dict[int, object] = {cid: cid for cid in groups}
        for u, v in reversed(cuts):
            side_u, side_v = _find(rep, comp[u]), _find(rep, comp[v])
            node_of[side_u] = (node_of.pop(side_u), node_of.pop(side_v))
            rep[side_v] = side_u
        result: list[set[int]] = []
        stack_nodes: list[object] = [node_of[_find(rep, comp[root])]]
        while stack_nodes:
            node = stack_nodes.pop()
            if isinstance(node, int):
                result.append(groups[node])
            else:
                side_u, side_v = node
                stack_nodes.append(side_u)  # far side (v's) emits first
                stack_nodes.append(side_v)
        return result

    # -- basic queries ---------------------------------------------------------

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._component_of

    @property
    def component_count(self) -> int:
        """Number of connected components (one tree each)."""
        return len(self._components)

    @property
    def vertex_count(self) -> int:
        """Number of vertices covered by the forest."""
        return len(self._component_of)

    def _tree_of(self, vertex: int) -> tuple[int, _ComponentTree]:
        comp_id = self._component_of.get(vertex)
        if comp_id is None:
            raise GraphError(f"unknown vertex {vertex}")
        return comp_id, self._components[comp_id]

    def root_of(self, vertex: int) -> NodeRef:
        """The root node of ``vertex``'s component."""
        comp_id, _tree = self._tree_of(vertex)
        return (comp_id, 0)

    def leaf_of(self, vertex: int) -> NodeRef:
        """The leaf node of ``vertex``."""
        comp_id, tree = self._tree_of(vertex)
        return (comp_id, tree.leaf_node[vertex])

    def parent(self, node: NodeRef) -> Optional[NodeRef]:
        """The parent node, or None for a root."""
        comp_id, index = node
        par = self._components[comp_id].parent[index]
        return None if par < 0 else (comp_id, par)

    def size(self, node: NodeRef) -> int:
        """Number of leaves below ``node``."""
        return self._components[node[0]].size[node[1]]

    def weight(self, node: NodeRef) -> float:
        """The node's merge weight: its component's MEW as a standalone
        cluster (the minimal t at which its leaves are t-connected)."""
        return self._components[node[0]].weight[node[1]]

    def leaves(self, node: NodeRef) -> frozenset[int]:
        """The vertices below ``node``."""
        return frozenset(self._components[node[0]].leaves(node[1]))

    def marked_below(self, node: NodeRef) -> int:
        """How many of the node's leaves are marked."""
        return self._components[node[0]].marked_below[node[1]]

    # -- the per-vertex fast path ----------------------------------------------

    def smallest_valid_node(self, vertex: int, k: int) -> Optional[NodeRef]:
        """The lowest ancestor of ``vertex`` with >= k leaves, or None.

        This node's leaves are the vertex's smallest valid t-connectivity
        cluster (Definition 4.1) and its weight the minimal connectivity
        t — the minimum-MEW k-cluster resolution, as one ancestor walk.
        """
        comp_id, tree = self._tree_of(vertex)
        index = tree.leaf_node[vertex]
        while index >= 0:
            if tree.size[index] >= k:
                return (comp_id, index)
            index = tree.parent[index]
        return None

    def smallest_valid_cluster(
        self, vertex: int, k: int
    ) -> Optional[tuple[frozenset[int], float]]:
        """(cluster, t) exactly as the level-scan oracle computes them."""
        node = self.smallest_valid_node(vertex, k)
        if node is None:
            return None
        return self.leaves(node), self.weight(node)

    def node_at(self, vertex: int, t: float) -> NodeRef:
        """The t-component of ``vertex``: its highest ancestor of weight <= t.

        Parent weights strictly increase along the path, so the walk
        stops at the unique node whose parent (if any) merged above t.
        """
        comp_id, tree = self._tree_of(vertex)
        index = tree.leaf_node[vertex]
        while True:
            par = tree.parent[index]
            if par < 0 or tree.weight[par] > t:
                return (comp_id, index)
            index = par

    def is_isolated(self, node: NodeRef, k: int) -> bool:
        """Exact Property 4.1 bit for a node with >= k leaves.

        True iff every proper ancestor's off-path children all have >= k
        leaves.  Then every outside vertex's smallest valid cluster lives
        in a sibling subtree disjoint from ``node`` — removing the node's
        leaves changes no outside resolution (and conversely, an
        undersized off-path sibling resolves through an ancestor of
        ``node``, which removal necessarily changes).
        """
        comp_id, index = node
        return self._components[comp_id].anc_ok(k)[index]

    # -- partitions (Algorithm 1) ----------------------------------------------

    def strict_partition(self, k: int) -> list[set[int]]:
        """The strict Algorithm 1 partition, by memoized tree cuts."""
        return self._partition(k, "strict")

    def greedy_partition(self, k: int) -> list[set[int]]:
        """The greedy Algorithm 1 partition: strict cut + refinement.

        Every strict split is also a greedy one (each binary
        disconnection inside it separates unions of valid t-components),
        so only the strict pieces of >= 2k users are refined, in place.
        Refinements are memoized per cut node, so repeated calls (and
        per-request lazy resolutions) never re-run them.
        """
        return self._partition(k, "greedy")

    def _partition(self, k: int, method: str) -> list[set[int]]:
        """Each component's :meth:`node_partition` at its root.

        Components come last-adopted first, the order Algorithm 1's work
        stack pops a fresh tree's roots in.  A component below ``k``
        comes back whole: an invalid cluster the caller must deal with.
        """
        result: list[set[int]] = []
        for comp_id, tree in reversed(self._components.items()):
            if tree.size[0] < k:
                result.append(set(tree.leaf_order))
            else:
                result.extend(
                    set(group)
                    for group in self.node_partition((comp_id, 0), k, method)
                )
        return result

    def node_partition(
        self, node: NodeRef, k: int, method: str = "greedy"
    ) -> tuple[frozenset[int], ...]:
        """Algorithm 1 over the node's leaves (memoized per node/k/method).

        Bit-identical — same groups, same order — to
        ``centralized_k_clustering(graph, k, method, vertices=leaves)``,
        the call Algorithm 2's step 3 makes on a gathered cluster, but
        computed natively on the tree:

        * A node is a t-component, so the dendrogram of its induced
          subgraph (structure *and* child order: the subgraph's edges
          are a prefix-closed subset of the Kruskal scan, and no
          outgoing edge merges at or below the node's weight) is the
          node's own subtree — the strict cut is
          :meth:`_ComponentTree.strict_cut_below`, no dendrogram build.
        * The greedy refinement of a >= 2k piece
          (:meth:`_forest_refine`) runs over the piece's slice of the
          persistent constrained Kruskal forest instead of the full
          induced subgraph.  In the full pass, every non-forest edge is removed
          as a non-bridge the first time it is reached (its redundancy
          certificate — the forest path between its endpoints — lies
          strictly later in removal order, hence untouched), and every
          forest edge sees the same two sides either way (a removal-order
          suffix spans exactly what its forest restriction spans).  So
          the keep/split decisions, and with them the work-list order,
          coincide; an accepted split parts the forest into spanning
          trees of the two sides and the argument recurses.

        The node must have >= k leaves: it is then one connected
        component, the partition covers it without invalid pieces, and
        callers may register every group.
        """
        comp_id, index = node
        tree = self._components[comp_id]
        if tree.size[index] < k:
            raise GraphError(
                f"cannot partition a node of {tree.size[index]} < k={k} leaves"
            )
        if method not in ("strict", "greedy"):
            raise ConfigurationError(f"unknown method {method!r}")
        key = (index, k, method)
        memo = tree.partition_memo.get(key)
        if memo is not None:
            return memo
        groups: list[frozenset[int]] = []
        for piece in tree.strict_cut_below(index, k):
            if method == "strict" or tree.size[piece] < 2 * k:
                groups.append(frozenset(tree.leaves(piece)))
                continue
            piece_key = (piece, k)
            refined = tree.refine_memo.get(piece_key)
            if refined is None:
                refined = tuple(
                    frozenset(group)
                    for group in self._forest_refine(tree.leaves(piece), k)
                )
                tree.refine_memo[piece_key] = refined
            groups.extend(refined)
        result = tuple(groups)
        tree.partition_memo[key] = result
        return result

    # -- marked leaves (registry exclusions) -----------------------------------

    @property
    def marked(self) -> frozenset[int]:
        """All marked vertices (snapshot)."""
        return frozenset(self._marked)

    def mark(self, vertices: Iterable[int]) -> None:
        """Flag ``vertices`` (assigned users) on every ancestor's counter."""
        for vertex in vertices:
            if vertex in self._marked:
                continue
            self._marked.add(vertex)
            comp_id = self._component_of.get(vertex)
            if comp_id is None:
                continue
            tree = self._components[comp_id]
            index = tree.leaf_node[vertex]
            while index >= 0:
                tree.marked_below[index] += 1
                index = tree.parent[index]

    # -- churn maintenance -----------------------------------------------------

    def apply_patch(self, patch: "ChurnPatch") -> int:
        """Re-derive exactly the components a churn patch disturbed.

        Every structural change is one of ``patch.changed_edges``; an
        old component not incident to any of them kept all its edges and
        weights, so its tree (and memos) remain exact.  The rebuild
        scope starts from the incident components and closes over the
        patched graph: a walk that escapes the scope entered a component
        merged in by an added edge, whose tree must be re-derived too.
        Returns the number of old components rebuilt.  After the call
        the forest equals a fresh build over the patched graph.
        """
        edges = getattr(patch, "changed_edges", ())
        seeds = {v for edge in edges for v in edge if v in self._component_of}
        if not seeds:
            return 0
        stale = {self._component_of[v] for v in seeds}
        scope: set[int] = set()
        for comp_id in stale:
            scope.update(self._components[comp_id].leaf_order)
        queue = list(scope)
        while queue:
            vertex = queue.pop()
            for neighbor in self._graph.neighbors(vertex):
                if neighbor in scope:
                    continue
                # The walk crossed into a component merged by an added
                # edge: absorb it wholesale (unaffected internally, so
                # it is fully reachable once entered).
                merged = self._component_of[neighbor]
                if merged not in stale:
                    stale.add(merged)
                    members = self._components[merged].leaf_order
                    scope.update(members)
                    queue.extend(members)
                else:  # pragma: no cover - scope always holds stale leaves
                    scope.add(neighbor)
                    queue.append(neighbor)
        for comp_id in stale:
            del self._components[comp_id]
        # One scan re-derives the scope's trees and, since the Kruskal
        # forest never crosses components, its forest slice too.
        self._build(scope, self._graph.weighted_edges(scope))
        # Re-derive the marked counters of the rebuilt components.
        remark = self._marked & scope
        self._marked -= remark
        self.mark(remark)
        return len(stale)

    # -- persistence -----------------------------------------------------------

    def to_state(self) -> dict[str, list]:
        """The forest as flat columns (see :meth:`from_state`).

        Components are emitted in dict-iteration order with their
        original ids — both are observable (``strict_partition`` walks
        components in reverse insertion order; node handles embed ids),
        so a restored tree must reproduce them exactly, not just the
        node sets.  Per-component node columns are concatenated with a
        ``node_indptr`` offset table; leaf columns concatenate too, with
        each component's leaf count recoverable as its root's size.
        """
        comp_ids: list[int] = []
        node_indptr: list[int] = [0]
        parent: list[int] = []
        weight: list[float] = []
        size: list[int] = []
        leaf_lo: list[int] = []
        leaf_order: list[int] = []
        for comp_id, tree in self._components.items():
            comp_ids.append(comp_id)
            parent.extend(tree.parent)
            weight.extend(tree.weight)
            size.extend(tree.size)
            leaf_lo.extend(tree.leaf_lo)
            leaf_order.extend(tree.leaf_order)
            node_indptr.append(len(parent))
        return {
            "comp_ids": comp_ids,
            "node_indptr": node_indptr,
            "parent": parent,
            "weight": weight,
            "size": size,
            "leaf_lo": leaf_lo,
            "leaf_order": leaf_order,
            "next_id": [self._next_id],
        }

    @classmethod
    def from_state(
        cls, graph: WeightedProximityGraph, state: dict[str, list]
    ) -> "ClusterTree":
        """Rebuild a tree captured by :meth:`to_state` over ``graph``.

        ``graph`` must be the graph the state was captured against (the
        restored engine's live graph).  The constrained Kruskal forest
        is recomputed from the graph value — a global ascending scan
        restricted to any component visits its edges in the same
        relative order as the per-scope scans of incremental patching,
        so the rebuilt forest matches the maintained one.  Marked
        counters start empty; callers holding a registry re-mark via
        :meth:`mark` (which skips already-marked vertices, so the
        re-mark is idempotent).
        """
        tree = cls.__new__(cls)
        tree._graph = graph
        tree._components = {}
        tree._component_of = {}
        tree._marked = set()
        comp_ids = [int(c) for c in state["comp_ids"]]
        indptr = [int(i) for i in state["node_indptr"]]
        if len(indptr) != len(comp_ids) + 1:
            raise GraphError(
                f"cluster-tree state: {len(comp_ids)} components but "
                f"{len(indptr)} node offsets"
            )
        parent = [int(p) for p in state["parent"]]
        weight = [float(w) for w in state["weight"]]
        size = [int(s) for s in state["size"]]
        leaf_lo = [int(lo) for lo in state["leaf_lo"]]
        leaf_order = [int(v) for v in state["leaf_order"]]
        leaf_cursor = 0
        for position, comp_id in enumerate(comp_ids):
            lo, hi = indptr[position], indptr[position + 1]
            leaf_count = size[lo] if hi > lo else 0
            component = _ComponentTree(
                parent[lo:hi],
                weight[lo:hi],
                size[lo:hi],
                leaf_lo[lo:hi],
                leaf_order[leaf_cursor : leaf_cursor + leaf_count],
            )
            leaf_cursor += leaf_count
            tree._components[comp_id] = component
            for vertex in component.leaf_order:
                tree._component_of[vertex] = comp_id
        tree._next_id = int(state["next_id"][0])
        _trees, tree._forest_adj = _kruskal_scan(
            graph.vertices(), graph.weighted_edges(), with_trees=False
        )
        return tree

    # -- verification helpers --------------------------------------------------

    def node_signatures(self) -> Iterator[tuple[float, int, tuple[int, ...]]]:
        """(weight, size, sorted leaves) of every node — a canonical,
        component-id-free description of the forest, used by the fuzz
        invariant to compare a patched tree against a fresh build."""
        for tree in self._components.values():
            for index in range(len(tree.parent)):
                yield (
                    tree.weight[index],
                    tree.size[index],
                    tuple(sorted(tree.leaves(index))),
                )
