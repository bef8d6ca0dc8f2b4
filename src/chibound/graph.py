"""Immutable simple graphs over integer vertex ids with bitset adjacency.

Vertex ids are exactly 0..n-1.  Adjacency rows are Python ints used as
bitsets, so every set operation is a word operation regardless of n.
One primitive turns a mask back into vertices: :func:`iter_bits`, a
lowest-bit loop that returns the members as an ascending list.  Hot
loops that stop early or fold the bits into another mask run the same
``low = rest & -rest`` step inline instead.
All functions here are pure; graphs are safe to share across threads
(a graph's one memo is written once, see :class:`Graph`).
"""

from __future__ import annotations

from typing import Iterable


class CapExceeded(RuntimeError):
    """A module's size cap (``*_MAX_N``) would be exceeded."""


def _is_int(value: object) -> bool:
    """Whether ``value`` is exactly an int: no bool, ``IntEnum`` or other subclass."""
    return type(value) is int


def _require_ints(**checks: tuple[object, int]) -> None:
    """Raise ``ValueError`` unless each ``name=(value, least)`` holds an
    int (:func:`_is_int`) that is at least ``least``."""
    for name, (value, least) in checks.items():
        if not _is_int(value) or value < least:
            raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def _on_graph(g: Graph, vertices: Iterable[object]) -> bool:
    """Whether every item is a vertex id of ``g``: an int (:func:`_is_int`)
    in ``range(g.n)``.  Validators reject anything else instead of indexing
    ``adj`` with it."""
    return all(_is_int(v) and 0 <= v < g.n for v in vertices)


def iter_bits(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Finite simple undirected graph; immutable after construction.

    ``Graph(adj)`` takes the rows alone: ``adj[v]`` is the neighbor
    bitset of ``v``, and ``n`` is ``len(adj)``.  Use :func:`build_graph`
    to construct from an edge list with validation.

    One value is memoised on first use: ``_clique``, the ``(size, mask)``
    maximum clique that the solvers search once per graph and share
    between ``clique_number`` and ``chromatic_number``.  It is a pure
    function of ``adj``, so two threads racing to fill it store equal
    values and either write may win.
    """

    __slots__ = ("n", "adj", "_clique")

    def __init__(self, adj: tuple[int, ...]):
        self.n = len(adj)
        self.adj = adj
        self._clique = None

    # -- basic accessors --------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return iter_bits(self.adj[v])

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)

    def complement(self) -> "Graph":
        full = self.full_mask()
        adj = tuple((full & ~self.adj[v]) & ~(1 << v) for v in range(self.n))
        return Graph(adj)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 0..n-1 from an edge list.

    Duplicate edges are merged.  Raises ``ValueError`` on a vertex count
    or vertex id that is not an int (:func:`_is_int`), out-of-range
    vertex ids or self-loops.
    """
    _require_ints(n=(n, 0))
    adj = [0] * n
    for u, v in edges:
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u!r}, {v!r}) is not two ints in range({n})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


def bfs_layers(g: Graph, start: int, within: int) -> list[int]:
    """Breadth-first layer masks inside the induced set ``within``.

    ``out[0]`` is ``start & within`` and ``out[i]`` holds the vertices of
    ``within`` at distance exactly i from it in the induced subgraph; the
    list ends at the last nonempty layer (empty when ``start & within``
    is empty).  Layers are disjoint, so ``sum`` of them is their union.
    """
    adj = g.adj
    frontier = start & within
    seen = frontier
    out = []
    while frontier:
        out.append(frontier)
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return out


def induced(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices``, relabeled to 0..k-1.

    Returns ``(subgraph, vmap)`` where ``vmap[i]`` is the host vertex that
    new vertex ``i`` came from (ascending host order).  Raises
    ``ValueError`` on an item that is not a vertex id of ``g``.
    """
    vertices = list(vertices)
    if not _on_graph(g, vertices):
        raise ValueError(f"vertices {vertices!r} are not all ints in range({g.n})")
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for i, v in enumerate(vs):
        for w in iter_bits(g.adj[v]):
            j = index.get(w)
            if j is not None:
                adj[i] |= 1 << j
    return Graph(tuple(adj)), tuple(vs)


def components_masks(g: Graph, within: int) -> list[int]:
    """Component masks of the induced subgraph on ``within``, by smallest member."""
    out = []
    rest = within
    while rest:
        comp = _component_mask(g, rest & -rest, within)
        out.append(comp)
        rest &= ~comp
    return out


def _component_mask(g: Graph, start_mask: int, within: int) -> int:
    """Mask of the component of ``start_mask`` inside the induced set ``within``.

    The frontier loop of :func:`bfs_layers`, keeping only the union.  Two
    loops, because the layers answer distance questions (the balloon
    depth test) and a component needs none of them, yet is asked far
    more often (cutsets, connectivity tests).
    """
    adj = g.adj
    seen = frontier = start_mask & within
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def is_connected_mask(g: Graph, mask: int) -> bool:
    """True iff the induced subgraph on ``mask`` is connected (empty set counts as connected)."""
    return _component_mask(g, mask & -mask, mask) == mask


def is_t_connected(g: Graph, t: int) -> bool:
    """Exact t-connectivity: |V| >= t+1 and no vertex cut of size < t.

    Complete graphs are (n-1)-connected.  Otherwise, with v a vertex of
    minimum degree, it is decided by Menger-style vertex-disjoint path
    counts between v and each vertex outside N[v] and between each
    nonadjacent pair inside N(v) (Esfahanian & Hakimi, 1984): a minimum
    separator either misses v or contains v and splits N(v).
    """
    _require_ints(t=(t, 1))
    return _t_connected_mask(g, g.full_mask(), t)


def _t_connected_mask(g: Graph, mask: int, t: int) -> bool:
    """t-connectivity of the induced subgraph on ``mask`` without relabeling."""
    k = mask.bit_count()
    if k < t + 1:
        return False
    adj = g.adj
    low, v = k, -1
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        u = bit.bit_length() - 1
        d = (adj[u] & mask).bit_count()
        if d < t:  # kappa <= delta: cheap reject before running any flow
            return False
        if d < low:
            low, v = d, u
    if low == k - 1:  # complete
        return True
    near = adj[v] & mask
    for w in iter_bits(mask & ~near & ~(1 << v)):
        if _vertex_flow_at_least(g, mask, v, w, t) < t:
            return False
    rest = near
    for x in iter_bits(near):
        rest ^= 1 << x
        for y in iter_bits(rest & ~adj[x]):
            if _vertex_flow_at_least(g, mask, x, y, t) < t:
                return False
    return True


def _core_mask(g: Graph, mask: int, t: int) -> int:
    """The t-core of the induced subgraph on ``mask``: the largest subset
    in which every vertex has at least t neighbors (Seidman, 1983),
    found by peeling every vertex of smaller degree until none is left."""
    adj = g.adj
    while True:
        peel = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & mask).bit_count() < t:
                peel |= low
        if not peel:
            return mask
        mask ^= peel


def _vertex_flow_at_least(g: Graph, mask: int, s: int, sink: int, need: int) -> int:
    """Count internally vertex-disjoint s..sink paths inside ``mask``, stopping at ``need``.

    Augmenting paths in the vertex-split network, searched breadth-first
    on the bitset rows.  Each vertex w has an in-copy and an out-copy;
    ``saturated`` holds the internal vertices a path runs through and
    ``pred[w]`` the vertex whose out-copy feeds w's in-copy.  A residual
    path enters a saturated w only to leave backwards towards ``pred[w]``.
    """
    adj = g.adj
    pred = [0] * g.n
    # via_in[w]: out-copy that reached w's in-copy (w itself: backwards
    # over w's split arc); via_out[w]: in-copy that reached w's out-copy
    # (w itself: over w's split arc, else by undoing w -> it).  Each
    # search writes an entry before the walk back reads it, so the lists
    # are shared by every augmentation.
    via_in = [0] * g.n
    via_out = [0] * g.n
    saturated = 0
    sink_bit = 1 << sink
    for flow in range(need):
        seen_in = seen_out = frontier = 1 << s
        while frontier:  # out-copies; reached collects the next in-copies
            reached = back = frontier & saturated & ~seen_in
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                x = low.bit_length() - 1
                if low & back:
                    via_in[x] = x
                fresh = adj[x] & mask & ~seen_in & ~reached
                reached |= fresh
                while fresh:
                    low = fresh & -fresh
                    fresh ^= low
                    via_in[low.bit_length() - 1] = x
            seen_in |= reached
            if reached & sink_bit:
                break
            # an in-copy goes on over its split arc, or, when saturated,
            # back over the arc that feeds it
            while reached:
                low = reached & -reached
                reached ^= low
                w = low.bit_length() - 1
                x = pred[w] if saturated & low else w
                if not seen_out >> x & 1:
                    seen_out |= 1 << x
                    frontier |= 1 << x
                    via_out[x] = w
        else:
            return flow
        # walk the path back from the sink's in-copy, flipping its arcs
        w, at_in = sink, True
        while at_in or w != s:
            if at_in:
                x = via_in[w]
                if x == w:
                    saturated &= ~(1 << w)
                else:
                    pred[w] = x
                w, at_in = x, False
            else:
                x = via_out[w]
                if x == w:
                    saturated |= 1 << w
                w, at_in = x, True
    return need


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Degeneracy and a matching elimination order.

    Repeatedly removes a minimum-degree vertex, the lowest id on ties.
    Remaining vertices sit in one bitset per current degree, so the
    vertex removed is the lowest bit of the lowest non-empty bucket.  Its
    remaining neighbors move down one bucket, level by level from that
    minimum degree up, and the next minimum is at most one lower.  In the
    returned order every vertex has at most the returned value of
    neighbors occurring later.
    """
    rows = g.adj
    buckets = [0] * (g.n + 1)
    for v, row in enumerate(rows):
        buckets[row.bit_count()] |= 1 << v
    remaining = (1 << g.n) - 1
    order = []
    best = d = 0
    for _ in rows:
        while not buckets[d]:
            d += 1
        bucket = buckets[d]
        low = bucket & -bucket
        buckets[d] = bucket ^ low
        remaining ^= low
        v = low.bit_length() - 1
        order.append(v)
        if d > best:
            best = d
        nbrs = rows[v] & remaining
        t = d
        while nbrs:
            moved = buckets[t] & nbrs
            if moved:
                buckets[t] ^= moved
                buckets[t - 1] |= moved
                nbrs ^= moved
            t += 1
        if d:
            d -= 1
    return best, tuple(order)
