"""Exact clique number, chromatic number and independence number.

Everything here is exact: past ``CHI_MAX_N`` vertices the solvers
refuse instead of approximating, since downstream verification depends
on true values of chi and omega.  A chromatic number of a vertex
subset that is at most 2 comes from a bitset two-colouring
(:func:`_two_colour`); every other one, and every chromatic number of
a whole graph with its witness, comes from one routine, :func:`_chi`, on a
vertex mask of the host rows.  It runs one saturation search,
:func:`_dsatur`, in two roles: with as many colors as vertices and
nothing precolored the search never backtracks, and its first descent
gives the upper bound; with a maximum clique precolored it refutes each
smaller color count or finds the optimal witness.  Every
clique number comes from one branch and bound, :func:`_max_clique`.
The maximum clique of a whole graph is searched at most once per
:class:`~chibound.graph.Graph` and kept on it (:func:`_graph_clique`),
so ``clique_number`` and ``chromatic_number`` on one graph, in either
order, share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import CapExceeded, Graph, iter_bits, mask_of

CHI_MAX_N = 40


@dataclass(frozen=True)
class Coloring:
    """A proper vertex coloring; ``colors[v]`` is the color of vertex v."""

    colors: tuple[int, ...]
    count: int

    def is_proper(self, g: Graph) -> bool:
        """Whether every vertex has a color in ``range(count)``, every
        color is used and no edge joins two vertices of one color."""
        if len(self.colors) != g.n:
            return False
        if any(not 0 <= c < self.count for c in self.colors):
            return False
        for u, v in g.edges():
            if self.colors[u] == self.colors[v]:
                return False
        return len(set(self.colors)) == self.count


def clique_number(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact maximum clique size with a witness (see :func:`_max_clique`)."""
    size, mask = _graph_clique(g)
    return size, frozenset(iter_bits(mask))


def _graph_clique(g: Graph) -> tuple[int, int]:
    """``_max_clique`` of all of ``g``, searched on first use and kept on ``g``."""
    if g._clique is None:
        g._clique = _max_clique(g.adj, g.full_mask())
    return g._clique


def _max_clique(rows: Sequence[int], within: int) -> tuple[int, int]:
    """Maximum clique of the subgraph of ``rows`` induced on ``within``.

    Branch and bound with greedy-coloring upper bounds, on host ids;
    candidates are scanned in ascending id so the witness is
    reproducible.  Returns ``(size, mask)``; the empty mask gives 0.
    """
    best_mask = 0
    best_size = 0

    def color_sort(p_mask: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = p_mask
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append(v)
                bounds.append(color)
                avail &= ~rows[v]
                avail ^= low
                rest ^= low
        return order, bounds

    def expand(r_mask: int, size: int, p_mask: int) -> None:
        nonlocal best_mask, best_size
        if not p_mask:
            if size > best_size:
                best_size = size
                best_mask = r_mask
            return
        order, bounds = color_sort(p_mask)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            expand(r_mask | bit, size + 1, p_mask & rows[v])
            p_mask &= ~bit

    expand(0, 0, within)
    return best_size, best_mask


def independence_number(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact independence number, computed as the clique number of the complement."""
    return clique_number(g.complement())


def _dsatur(adj: list[int], k: int, clique: list[int]) -> list[int] | None:
    """Saturation (DSATUR) search for a proper coloring with at most k colors.

    Vertices are ranks: degree descending, then id ascending, so the
    DSATUR choice (most distinct neighbor colors, then highest degree,
    then lowest id) is the lowest bit of the highest non-empty
    saturation bucket.  ``clique[i]`` is precolored i, colors are tried
    in ascending order and a new color is opened only as the next unused
    one, which breaks color symmetry.  ``near[c]`` is the union of the
    neighborhoods of color class c, so coloring v with c raises the
    saturation of exactly ``adj[v] & uncolored & ~near[c]``; a color that
    would raise a vertex of saturation k - 1 is refused before the
    buckets are copied, since that vertex would be picked next and fail.
    Returns the color of every rank, or None when no such coloring exists.
    With ``k = len(adj)`` and no clique the search never backtracks: an
    uncolored neighbor of the vertex being colored has at most
    ``len(adj) - 2`` colored neighbors, so the saturation refusal never
    fires, and a new color is always free.
    """
    colors = [-1] * len(adj)
    near = [0] * k
    uncolored = (1 << len(adj)) - 1 & ~mask_of(clique)
    buckets = [uncolored] + [0] * (k + 1)
    for i, v in enumerate(clique):
        colors[v] = i
        near[i] = adj[v]
        for t in range(i, -1, -1):
            moved = buckets[t] & adj[v]
            buckets[t] ^= moved
            buckets[t + 1] |= moved

    def assign(buckets: list[int], uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        s = used
        while not buckets[s]:
            s -= 1
        low = buckets[s] & -buckets[s]
        v = low.bit_length() - 1
        uncolored ^= low
        buckets[s] ^= low
        adj_v = adj[v]
        nbrs = adj_v & uncolored
        for c in range(used + 1 if used < k else k):
            old = near[c]
            if old >> v & 1:
                continue
            raised = nbrs & ~old
            if raised & buckets[k - 1]:
                continue
            colors[v] = c
            child = buckets[:]
            t = used
            while raised:
                moved = child[t] & raised
                if moved:
                    child[t] ^= moved
                    child[t + 1] |= moved
                    raised ^= moved
                t -= 1
            near[c] = old | adj_v
            if assign(child, uncolored, used if c < used else c + 1):
                return True
            near[c] = old
        return False

    return colors if assign(buckets, uncolored, len(clique)) else None


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number with a witnessing proper coloring.

    The value and coloring of :func:`_chi` on all of ``g``, mapped back
    from ranks to vertex ids.  Vertices are chosen by most distinct
    neighbor colors, then highest degree, then lowest id, and colors are
    tried in ascending order; this fixes the witness.  Refuses graphs
    above ``CHI_MAX_N`` vertices rather than returning a heuristic answer.
    """
    k, colors, rank = _chi(g, _capped(g.full_mask()))
    return k, Coloring(tuple(map(colors.__getitem__, rank)), k)


def chi_of_subset(g: Graph, vertices: Iterable[int]) -> int:
    """Chromatic number of the induced subgraph on ``vertices`` (0 for the empty set).

    Straight from the host rows, without building the subgraph or a
    witness.  A value of at most 2 comes from a bitset two-colouring
    (:func:`_two_colour`), which is exact: chi is at most 2 iff there is
    no odd cycle.  Larger values come from :func:`_chi`, the same search
    as :func:`chromatic_number`.  Refuses sets above ``CHI_MAX_N`` vertices.
    """
    mask = 0
    for v in vertices:
        if not (type(v) is int and 0 <= v < g.n):
            raise ValueError(f"vertices out of range: {v!r} is not an int in range({g.n})")
        mask |= 1 << v
    two = _two_colour(g.adj, _capped(mask))
    return _chi(g, mask)[0] if two is None else two


def _two_colour(rows: Sequence[int], mask: int) -> int | None:
    """Chromatic number of the subgraph of ``rows`` induced on ``mask``
    when it is at most 2, else None.

    Breadth-first layers of each component, one bitset per layer: every
    edge joins two consecutive layers or lies inside one, and one inside
    a layer closes an odd cycle.  With none, even and odd layers are the
    two colours; 0 for the empty set and 1 when no edge was seen.
    """
    value = min(mask.bit_count(), 1)
    rest = mask
    while rest:
        frontier = seen = rest & -rest
        while frontier:
            nxt = 0
            layer = frontier
            while layer:
                low = layer & -layer
                nxt |= rows[low.bit_length() - 1]
                layer ^= low
            nxt &= mask
            if nxt & frontier:
                return None
            if nxt:
                value = 2
            frontier = nxt & ~seen
            seen |= frontier
        rest &= ~seen
    return value


def _capped(mask: int) -> int:
    """``mask`` itself; raises :class:`CapExceeded` above ``CHI_MAX_N`` vertices."""
    n = mask.bit_count()
    if n > CHI_MAX_N:
        raise CapExceeded(f"chromatic_number cap is {CHI_MAX_N} vertices, got {n}")
    return mask


def _chi(g: Graph, mask: int) -> tuple[int, list[int], list[int]]:
    """Chromatic number of the subgraph of ``g`` induced on ``mask``.

    One rank relabelling (:func:`_rank_relabel`), then the saturation
    search (:func:`_dsatur`) with n colors, whose first descent never
    backtracks.  Its count is the upper bound, exact when at most 3
    (DSATUR is exact on bipartite graphs; Brélaz 1979).  Above that,
    a maximum clique on host ids is precolored in ascending id, and the
    search (:func:`_dsatur`) refutes each k from omega up or finds it
    optimal; for the whole graph the clique is the one kept on ``g``
    (:func:`_graph_clique`), for a proper subset a fresh
    :func:`_max_clique` on the mask.  An edgeless mask gets every vertex
    colored 0 from the first descent, and the empty mask 0 colors.
    Returns ``(k, colors by rank, rank)``; its callers check ``CHI_MAX_N``.
    """
    rows = g.adj
    rank, adj = _rank_relabel(rows, iter_bits(mask), mask)
    first = _dsatur(adj, len(adj), [])
    ub = max(first, default=-1) + 1
    if ub > 3:
        whole = mask == g.full_mask()
        omega, clique = _graph_clique(g) if whole else _max_clique(rows, mask)
        precolored = [rank[u] for u in iter_bits(clique)]
        for k in range(omega, ub):
            colors = _dsatur(adj, k, precolored)
            if colors is not None:
                return k, colors, rank
    return ub, first, rank


def _rank_relabel(
    rows: tuple[int, ...], vertices: Sequence[int], mask: int
) -> tuple[list[int], list[int]]:
    """The induced subgraph on ``mask`` with its vertices relabelled by rank.

    ``vertices`` are the members of ``mask`` in ascending order.  Ranks
    order them by degree inside ``mask`` descending, then id ascending.
    Returns ``(rank, adj)``: ``rank[u]`` is the rank of host vertex u (0
    outside ``mask``) and ``adj[r]`` the neighbor bitset of rank r, in
    ranks.
    """
    order = sorted(vertices, key=lambda u: -(rows[u] & mask).bit_count())  # stable: ids ascend
    rank = [0] * len(rows)
    for r, u in enumerate(order):
        rank[u] = r
    adj = [0] * len(order)
    for u in order:
        bit = 1 << rank[u]
        row = rows[u] & mask
        while row:
            low = row & -row
            adj[rank[low.bit_length() - 1]] |= bit
            row ^= low
    return rank, adj
