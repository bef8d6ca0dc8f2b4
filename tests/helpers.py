"""Shared test oracles and graph builders.

Oracles here are deliberately independent of the production code paths
they check: brute-force enumeration over injective maps, exhaustive
color assignments, explicit subset cuts.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx
import numpy as np
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from chibound.graph import Graph, build_graph


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def planted_graph(h: Graph, n: int, p: float, rng: random.Random) -> Graph:
    """A host on ``n`` vertices holding ``h`` as an induced subgraph on
    random vertices; every other pair is an edge with probability ``p``."""
    image = rng.sample(range(n), h.n)
    inside = set(image)
    edges = [(image[i], image[j]) for i, j in h.edges()]
    edges += [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not (u in inside and v in inside) and rng.random() < p
    ]
    return build_graph(n, edges)


@st.composite
def graphs(draw, max_n: int = 12, min_n: int = 1) -> Graph:
    """Hypothesis strategy: a labelled graph on ``min_n..max_n`` vertices."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


def mycielskian(g: Graph) -> Graph:
    """Mycielski's construction: a copy u_i of each vertex v_i, joined to
    the neighbors of v_i, and one apex joined to every copy.  It keeps a
    triangle-free graph triangle-free and raises chi by exactly one."""
    n = g.n
    edges = list(g.edges())
    edges += [(u, n + v) for u, v in g.edges()] + [(v, n + u) for u, v in g.edges()]
    edges += [(n + v, 2 * n) for v in range(n)]
    return build_graph(2 * n + 1, edges)


def path_graph(k: int) -> Graph:
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return build_graph(10, edges)


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def from_networkx(x: nx.Graph) -> Graph:
    x = nx.convert_node_labels_to_integers(x)
    return build_graph(x.number_of_nodes(), list(x.edges()))


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges():
        a[u, v] = a[v, u] = True
    return a


_PERM_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _perm_array(n: int, k: int) -> np.ndarray:
    key = (n, k)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(list(permutations(range(n), k)), dtype=np.int8)
    return _PERM_CACHE[key]


def brute_force_occurs(g: Graph, h: Graph, induced: bool) -> bool:
    """Exhaustive injective-map search for ``h`` in ``g`` (vectorized)."""
    if h.n > g.n:
        return False
    if h.n == 0:
        return True
    return len(_valid_maps(g, h, induced)) > 0


def brute_force_occurs_at(g: Graph, h: Graph, v: int, induced: bool) -> bool:
    """Whether some occurrence of ``h`` in ``g`` uses host vertex ``v``."""
    return bool(brute_force_carriers(g, h, v, induced))


def brute_force_carriers(g: Graph, h: Graph, v: int, induced: bool) -> list[int]:
    """The pattern vertices that some occurrence of ``h`` in ``g`` maps to ``v``."""
    if h.n > g.n:
        return []
    return np.flatnonzero((_valid_maps(g, h, induced) == v).any(axis=0)).tolist()


@lru_cache(maxsize=64)
def _valid_maps(g: Graph, h: Graph, induced: bool) -> np.ndarray:
    """Every injective map of ``h`` into ``g`` that keeps edges (and, with
    ``induced``, non-edges), one row per map, ``row[i]`` the image of i."""
    a = adjacency_matrix(g)
    perms = _perm_array(g.n, h.n)
    valid = np.ones(len(perms), dtype=bool)
    for i in range(h.n):
        for j in range(i + 1, h.n):
            host_adj = a[perms[:, i], perms[:, j]]
            if h.has_edge(i, j):
                valid &= host_adj
            elif induced:
                valid &= ~host_adj
            if not valid.any():
                return perms[valid]
    return perms[valid]


def brute_force_orbits(h: Graph) -> list[frozenset[int]]:
    """Orbits of Aut(h) from every vertex permutation, by smallest member."""
    a = adjacency_matrix(h)
    perms = _perm_array(h.n, h.n)
    auto = np.ones(len(perms), dtype=bool)
    for i in range(h.n):
        for j in range(i + 1, h.n):
            auto &= a[perms[:, i], perms[:, j]] == a[i, j]
    autos = perms[auto]
    orbits = {frozenset(autos[:, x].tolist()) for x in range(h.n)}
    return sorted(orbits, key=min)


def brute_force_chromatic(g: Graph) -> int:
    """Chromatic number by exhaustive color-assignment enumeration.

    Vertex 0 is pinned to color 0 (colorings are closed under color
    permutation); all assignments to the remaining vertices are checked
    in chunks.
    """
    n = g.n
    if n == 0:
        return 0
    if g.edge_count() == 0:
        return 1
    edge_list = g.edges()
    for k in range(2, n + 1):
        total = k ** (n - 1)
        chunk = 1 << 16
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            codes = np.arange(start, stop, dtype=np.int64)
            cols = np.zeros((stop - start, n), dtype=np.int8)
            for v in range(1, n):
                codes, rem = np.divmod(codes, k)
                cols[:, v] = rem
            ok = np.ones(stop - start, dtype=bool)
            for u, v in edge_list:
                ok &= cols[:, u] != cols[:, v]
                if not ok.any():
                    break
            if ok.any():
                return k
    return n


def reference_degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Plain peel: remove a vertex of minimum remaining degree, the lowest
    id on ties; the degeneracy is the largest degree seen at removal."""
    left = set(range(g.n))
    best, order = 0, []
    while left:
        degree = {u: sum(1 for w in g.neighbors(u) if w in left) for u in left}
        v = min(left, key=lambda u: (degree[u], u))
        best = max(best, degree[v])
        order.append(v)
        left.remove(v)
    return best, tuple(order)


def reference_dsatur(
    g: Graph, k: int, clique: Sequence[int] = ()
) -> tuple[int, ...] | None:
    """Plain DSATUR backtracking, the witness oracle for ``chromatic_number``.

    ``clique[i]`` is precolored i.  Each step colors the uncolored vertex
    with the most distinct neighbor colors, then the highest degree, then
    the lowest id, trying colors ascending below ``k`` and opening at most
    one new color.  Returns the colors, or None when none fit in ``k``.
    """
    colors = [-1] * g.n
    for i, v in enumerate(clique):
        colors[v] = i

    def seen(u: int) -> set[int]:
        return {colors[w] for w in g.neighbors(u)} - {-1}

    def assign() -> bool:
        free = [u for u in range(g.n) if colors[u] < 0]
        if not free:
            return True
        v = max(free, key=lambda u: (len(seen(u)), g.degree(u), -u))
        for c in range(min(k, max(colors) + 2)):
            if c not in seen(v):
                colors[v] = c
                if assign():
                    return True
        colors[v] = -1
        return False

    return tuple(colors) if assign() else None


def ilp_colorable(g: Graph, k: int, clique: Sequence[int]) -> bool:
    """Whether ``g`` has a proper coloring with ``k`` colors, by integer
    programming (HiGHS through ``scipy.optimize.milp``), independent of
    any saturation search.

    Binary x[v, c] is 1 when vertex v has color c: each vertex has one
    color, the ends of an edge never share one, and ``clique[i]`` is
    fixed to color i, which removes the color symmetry.
    """
    n = g.n
    if len(clique) > k:
        return False
    rows, cols = [], []
    for v in range(n):  # row v: sum over c of x[v, c] == 1
        rows += [v] * k
        cols += range(v * k, v * k + k)
    row = n
    for u, v in g.edges():  # x[u, c] + x[v, c] <= 1 for every color c
        for c in range(k):
            rows += [row, row]
            cols += [u * k + c, v * k + c]
            row += 1
    a = coo_array((np.ones(len(rows)), (rows, cols)), shape=(row, n * k))
    lower = np.full(row, -np.inf)
    lower[:n] = 1
    lower_x = np.zeros(n * k)
    for i, v in enumerate(clique):
        lower_x[v * k + i] = 1
    result = milp(
        np.zeros(n * k),
        constraints=LinearConstraint(a, lower, np.ones(row)),
        integrality=np.ones(n * k),
        bounds=Bounds(lower_x, np.ones(n * k)),
    )
    if result.status not in (0, 2):  # 0: a coloring found, 2: infeasible
        raise RuntimeError(f"milp did not decide: {result.message}")
    return result.status == 0


def brute_force_clique(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for combo in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                return size
    return best


def brute_force_is_t_connected(g: Graph, t: int) -> bool:
    """Direct cut enumeration: no vertex subset of size < t disconnects g."""
    if g.n < t + 1:
        return False
    for size in range(0, t):
        for cut in combinations(range(g.n), size):
            rest = [v for v in range(g.n) if v not in cut]
            if not rest:
                continue
            if not _is_connected_on(g, rest):
                return False
    return True


def _is_connected_on(g: Graph, vertices: list[int]) -> bool:
    allowed = set(vertices)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(allowed)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Single-source distances, -1 when unreachable (independent of bfs_layers())."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist
