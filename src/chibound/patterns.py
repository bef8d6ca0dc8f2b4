"""Named pattern constructors and induced / not-necessarily-induced detection.

The pattern zoo covers paths, cycles, cliques, stars, brooms, flags,
two-arm stars, broom-plus trees, complete multipartite graphs, bicliques
and uniform rooted trees.  Vertex 0 of every constructed pattern is its
distinguished vertex (broom/star center, flag attachment vertex, tree
root).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable

from .graph import (
    Graph,
    _core_mask,
    _on_graph,
    _require_ints,
    build_graph,
    components_masks,
    iter_bits,
)


@dataclass(frozen=True)
class PatternSpec:
    """A named pattern with integer parameters, e.g. broom(t=2, k=2)."""

    kind: str
    params: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        # the one validity check, here and not in the cached make_pattern:
        # k=True equals and hashes like k=1, so a cache hit would skip it
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        names, minimums, _ = PATTERN_KINDS[self.kind]
        if tuple(name for name, _ in self.params) != names:
            raise ValueError(f"invalid pattern {self}: {self.kind} takes parameters {names}")
        _require_ints(
            **{name: (value, least) for (name, value), least in zip(self.params, minimums)}
        )

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{inner}"

    # convenience constructors ------------------------------------------

    @staticmethod
    def path(k: int) -> "PatternSpec":
        return _spec("path", k)

    @staticmethod
    def cycle(k: int) -> "PatternSpec":
        return _spec("cycle", k)

    @staticmethod
    def complete(n: int) -> "PatternSpec":
        return _spec("complete", n)

    @staticmethod
    def star(k: int) -> "PatternSpec":
        return _spec("star", k)

    @staticmethod
    def broom(t: int, k: int) -> "PatternSpec":
        return _spec("broom", t, k)

    @staticmethod
    def flag(p: int) -> "PatternSpec":
        return _spec("flag", p)

    @staticmethod
    def two_arm_star(t: int, p: int) -> "PatternSpec":
        return _spec("twoarmstar", t, p)

    @staticmethod
    def bplus(p: int, k: int, t: int) -> "PatternSpec":
        return _spec("bplus", p, k, t)

    @staticmethod
    def kdt(d: int, t: int) -> "PatternSpec":
        return _spec("kdt", d, t)

    @staticmethod
    def biclique(s: int, t: int) -> "PatternSpec":
        return _spec("biclique", s, t)

    @staticmethod
    def uniform_tree(zeta: int, eta: int) -> "PatternSpec":
        return _spec("uniformtree", zeta, eta)


def c4_flag_family(p: int) -> tuple[PatternSpec, PatternSpec]:
    """C4 and the p-flag: the induced-free family that defines class H."""
    return PatternSpec.cycle(4), PatternSpec.flag(p)


@dataclass(frozen=True)
class Occurrence:
    """Injective placement of a pattern into a host graph.

    ``mapping[i]`` is the host vertex carrying pattern vertex ``i``.
    With ``induced`` set, non-edges are preserved as well.
    """

    mapping: tuple[int, ...]
    induced: bool


def _chain(vertices: Iterable[int]) -> list[tuple[int, int]]:
    """Edges of the path through ``vertices`` in the given order."""
    vs = list(vertices)
    return list(zip(vs, vs[1:]))


def _broom(t: int, k: int) -> Graph:
    # K_{1,t+1} with one edge subdivided k times: center 0, leaves 1..t,
    # then a path of length k+1 ending at the subdivided leaf.
    edges = [(0, i) for i in range(1, t + 1)] + _chain([0, *range(t + 1, t + k + 2)])
    return build_graph(t + k + 2, edges)


def _flag(p: int) -> Graph:
    # triangle 0,1,2 plus a path of length p hanging off vertex 0
    return build_graph(3 + p, [(0, 1), (1, 2), (0, 2)] + _chain([0, *range(3, 3 + p)]))


def _two_arm_star(t: int, p: int) -> Graph:
    # center 0 with t-4 pendant leaves, an arm of length 4 and an arm of
    # length p
    leaves = t - 4
    edges = [(0, i) for i in range(1, leaves + 1)]
    edges += _chain([0, *range(leaves + 1, leaves + 5)])
    edges += _chain([0, *range(leaves + 5, leaves + 5 + p)])
    return build_graph(1 + leaves + 4 + p, edges)


def _bplus(p: int, k: int, t: int) -> Graph:
    # center 0 with t-1 leaves, a path of length p+k, and one extra
    # pendant at the path vertex at distance k from the center
    chain = [0, *range(t, t + p + k)]
    edges = [(0, i) for i in range(1, t)] + _chain(chain) + [(chain[k], t + p + k)]
    return build_graph(t + p + k + 1, edges)


def _kdt(d: int, t: int) -> Graph:
    n = d * t
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // t != v // t])


def _uniform_tree(zeta: int, eta: int) -> Graph:
    # perfect zeta-ary tree of depth eta, root 0, breadth-first ids: the
    # parent of vertex i >= 1 is (i - 1) // zeta
    n = sum(zeta**i for i in range(eta + 1))
    return build_graph(n, [((i - 1) // zeta, i) for i in range(1, n)])


def _biclique(s: int, t: int) -> Graph:
    return build_graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


# kind -> (parameter names, the minimum of each parameter, builder taking
# the parameters in that order).  The table is the single source for the
# PatternSpec constructors and their validation, make_pattern and
# parse_pattern.
PatternKind = tuple[tuple[str, ...], tuple[int, ...], Callable[..., Graph]]
PATTERN_KINDS: dict[str, PatternKind] = {
    "path": (("k",), (1,), lambda k: build_graph(k, _chain(range(k)))),
    "cycle": (("k",), (3,), lambda k: build_graph(k, _chain([*range(k), 0]))),
    "complete": (("n",), (1,), lambda n: _kdt(n, 1)),  # K_n = K_n(1)
    "star": (("k",), (1,), lambda k: build_graph(k + 1, [(0, i) for i in range(1, k + 1)])),
    "broom": (("t", "k"), (1, 1), _broom),
    "flag": (("p",), (1,), _flag),
    "twoarmstar": (("t", "p"), (5, 1), _two_arm_star),
    "bplus": (("p", "k", "t"), (2, 2, 3), _bplus),
    "kdt": (("d", "t"), (1, 1), _kdt),
    "biclique": (("s", "t"), (1, 1), _biclique),
    "uniformtree": (("zeta", "eta"), (2, 1), _uniform_tree),
}


def _spec(kind: str, *values: int) -> PatternSpec:
    return PatternSpec(kind, tuple(zip(PATTERN_KINDS[kind][0], values)))


@lru_cache(maxsize=None)
def make_pattern(spec: PatternSpec) -> Graph:
    """Construct the pattern graph for ``spec`` (cached; graphs are immutable).

    A ``PatternSpec`` is valid once made, so this only runs the builder.
    """
    return PATTERN_KINDS[spec.kind][2](*(value for _, value in spec.params))


def validate_occurrence(g: Graph, h: Graph, occ: Occurrence) -> bool:
    """Re-check that ``occ`` maps ``h`` into ``g`` correctly."""
    m = occ.mapping
    if len(m) != h.n or not _on_graph(g, m) or len(set(m)) != h.n:
        return False
    for i in range(h.n):
        for j in range(i + 1, h.n):
            if h.has_edge(i, j):
                if not g.has_edge(m[i], m[j]):
                    return False
            elif occ.induced and g.has_edge(m[i], m[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# Backtracking search


def _pattern_order(h: Graph, first: int | None = None) -> list[int]:
    """Connectivity-first deterministic processing order for pattern vertices."""
    if h.n == 0:
        return []
    if first is None:
        first = max(range(h.n), key=lambda v: (h.degree(v), -v))
    order = [first]
    placed = 1 << first
    while len(order) < h.n:
        best = None
        best_key = None
        for v in range(h.n):
            if placed >> v & 1:
                continue
            key = ((h.adj[v] & placed).bit_count(), h.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed |= 1 << best
    return order


# One search step: (pattern vertex, its degree, the earlier depths holding
# its neighbours, the earlier depths holding its non-neighbours).
_Step = tuple[int, int, tuple[int, ...], tuple[int, ...]]


def _steps(h: Graph, order: list[int]) -> tuple[_Step, ...]:
    """The search steps that place ``h``'s vertices in ``order``."""
    out = []
    for depth, x in enumerate(order):
        earlier = range(depth)
        nbrs = tuple(j for j in earlier if h.has_edge(x, order[j]))
        non = tuple(j for j in earlier if not h.has_edge(x, order[j]))
        out.append((x, h.degree(x), nbrs, non))
    return tuple(out)


@lru_cache(maxsize=256)
def _plans(h: Graph, anchored: bool) -> tuple[tuple[_Step, ...], ...]:
    """Search plans for ``h``: the unanchored plan alone, or with
    ``anchored`` one plan per orbit of Aut(h), first step the orbit's
    smallest vertex, in ascending order.

    Orbits come from anchored search of ``h`` in ``h``: an induced
    embedding of ``h`` into itself is an automorphism.
    """
    if not anchored:
        return (_steps(h, _pattern_order(h)),)
    at_least = _degree_masks(h, h.max_degree())
    plans = []
    found = 0
    for x in range(h.n):
        if found >> x & 1:
            continue
        plan = _steps(h, _pattern_order(h, first=x))
        plans.append(plan)
        for y in range(x + 1, h.n):
            if not found >> y & 1 and _embed(h.adj, plan, True, at_least, 1 << y):
                found |= 1 << y
    return tuple(plans)


def _degree_masks(g: Graph, top: int) -> list[int]:
    """``at_least[d]`` is the set of vertices of degree at least d, d <= top."""
    at_least = [0] * (top + 1)
    for v, row in enumerate(g.adj):
        at_least[min(row.bit_count(), top)] |= 1 << v
    for d in range(top, 0, -1):
        at_least[d - 1] |= at_least[d]
    return at_least


def _embed(
    adj: tuple[int, ...],
    plan: tuple[_Step, ...],
    induced: bool,
    at_least: list[int],
    first: int,
) -> tuple[int, ...] | None:
    """Depth-first search along ``plan``, trying candidates in ascending
    host id; ``first`` is the candidate set of depth 0.

    Candidates at a depth are a mask: vertices of large enough degree,
    adjacent to the images of placed neighbours and (induced) not
    adjacent to the images of placed non-neighbours, minus used ones.
    """
    k = len(plan)
    image = [0] * k
    rest = [0] * k
    used = 0
    depth = 0
    cands = first
    while True:
        if cands:
            low = cands & -cands
            rest[depth] = cands ^ low
            image[depth] = low.bit_length() - 1
            used |= low
            depth += 1
            if depth == k:
                break
            _, d, nbrs, non = plan[depth]
            cands = at_least[d] & ~used
            for j in nbrs:
                cands &= adj[image[j]]
            if induced:
                for j in non:
                    cands &= ~adj[image[j]]
        elif depth:
            depth -= 1
            used ^= 1 << image[depth]
            cands = rest[depth]
        else:
            return None
    mapping = [0] * k
    for step, w in zip(plan, image):
        mapping[step[0]] = w
    return tuple(mapping)


def find_occurrence(
    g: Graph,
    h: Graph,
    induced: bool = True,
    require_vertex: int | None = None,
) -> Occurrence | None:
    """Find one placement of ``h`` in ``g``, or ``None``.

    Backtracking over a fixed connectivity-first pattern order; the
    candidates for each pattern vertex are a bitset of host vertices of
    large enough degree that agree with every placed pattern vertex.
    Host candidates are tried in ascending id, so the result is
    deterministic.  With ``require_vertex`` the image must contain that
    host vertex: it carries the smallest pattern vertex that admits an
    occurrence through it, and only one vertex per orbit of Aut(h) is
    tried.
    """
    if h.n < 1:
        raise ValueError("pattern must have at least one vertex")
    anchored = require_vertex is not None
    if anchored and not (type(require_vertex) is int and 0 <= require_vertex < g.n):
        raise ValueError(
            f"require_vertex {require_vertex!r} is not a vertex of a graph with n={g.n}"
        )
    if h.n > g.n:
        return None
    at_least = _degree_masks(g, h.max_degree())
    for plan in _plans(h, anchored):
        first = at_least[plan[0][1]]
        if anchored:
            first &= 1 << require_vertex
        mapping = _embed(g.adj, plan, induced, at_least, first)
        if mapping is not None:
            return Occurrence(mapping, induced)
    return None


def find_induced(g: Graph, h: Graph) -> Occurrence | None:
    """First induced occurrence of ``h`` in ``g`` under the fixed search order."""
    return find_occurrence(g, h, induced=True)


def find_subgraph(g: Graph, h: Graph) -> Occurrence | None:
    """Not-necessarily-induced occurrence of ``h`` in ``g``.

    Complete multipartite patterns with two or more parts (including
    bicliques and cliques) are recognized structurally and searched by
    part assignment, which is far faster than generic backtracking for
    those shapes; every other pattern, edgeless ones included, goes to
    :func:`find_occurrence`.
    """
    parts = _multipartite_parts(h)
    if parts is not None and len(parts) > 1:
        # sizes descending, as the search places them; within-part
        # pattern edges do not exist, so any bijection of a part works
        parts.sort(key=len, reverse=True)
        found = _find_multipartite_subgraph(g, [len(p) for p in parts])
        if found is None:
            return None
        mapping = [-1] * h.n
        for members, host_part in zip(parts, found):
            for x, w in zip(members, host_part):
                mapping[x] = w
        return Occurrence(tuple(mapping), False)
    return find_occurrence(g, h, induced=False)


def _multipartite_parts(h: Graph) -> list[list[int]] | None:
    """Part member lists when ``h`` is complete multipartite, else ``None``.

    A graph is complete multipartite iff the components of its
    complement are all cliques; the parts are those components, ordered
    by smallest member.
    """
    comp = h.complement()
    parts = components_masks(comp, comp.full_mask())
    for mask in parts:
        if any((comp.adj[u] | 1 << u) & mask != mask for u in iter_bits(mask)):
            return None
    return [iter_bits(mask) for mask in parts]


def _find_multipartite_subgraph(g: Graph, sizes: list[int]) -> list[list[int]] | None:
    """Disjoint, mutually complete vertex sets of the given sizes, which
    come in descending order; the i-th set found has size ``sizes[i]``."""
    total = sum(sizes)
    if total > g.n:
        return None
    # a usable vertex sees every part but its own: it lies in the
    # (total - max part)-core
    alive = _core_mask(g, g.full_mask(), total - sizes[0])
    if alive.bit_count() < total:
        return None

    chosen: list[list[int]] = []

    # a call is entered only with room for its own part and every later one
    def place(idx: int, cands: int, min_start: int) -> bool:
        if idx == len(sizes):
            return True
        size = sizes[idx]
        later_need = sum(sizes[idx + 1:])
        cand_list = [v for v in iter_bits(cands) if v >= min_start] if min_start else iter_bits(cands)
        for combo in combinations(cand_list, size):
            common = cands
            for v in combo:
                common &= g.adj[v]
            if common.bit_count() < later_need:
                continue  # the later parts cannot fit in what sees this one
            chosen.append(list(combo))
            nxt_min = combo[0] + 1 if idx + 1 < len(sizes) and sizes[idx + 1] == size else 0
            if place(idx + 1, common, nxt_min):
                return True
            chosen.pop()
        return False

    return chosen if place(0, alive, 0) else None


def is_family_free(
    g: Graph, family: list[PatternSpec], induced: bool = True
) -> tuple[bool, Occurrence | None]:
    """True iff no family member occurs in ``g`` (induced or subgraph mode).

    On failure returns the first witness occurrence found, scanning the
    family in the given order.
    """
    if not family:
        raise ValueError("family must be nonempty")
    for spec in family:
        h = make_pattern(spec)
        if h.n > g.n:
            continue
        occ = find_induced(g, h) if induced else find_subgraph(g, h)
        if occ is not None:
            return False, occ
    return True, None


def occurs_with_vertex(g: Graph, h: Graph, vertex: int, induced: bool) -> bool:
    """Whether some occurrence of ``h`` uses the given host vertex.

    Used for incremental filtering: when a vertex is added to a graph
    known to be pattern-free, any new occurrence must involve it.
    """
    return find_occurrence(g, h, induced=induced, require_vertex=vertex) is not None
