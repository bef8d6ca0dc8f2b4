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
from itertools import chain, combinations, pairwise
from typing import Callable, Iterable, Iterator, Sequence

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
    """A pattern kind and its integer parameter values, in the order
    ``PATTERN_KINDS`` names them: ``PatternSpec("broom", (2, 3))`` is
    broom:t=2,k=3."""

    kind: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        # the one validity check, here and not in a builder: k=True equals
        # and hashes like k=1, so a cache hit on a spec would skip it
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        names, minimums, _ = PATTERN_KINDS[self.kind]
        if not isinstance(self.values, tuple) or len(self.values) != len(names):
            raise ValueError(
                f"{self.kind} takes a tuple of values for {names}, got {self.values!r}"
            )
        _require_ints(
            **{name: (value, least) for name, value, least in zip(names, self.values, minimums)}
        )

    def __str__(self) -> str:
        names = PATTERN_KINDS[self.kind][0]
        return f"{self.kind}:" + ",".join(f"{k}={v}" for k, v in zip(names, self.values))

    # convenience constructors ------------------------------------------

    @staticmethod
    def path(k: int) -> "PatternSpec":
        return PatternSpec("path", (k,))

    @staticmethod
    def cycle(k: int) -> "PatternSpec":
        return PatternSpec("cycle", (k,))

    @staticmethod
    def complete(n: int) -> "PatternSpec":
        return PatternSpec("complete", (n,))

    @staticmethod
    def star(k: int) -> "PatternSpec":
        return PatternSpec("star", (k,))

    @staticmethod
    def broom(t: int, k: int) -> "PatternSpec":
        return PatternSpec("broom", (t, k))

    @staticmethod
    def flag(p: int) -> "PatternSpec":
        return PatternSpec("flag", (p,))

    @staticmethod
    def two_arm_star(t: int, p: int) -> "PatternSpec":
        return PatternSpec("twoarmstar", (t, p))

    @staticmethod
    def bplus(p: int, k: int, t: int) -> "PatternSpec":
        return PatternSpec("bplus", (p, k, t))

    @staticmethod
    def kdt(d: int, t: int) -> "PatternSpec":
        return PatternSpec("kdt", (d, t))

    @staticmethod
    def biclique(s: int, t: int) -> "PatternSpec":
        return PatternSpec("biclique", (s, t))

    @staticmethod
    def uniform_tree(zeta: int, eta: int) -> "PatternSpec":
        return PatternSpec("uniformtree", (zeta, eta))


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


# A pattern as its vertex count and a lazy edge iterable: the count can be
# read without building anything.
_Pattern = tuple[int, Iterable[tuple[int, int]]]


def _chain(*runs: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Edges of the path through the vertices of ``runs``, in order."""
    return pairwise(chain(*runs))


def _star(k: int) -> _Pattern:
    return k + 1, ((0, i) for i in range(1, k + 1))


def _broom(t: int, k: int) -> _Pattern:
    # K_{1,t+1} with one edge subdivided k times: center 0, leaves 1..t,
    # then a path of length k+1 ending at the subdivided leaf.
    return t + k + 2, chain(_star(t)[1], _chain((0,), range(t + 1, t + k + 2)))


def _flag(p: int) -> _Pattern:
    # triangle 0,1,2 plus a path of length p hanging off vertex 0
    return 3 + p, chain(_chain((0, 1, 2, 0)), _chain((0,), range(3, 3 + p)))


def _two_arm_star(t: int, p: int) -> _Pattern:
    # center 0 with t-4 pendant leaves, an arm of length 4 and an arm of
    # length p
    leaves = t - 4
    n = leaves + 5 + p
    arms = _chain((0,), range(leaves + 1, leaves + 5)), _chain((0,), range(leaves + 5, n))
    return n, chain(_star(leaves)[1], *arms)


def _bplus(p: int, k: int, t: int) -> _Pattern:
    # center 0 with t-1 leaves, a path 0, t, t+1, .. of length p+k, and one
    # extra pendant at the path vertex at distance k from the center
    n = t + p + k + 1
    return n, chain(_star(t - 1)[1], _chain((0,), range(t, n - 1)), [(t + k - 1, n - 1)])


def _kdt(d: int, t: int) -> _Pattern:
    n = d * t
    return n, ((u, v) for u in range(n) for v in range(u + 1, n) if u // t != v // t)


def _uniform_tree(zeta: int, eta: int) -> _Pattern:
    # perfect zeta-ary tree of depth eta, root 0, breadth-first ids: the
    # parent of vertex i >= 1 is (i - 1) // zeta
    n = sum(zeta**i for i in range(eta + 1))
    return n, (((i - 1) // zeta, i) for i in range(1, n))


def _biclique(s: int, t: int) -> _Pattern:
    return s + t, ((i, s + j) for i in range(s) for j in range(t))


# kind -> (parameter names, the minimum of each parameter, builder taking
# the parameters in that order and returning a _Pattern).  The table is
# the single source for the parameter names, which a PatternSpec does not
# hold, and for its validation, printing, vertex count, make_pattern and
# parse_pattern.
PatternKind = tuple[tuple[str, ...], tuple[int, ...], Callable[..., _Pattern]]
PATTERN_KINDS: dict[str, PatternKind] = {
    "path": (("k",), (1,), lambda k: (k, _chain(range(k)))),
    "cycle": (("k",), (3,), lambda k: (k, _chain(range(k), (0,)))),
    "complete": (("n",), (1,), lambda n: _kdt(n, 1)),  # K_n = K_n(1)
    "star": (("k",), (1,), _star),
    "broom": (("t", "k"), (1, 1), _broom),
    "flag": (("p",), (1,), _flag),
    "twoarmstar": (("t", "p"), (5, 1), _two_arm_star),
    "bplus": (("p", "k", "t"), (2, 2, 3), _bplus),
    "kdt": (("d", "t"), (1, 1), _kdt),
    "biclique": (("s", "t"), (1, 1), _biclique),
    "uniformtree": (("zeta", "eta"), (2, 1), _uniform_tree),
}


def _vertex_count(spec: PatternSpec) -> int:
    """The number of vertices of ``spec``'s pattern, read without building it."""
    return PATTERN_KINDS[spec.kind][2](*spec.values)[0]


def make_pattern(spec: PatternSpec) -> Graph:
    """Construct the pattern graph for ``spec``.

    A ``PatternSpec`` is valid once made, so this only runs the builder.
    """
    return build_graph(*PATTERN_KINDS[spec.kind][2](*spec.values))


@lru_cache(maxsize=256)
def _fitting(n: int, family: tuple[PatternSpec, ...]) -> tuple[Graph, ...]:
    """The patterns of ``family`` in order, skipping, unbuilt, each one with
    more than ``n`` vertices, which cannot occur in an n-vertex graph
    (cached: the corpus filters ask once per generated graph)."""
    return tuple(make_pattern(spec) for spec in family if _vertex_count(spec) <= n)


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


# One search step: (pattern vertex, its degree, the earlier depths holding
# its neighbours, the earlier depths holding its non-neighbours).
_Step = tuple[int, int, tuple[int, ...], tuple[int, ...]]


def _plan(h: Graph, first: int) -> tuple[_Step, ...]:
    """The search steps that place ``h``'s vertices from ``first`` on,
    connectivity first: each next vertex has the most placed neighbours,
    then the highest degree, then the lowest id."""
    order = [first]
    placed = 1 << first
    while len(order) < h.n:
        x = max(
            (v for v in range(h.n) if not placed >> v & 1),
            key=lambda v: ((h.adj[v] & placed).bit_count(), h.degree(v), -v),
        )
        order.append(x)
        placed |= 1 << x
    return tuple(
        (
            x,
            h.degree(x),
            tuple(j for j in range(depth) if h.has_edge(x, order[j])),
            tuple(j for j in range(depth) if not h.has_edge(x, order[j])),
        )
        for depth, x in enumerate(order)
    )


@lru_cache(maxsize=256)
def _plans(h: Graph, anchored: bool) -> tuple[tuple[_Step, ...], ...]:
    """Search plans for ``h``: the unanchored plan alone, or with
    ``anchored`` one plan per orbit of Aut(h), first step the orbit's
    smallest vertex, in ascending order.

    Orbits come from anchored search of ``h`` in ``h``: an induced
    embedding of ``h`` into itself is an automorphism.
    """
    if not anchored:
        return (_plan(h, max(range(h.n), key=lambda v: (h.degree(v), -v))),)
    at_least = _degree_masks(h, h.max_degree())
    plans = []
    found = 0
    for x in range(h.n):
        if found >> x & 1:
            continue
        plan = _plan(h, x)
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
        for combo in combinations(iter_bits(cands >> min_start << min_start), size):
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
    g: Graph, family: Sequence[PatternSpec], induced: bool = True
) -> tuple[bool, Occurrence | None]:
    """True iff no family member occurs in ``g`` (induced or subgraph mode).

    On failure returns the first witness occurrence found, scanning the
    family in the given order.
    """
    if not family:
        raise ValueError("family must be nonempty")
    for h in _fitting(g.n, tuple(family)):
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
