"""Composite structures: balloons, bicliques, minimal cutsets, class membership.

A (p,t)-balloon is an induced p-vertex path whose endpoint lands in a
t-connected body, with strict attachment rules for the earlier path
vertices; its value is the chromatic number of the endpoint plus its
non-neighbors inside the body.  A t-biclique pairs a t-set with a set
completely joined to it; its value is the chromatic number of the
joined set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterator, Mapping

from .graph import (
    CapExceeded,
    Graph,
    _core_mask,
    _is_int,
    _on_graph,
    _require_ints,
    _t_connected_mask,
    bfs_layers,
    build_graph,
    components_masks,
    is_connected_mask,
    iter_bits,
    mask_of,
)
from .patterns import Occurrence, PatternSpec, c4_flag_family, is_family_free
from .solvers import chi_of_subset, clique_number

BALLOON_MAX_N = 16
CUTSET_MAX_N = 16


@dataclass(frozen=True)
class Balloon:
    """Witness record for a (p,t)-balloon.

    ``path`` is the induced path v_1..v_p in order; ``body`` is the
    t-connected set containing v_p; ``z_set`` is v_p plus its
    non-neighbors in the body; ``value`` is chi of the z_set.
    """

    path: tuple[int, ...]
    body: frozenset[int]
    z_set: frozenset[int]
    value: int
    t: int

    @property
    def tip(self) -> int:
        return self.path[-1]


@dataclass(frozen=True)
class Biclique:
    """Witness record for a t-biclique (X completely joined to Y)."""

    x_set: frozenset[int]
    y_set: frozenset[int]
    value: int


@dataclass(frozen=True)
class ClassCertificate:
    """Named witnesses for a class-membership decision."""

    class_id: str
    case: int | None
    witnesses: dict[str, object] = field(hash=False)

    def to_json_dict(self) -> dict:
        out: dict[str, object] = {"class_id": self.class_id, "case": self.case}
        wit = {}
        for key, value in self.witnesses.items():
            if isinstance(value, (frozenset, set, tuple, list)):
                wit[key] = sorted(value)
            else:
                wit[key] = value
        out["witnesses"] = wit
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ClassCertificate":
        """Inverse of :meth:`to_json_dict`: list-valued witnesses become
        frozensets.  Input not shaped like its output raises ``ValueError``:
        ``class_id`` must be a string, ``case`` None or an int, and every
        witness an int (a vertex id or a count) or a list of them, with
        ``bool`` refused wherever an int is."""
        if not isinstance(data, Mapping):
            raise ValueError(f"certificate JSON must be an object, got {type(data).__name__}")
        try:
            class_id, case, wit = data["class_id"], data["case"], data["witnesses"]
        except KeyError as exc:
            raise ValueError(f"certificate JSON lacks the key {exc}") from None
        if not isinstance(class_id, str):
            raise ValueError(f"certificate class_id must be a string, got {class_id!r}")
        if case is not None and not _is_int(case):
            raise ValueError(f"certificate case must be null or an int, got {case!r}")
        if not isinstance(wit, Mapping):
            raise ValueError(f"certificate witnesses must be an object, got {type(wit).__name__}")
        witnesses: dict[str, object] = {}
        for key, value in wit.items():
            if isinstance(value, list):
                if not all(map(_is_int, value)):
                    raise ValueError(f"certificate witness list {key!r} must hold vertex ids")
                value = frozenset(value)
            elif not _is_int(value):
                raise ValueError(f"certificate witness {key!r} must be an int, got {value!r}")
            witnesses[key] = value
        return cls(class_id=class_id, case=case, witnesses=witnesses)


# ---------------------------------------------------------------------------
# Balloons


def _induced_paths(g: Graph, p: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All ordered induced p-vertex paths in lexicographic sequence order,
    each with its balloon region: the vertices off the path's non-final
    vertices and their neighbourhoods, the tip kept."""
    full = g.full_mask()

    def extend(
        seq: list[int], seq_mask: int, forbidden: int
    ) -> Iterator[tuple[tuple[int, ...], int]]:
        # forbidden: vertices adjacent to any non-final sequence vertex
        if len(seq) == p:
            yield tuple(seq), full & ~(seq_mask ^ (1 << seq[-1])) & ~forbidden
            return
        last = seq[-1]
        cands = g.adj[last] & ~seq_mask & ~forbidden
        for w in iter_bits(cands):
            yield from extend(
                seq + [w], seq_mask | (1 << w), forbidden | (g.adj[last] & ~(1 << w))
            )

    for v in range(g.n):
        yield from extend([v], 1 << v, 0)


def enumerate_balloons(g: Graph, p: int, t: int) -> list[Balloon]:
    """Exhaustively enumerate the (p,t)-balloons of ``g``.

    Paths come in lexicographic sequence order; bodies per path by
    increasing size then lexicographic.  A t-connected body Y has more
    than t vertices and minimum degree at least t, so it lies inside the
    t-core of the path's admissible region (the largest subset of
    minimum degree at least t, :func:`_core_mask`): a path whose tip is
    outside that core has no body, and otherwise only the connected sets
    of the core that contain the tip, have more than t vertices and
    minimum degree at least t are generated (:func:`_connected_bodies`).

    The verdicts come from one pass over the union of every path's
    candidates, by increasing size.  Every member of a candidate Y has at
    least t neighbours in Y, so if Y - v is a candidate already proven
    t-connected for some v in Y (the tip included), Y is t-connected by
    the expansion lemma (West, *Introduction to Graph Theory*, Lemma
    4.2.3) and needs no flow; only the others go to
    :func:`_t_connected_mask`.  The pass covers the whole call rather
    than one path at a time, so the set of masks that get a flow test is
    a function of the candidate set alone and does not depend on which
    tip reaches a body first, that is, on the vertex labels.

    Within one call each body mask gets at most one t-connectivity test,
    each z-set one chi, and each body and z-set mask one frozenset,
    shared by every balloon that carries it.  Raises
    :class:`CapExceeded` when the graph is larger than ``BALLOON_MAX_N``.
    """
    _require_ints(p=(p, 1), t=(t, 1))
    if g.n > BALLOON_MAX_N:
        raise CapExceeded(
            f"balloon enumeration cap is {BALLOON_MAX_N} vertices, got {g.n}"
        )
    out: list[Balloon] = []
    chi_of_z: dict[int, int] = {}
    sets: dict[int, frozenset[int]] = {}

    def members(mask: int) -> frozenset[int]:
        found = sets.get(mask)
        if found is None:
            found = sets[mask] = frozenset(iter_bits(mask))
        return found

    candidates: list[tuple[tuple[int, ...], list[int]]] = []
    for path, region in _induced_paths(g, p):
        tip = path[-1]
        core = _core_mask(g, region, t)
        if core >> tip & 1:
            candidates.append((path, _connected_bodies(g, core, tip, t)))

    # size order: every Y - v is decided before Y
    connected: dict[int, bool] = {}
    for y_mask in sorted({y for _, ys in candidates for y in ys}, key=_size_lex):
        rest = y_mask
        while rest:
            low = rest & -rest
            rest ^= low
            if connected.get(y_mask ^ low):
                connected[y_mask] = True
                break
        else:
            connected[y_mask] = _t_connected_mask(g, y_mask, t)
    rank = {y_mask: i for i, y_mask in enumerate(connected)}

    for path, ys in candidates:
        tip = path[-1]
        for y_mask in sorted((y for y in ys if connected[y]), key=rank.__getitem__):
            z_mask = y_mask & ~g.adj[tip]
            value = chi_of_z.get(z_mask)
            if value is None:
                value = chi_of_z[z_mask] = chi_of_subset(g, iter_bits(z_mask))
            out.append(
                Balloon(
                    path=path,
                    body=members(y_mask),
                    z_set=members(z_mask),
                    value=value,
                    t=t,
                )
            )
    return out


def _connected_bodies(g: Graph, base: int, tip: int, t: int) -> list[int]:
    """Every connected subset of ``base`` that contains ``tip``, has more
    than t vertices and minimum degree at least t, each once.

    Extend/exclude recursion on the rows ``adj & base``: a call holds a
    connected set, its frontier and its room, the vertices of ``base``
    not yet excluded; it adds the frontier vertices one at a time, and a
    vertex once tried is excluded from the later branches.  Every set a
    branch can still reach lies inside its room, so a frontier vertex
    with fewer than t neighbours in the room is excluded untried, and
    once an exclusion leaves a member of the current set with fewer than
    t of them, the remaining siblings are dropped.
    """
    adj = g.adj
    out: list[int] = []

    def grow(y: int, frontier: int, room: int) -> None:
        if y.bit_count() > t:
            rest = y
            while rest:
                low = rest & -rest
                rest ^= low
                if (adj[low.bit_length() - 1] & y).bit_count() < t:
                    break
            else:
                out.append(y)
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            row = adj[low.bit_length() - 1]
            if (row & room).bit_count() >= t:
                grown = y | low
                grow(grown, (frontier | row & room) & ~grown, room)
            room ^= low
            touched = y & row
            while touched:
                u = touched & -touched
                touched ^= u
                if (adj[u.bit_length() - 1] & room).bit_count() < t:
                    return

    tip_bit = 1 << tip
    grow(tip_bit, adj[tip] & base & ~tip_bit, base)
    return out


def validate_balloon(g: Graph, b: Balloon) -> bool:
    """Re-check every defining condition of a balloon, independent of the enumerator."""
    p = len(b.path)
    if p < 1 or b.t < 1 or not _on_graph(g, (*b.path, *b.body, *b.z_set)) or len(set(b.path)) != p:
        return False
    # induced path
    for i in range(p):
        for j in range(i + 1, p):
            if g.has_edge(b.path[i], b.path[j]) != (j == i + 1):
                return False
    body = b.body
    tip = b.path[-1]
    if tip not in body:
        return False
    if any(v in body for v in b.path[:-1]):
        return False
    for v in b.path[:-2]:
        if any(w in body for w in g.neighbors(v)):
            return False
    if p >= 2:
        prev = b.path[-2]
        if {w for w in g.neighbors(prev) if w in body} != {tip}:
            return False
    if not _t_connected_mask(g, mask_of(body), b.t):
        return False
    z = {v for v in body if not g.has_edge(v, tip)} | {tip}
    if z != set(b.z_set):
        return False
    return chi_of_subset(g, z) == b.value


def _far_region(g: Graph, b: Balloon) -> tuple[list[int], int, int]:
    """Body layers from the tip, and the max degree of the body subgraph on
    the layers at distance >= 2 (-1 when empty) with the mask of its
    vertices of that degree."""
    body_layers = bfs_layers(g, 1 << b.tip, mask_of(b.body))
    far = sum(body_layers[2:])
    degs = {v: (g.adj[v] & far).bit_count() for v in iter_bits(far)}
    dmax = max(degs.values(), default=-1)
    top = mask_of(v for v, d in degs.items() if d == dmax)
    return body_layers, dmax, top


# ---------------------------------------------------------------------------
# Bicliques


def enumerate_bicliques(g: Graph, t: int) -> list[Biclique]:
    """All t-bicliques with maximal joined set, one per t-subset X.

    The maximal choice of Y for a given X is the common neighborhood of
    X; chi is monotone under induced subgraphs, so maximal Y suffices
    for any value-threshold question.  X sets come in lexicographic
    order.
    """
    _require_ints(t=(t, 1))
    out: list[Biclique] = []
    if g.n < t:
        return out
    chi_of_common: dict[int, int] = {}
    for combo in combinations(range(g.n), t):
        common = g.full_mask()
        for v in combo:
            common &= g.adj[v]
        value = chi_of_common.get(common)
        if value is None:
            value = chi_of_common[common] = chi_of_subset(g, iter_bits(common))
        out.append(
            Biclique(
                x_set=frozenset(combo),
                y_set=frozenset(iter_bits(common)),
                value=value,
            )
        )
    return out


def validate_biclique(g: Graph, b: Biclique) -> bool:
    """Re-check that X is completely joined to a disjoint Y and the value is chi(Y)."""
    if not _on_graph(g, b.x_set | b.y_set) or b.x_set & b.y_set:
        return False
    for x in b.x_set:
        for y in b.y_set:
            if not g.has_edge(x, y):
                return False
    return chi_of_subset(g, b.y_set) == b.value


# ---------------------------------------------------------------------------
# Minimal cutsets


def minimal_cutsets(g: Graph) -> list[frozenset[int]]:
    """All vertex sets X whose removal disconnects ``g`` such that every
    member of X has a neighbor in every remaining component.

    These are exactly the minimal separators all of whose components
    are full, so they are picked from the minimal separators generated
    by Berry, Bordat & Cogis (2000): N(C) for each component C of
    G - N[v], closed under S -> N(C) for each x in S and each component
    C of G - (S + N(x)).  The list comes by increasing size then
    lexicographic.  Raises on disconnected input and on graphs above
    ``CUTSET_MAX_N``.
    """
    if g.n > CUTSET_MAX_N:
        raise CapExceeded(f"cutset enumeration cap is {CUTSET_MAX_N} vertices, got {g.n}")
    full = g.full_mask()
    if not is_connected_mask(g, full) or g.n < 2:
        raise ValueError("minimal_cutsets requires a connected graph")

    def separators_beside(removed: int) -> list[int]:
        return [_boundary(g, comp) for comp in components_masks(g, full & ~removed)]

    found = set()
    for v in range(g.n):
        found.update(separators_beside(g.adj[v] | 1 << v))
    todo = list(found)
    while todo:
        s_mask = todo.pop()
        for x in iter_bits(s_mask):
            for sep in separators_beside(s_mask | g.adj[x]):
                if sep not in found:
                    found.add(sep)
                    todo.append(sep)
    out = [s_mask for s_mask in found if set(separators_beside(s_mask)) == {s_mask}]
    out.sort(key=_size_lex)
    return [frozenset(iter_bits(s_mask)) for s_mask in out]


def _size_lex(mask: int) -> tuple[int, list[int]]:
    """Sort key: by size, then lexicographic on the sorted members."""
    return mask.bit_count(), iter_bits(mask)


def _boundary(g: Graph, mask: int) -> int:
    """N(mask): the vertices outside ``mask`` with a neighbor in it."""
    out = 0
    for v in iter_bits(mask):
        out |= g.adj[v]
    return out & ~mask


# ---------------------------------------------------------------------------
# Class membership


def in_class_H(g: Graph, p: int) -> tuple[bool, Occurrence | None]:
    """Membership in the C4-free and p-flag-free class, with witness on failure."""
    _require_ints(p=(p, 1))
    return is_family_free(g, list(c4_flag_family(p)), induced=True)


_L_PRECONDITION_FAMILY = [PatternSpec.path(6), PatternSpec.broom(2, 2)]


def in_class_L(
    g: Graph, i: int, binding: Mapping[int, int]
) -> tuple[bool, ClassCertificate | None]:
    """Cutset-based class membership for {P6, (2,2)-broom}-free graphs.

    Quantifies existentially over minimal cutsets X and vertices v in X.
    With X complete (case 1) a second component must hold a vertex
    nonadjacent to v; with X not complete (case 2) some w in X
    nonadjacent to v must miss the chosen neighbor y.  Either way some
    component F of B1 minus the v-neighborhood N must touch N(y) and have
    chi above ``binding`` at omega(G) // i.

    The search leans on what :func:`minimal_cutsets` guarantees: X leaves
    at least two components and every member of X has a neighbor in each
    of them.  So N is never empty, a second component B2 always exists,
    and so does ``f_vertex``, the lowest neighbor of v in B2.  The case
    conditions depend on (v, B1) and (v, y) only, so they are tested
    before any chi; each F gets one chi per call.  The first hit in the
    order X, v, B1, y, F is returned.  A disconnected graph or one with
    fewer than 2 vertices raises ``ValueError`` before any search.
    """
    _require_ints(i=(i, 2))
    if g.n < 2 or not is_connected_mask(g, g.full_mask()):
        raise ValueError("in_class_L requires a connected graph on at least 2 vertices")
    free, occ = is_family_free(g, _L_PRECONDITION_FAMILY, induced=True)
    if not free:
        raise ValueError("graph is not {P6, (2,2)-broom}-free")
    omega = clique_number(g)[0]
    point = omega // i
    if point not in binding:
        raise ValueError(f"binding table undefined at {point}")
    threshold = binding[point]

    adj = g.adj
    chi_of_f: dict[int, int] = {}
    for x_set in minimal_cutsets(g):
        x_mask = mask_of(x_set)
        comps = components_masks(g, g.full_mask() & ~x_mask)
        x_complete = all(x_mask & ~adj[v] == 1 << v for v in x_set)
        for v, b1 in product(sorted(x_set), comps):
            if x_complete:
                # case 1: another component holds a vertex nonadjacent to v
                b2 = next((c for c in comps if c != b1 and c & ~adj[v]), 0)
                if not b2:
                    continue
                extra = {"u": _lowest(b2 & ~adj[v])}
            else:
                b2 = next(c for c in comps if c != b1)
            n_mask = adj[v] & b1
            f_comps = components_masks(g, b1 & ~n_mask)
            for y in iter_bits(n_mask):
                if not x_complete:
                    # case 2: some w in X misses both v and y
                    w_mask = x_mask & ~adj[v] & ~adj[y] & ~(1 << v)
                    if not w_mask:
                        continue
                    extra = {"w": _lowest(w_mask)}
                for f_mask in f_comps:
                    if not adj[y] & f_mask:
                        continue
                    chi_f = chi_of_f.get(f_mask)
                    if chi_f is None:
                        chi_f = chi_of_f[f_mask] = chi_of_subset(g, iter_bits(f_mask))
                    if chi_f <= threshold:
                        continue
                    witnesses: dict[str, object] = {
                        "X": x_set,
                        "v": v,
                        "B1": frozenset(iter_bits(b1)),
                        "y": y,
                        "N": frozenset(iter_bits(n_mask)),
                        "F": frozenset(iter_bits(f_mask)),
                        "Y1": frozenset(z for z in iter_bits(n_mask) if adj[z] & f_mask),
                        "chi_F": chi_f,
                        "omega": omega,
                        "threshold": threshold,
                        "f_vertex": _lowest(adj[v] & b2),
                        **extra,
                        "B2": frozenset(iter_bits(b2)),
                    }
                    case = 1 if x_complete else 2
                    return True, ClassCertificate(f"L({i})", case, witnesses)
    return False, None


def _lowest(mask: int) -> int:
    """The lowest vertex of a nonempty mask."""
    return (mask & -mask).bit_length() - 1


def in_class_F(g: Graph, k: int, p: int, t: int) -> bool:
    """Deep-layer condition: in every (p,t)-balloon some maximum-degree vertex
    of the distance->=2 body region stays close to the tip.

    "Close" means body-layer index at most k+1, reading "within distance
    k from the tip neighborhood".  The stricter distance-from-tip reading
    (layer index at most k) at some k >= 3 is this reading at k - 1.
    Membership presumes the C4-free p-flag-free class; non-members are
    rejected.
    """
    _require_ints(k=(k, 2), p=(p, 1), t=(t, 1))
    member, _ = in_class_H(g, p)
    if not member:
        raise ValueError("graph is outside the C4-free p-flag-free class")
    for b in enumerate_balloons(g, p, t):
        body_layers, _, top = _far_region(g, b)
        if top and not top & sum(body_layers[: k + 2]):  # layers 0..k+1
            return False
    return True


# ---------------------------------------------------------------------------
# Constructed instances of the cutset class (used by verification suites)


def build_class_l_case1(
    clique_size: int, x_size: int = 1, attach_count: int = 1, link_attachments: bool = False
) -> Graph:
    """A case-1 instance: complete cutset X, a body component carrying a
    clique F behind the v-neighborhood, and a second component with a
    vertex nonadjacent to v.

    Layout: X = {v, x_1..} complete; y_1..y_a adjacent to all of X and
    complete to the clique F; B2 is a path f-u with f adjacent to all of
    X.  Built to stay {P6, (2,2)-broom}-free for every parameter choice.
    """
    _require_ints(clique_size=(clique_size, 2), x_size=(x_size, 1), attach_count=(attach_count, 1))
    edges = []
    x_vertices = list(range(x_size))  # vertex 0 is v
    ys = list(range(x_size, x_size + attach_count))
    f_start = x_size + attach_count
    f_vertices = list(range(f_start, f_start + clique_size))
    f_b2 = f_start + clique_size
    u_b2 = f_b2 + 1
    edges += [(a, b) for a, b in combinations(x_vertices, 2)]
    for y in ys:
        edges += [(x, y) for x in x_vertices]
        edges += [(y, w) for w in f_vertices]
    if link_attachments:
        edges += [(a, b) for a, b in combinations(ys, 2)]
    edges += [(a, b) for a, b in combinations(f_vertices, 2)]
    edges += [(x, f_b2) for x in x_vertices]
    edges.append((f_b2, u_b2))
    return build_graph(u_b2 + 1, edges)


def build_class_l_case2(
    clique_size: int, attach_count: int = 1, tether_count: int = 1
) -> Graph:
    """A case-2 instance: X = {v, w} nonadjacent, y's adjacent to v but
    not w, F a clique complete to the y's, w tethered to F directly,
    and a second component {f} joined to both cutset vertices.
    """
    _require_ints(
        clique_size=(clique_size, 2), attach_count=(attach_count, 1), tether_count=(tether_count, 1)
    )
    if tether_count > clique_size:
        raise ValueError(f"tether_count must be at most clique_size, got {tether_count} > {clique_size}")
    v, w = 0, 1
    ys = list(range(2, 2 + attach_count))
    f_start = 2 + attach_count
    f_vertices = list(range(f_start, f_start + clique_size))
    b2_f = f_start + clique_size
    edges = []
    for y in ys:
        edges.append((v, y))
        edges += [(y, z) for z in f_vertices]
    edges += [(a, b) for a, b in combinations(f_vertices, 2)]
    edges += [(w, f_vertices[j]) for j in range(tether_count)]
    edges += [(v, b2_f), (w, b2_f)]
    return build_graph(b2_f + 1, edges)


def class_l_instances() -> list[tuple[Graph, int]]:
    """A varied list of constructed instances with their intended case number."""
    out: list[tuple[Graph, int]] = []
    for c in range(2, 7):
        out.append((build_class_l_case1(c), 1))
        out.append((build_class_l_case1(c, x_size=2), 1))
        if c >= 3:
            # linked attachments enlarge omega by the attachment count,
            # so the clique F must outgrow the shifted threshold
            out.append((build_class_l_case1(c, attach_count=2, link_attachments=True), 1))
        out.append((build_class_l_case2(c), 2))
        out.append((build_class_l_case2(c, attach_count=2), 2))
        if c >= 3:
            out.append((build_class_l_case2(c, tether_count=2), 2))
    return out
