"""The chibench workloads: inputs made from a seed, the user's pipeline, and its checks.

The sampled workloads draw a fixed pool of G(n, p) graphs and hand each
one to the program under a vertex relabelling drawn from ``--seed`` and
the repetition number.  A new seed therefore gives new graph6 inputs with
the same isomorphism classes: solver search paths change with the
labelling, the amount of enumeration work does not, and every
isomorphism-invariant output is pinned in digests.json for every seed.

Each workload makes a repetition's inputs with ``inputs(rep)``, outside
the timed region, and streams the graphs it checks from ``source``.  ``check``
is the per-graph pipeline that is timed; it returns a small record that
goes into the output digest and the outputs that ``validate`` re-checks
outside the timed region.  The validators use oracles written here
(clique, degeneracy, K_3(2) and cutset searches) or chibound's own
checkers (``validate_*``, ``Coloring.is_proper``), never the solver
under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product
from pathlib import Path
from typing import Iterable

from chibound import bounds, corpus, patterns, solvers, structures

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# Isomorphism-class counts per vertex count n = 1, 2, ...
ALL_GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044)  # OEIS A000088
P5C4_FREE_COUNTS = (1, 2, 4, 10, 27, 87, 308)
IDENTITY_BINDING = {w: w for w in range(64)}


# ---------------------------------------------------------------------------
# Inputs and independent oracles on adjacency rows (tuples of int bitsets)


@dataclass(frozen=True)
class GnpBlock:
    """``count`` samples of G(n, p) from one seeded stream.

    The draw order matches chibound's ``random:`` corpus mode, so
    ``spec()`` names exactly these graphs.
    """

    n: int
    p: float
    count: int
    seed: int

    def spec(self) -> str:
        return str(
            corpus.CorpusSpec(
                mode="random", n_min=self.n, n_max=self.n, edge_prob=self.p,
                count=self.count, seed=self.seed, dedup=False,
            )
        )

    def rows(self) -> Iterable[tuple[int, ...]]:
        rng = random.Random(self.seed)
        n = self.n
        for _ in range(self.count):
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < self.p:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            yield tuple(adj)


@dataclass(frozen=True)
class Input:
    """One graph handed to the pipeline as a graph6 line.

    ``adj`` is the relabelled graph the line encodes; ``pool`` is the
    graph6 line of the pool graph it is isomorphic to.
    """

    line: str
    adj: tuple[int, ...]
    pool: str


def relabel(adj: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    out = [0] * len(adj)
    for u, row in enumerate(adj):
        for v in bits(row):
            out[perm[u]] |= 1 << perm[v]
    return tuple(out)


def graph6(adj: tuple[int, ...]) -> str:
    n = len(adj)
    if n > 62:
        raise ValueError("graph6 short form holds at most 62 vertices")
    flags = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    flags += [0] * (-len(flags) % 6)
    body = "".join(
        chr(int("".join(map(str, flags[k : k + 6])), 2) + 63) for k in range(0, len(flags), 6)
    )
    return chr(n + 63) + body


def component(adj, start: int, within: int) -> int:
    comp = frontier = start & within
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & within & ~comp
        comp |= frontier
    return comp


def is_connected(adj) -> bool:
    full = (1 << len(adj)) - 1
    return len(adj) > 0 and component(adj, 1, full) == full


def degeneracy(adj) -> int:
    remaining = (1 << len(adj)) - 1
    best = 0
    while remaining:
        degree, v = min(((adj[u] & remaining).bit_count(), u) for u in bits(remaining))
        best = max(best, degree)
        remaining &= ~(1 << v)
    return best


def bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def is_clique(adj, members) -> bool:
    return all(adj[u] >> v & 1 for u, v in combinations(members, 2))


def has_k222(adj) -> bool:
    """Whether three disjoint vertex pairs are pairwise completely joined."""
    for a, b in combinations(range(len(adj)), 2):
        common = adj[a] & adj[b]
        for c, d in combinations(bits(common), 2):
            if (adj[c] & adj[d] & common).bit_count() >= 2:
                return True
    return False


def minimal_cutsets(adj) -> set[int]:
    """Masks X leaving >= 2 components, each adjacent to every member of X."""
    n = len(adj)
    full = (1 << n) - 1
    out = set()
    for x in range(1, full):
        if x.bit_count() > n - 2:
            continue
        rest = full & ~x
        comps = []
        while rest:
            comp = component(adj, rest & -rest, rest)
            comps.append(comp)
            rest &= ~comp
        if len(comps) >= 2 and all(adj[v] & c for v in bits(x) for c in comps):
            out.add(x)
    return out


PETERSEN = (50, 69, 138, 276, 521, 385, 770, 548, 104, 208)


def subset_scan() -> None:
    """Reference work of the bitset kind: every minimal cutset of the Petersen graph."""
    if len(minimal_cutsets(PETERSEN)) != 15:
        raise AssertionError("reference computation changed its answer")


def path_search() -> None:
    """Reference work of the backtracking kind: ordered induced 5-vertex paths
    of the Petersen graph, pruned by neighbour-degree profiles, with list copies."""
    adj = PETERSEN
    profile = [sorted((adj[w].bit_count() for w in bits(adj[v])), reverse=True) for v in range(len(adj))]
    path_profile = [2, 2]  # an inner path vertex needs two neighbours of degree >= 2
    found = []

    def extend(seq: list[int], used: int) -> None:
        if len(seq) == 5:
            found.append(tuple(seq))
            return
        for w in bits(adj[seq[-1]] & ~used):
            if all(not adj[u] >> w & 1 for u in seq[:-1]) and all(
                h >= p for h, p in zip(profile[w], path_profile)
            ):
                extend(seq + [w], used | 1 << w)

    for v in range(len(adj)):
        extend([v], 1 << v)
    if len(found) != 120:
        raise AssertionError("reference computation changed its answer")


def witness_problems(adj, omega, clique, chi, coloring, g) -> list[str]:
    """Checks shared by every workload that computes omega and chi."""
    problems = []
    if len(clique) != omega or not is_clique(adj, sorted(clique)):
        problems.append(f"omega witness {sorted(clique)} is not a clique of size {omega}")
    if not coloring.is_proper(g) or coloring.count != chi:
        problems.append(f"chi witness is not a proper {chi}-coloring")
    if not omega <= chi <= degeneracy(adj) + 1:
        problems.append(f"omega={omega} <= chi={chi} <= degeneracy+1 fails")
    return problems


def digest(lines: Iterable[str]) -> str:
    """Order-free digest: the sorted lines, hashed."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def pinned_digest(name: str) -> str | None:
    return json.loads(DIGESTS.read_text()).get(name)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    why = ""
    bound: str | None = None

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        if self.bound is not None:
            self.entry = bounds.registry_lookup(self.bound)
            # the benchmark reaches the bound through this attribute, so the
            # traced run can wrap it as the bounds layer
            self.threshold = self.entry.threshold

    @property
    def pinned(self) -> bool:
        """Whether this run's outputs are compared against digests.json."""
        return not self.tiny

    def specs(self) -> list[str]:
        raise NotImplementedError

    def inputs(self, rep: int):
        """Inputs for repetition ``rep``, made before its timer starts."""
        return None

    def source(self, inputs) -> Iterable:
        raise NotImplementedError

    def check(self, item) -> tuple[tuple, object]:
        raise NotImplementedError

    def validate(self, item, record, outputs) -> list[str]:
        raise NotImplementedError

    def digest_lines(self, items: list, records: list) -> list[str]:
        raise NotImplementedError

    def probe(self) -> str:
        """Python source that performs set-up and takes the first graph in hand."""
        raise NotImplementedError

    # Fixed work of the same kind as the workload's, timed alongside it;
    # host speed changes hit both alike.
    reference = staticmethod(subset_scan)

    def overall_problems(self, items: list, records: list) -> list[str]:
        """Workload-level checks on the validated repetition."""
        problems = []
        for text in self.specs():
            if str(corpus.parse_corpus_spec(text)) != text:
                problems.append(f"corpus spec {text!r} does not round-trip")
        if self.pinned:
            want = pinned_digest(self.name)
            got = digest(self.digest_lines(items, records))
            if want != got:
                problems.append(f"output digest {got} != pinned {want}")
        return problems

    def bound_holds(self, chi: int, limit: int) -> bool:
        return chi <= limit if self.entry.relation == "le" else chi == limit


class Exhaustive(Workload):
    """All graphs of a corpus spec, each checked against a registered bound."""

    template = ""
    counts: tuple[int, ...] = ()
    # canonical labelling and occurrence search are backtracking searches
    reference = staticmethod(path_search)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.n_max = 5 if tiny else 7
        self.spec = corpus.parse_corpus_spec(self.template.format(n_max=self.n_max))

    def specs(self) -> list[str]:
        return [str(self.spec)]

    def source(self, inputs):
        return corpus.enumerate_graphs(self.spec)

    def check(self, g):
        omega, clique = solvers.clique_number(g)
        chi, coloring = solvers.chromatic_number(g)
        limit = self.threshold(g, omega)
        return (g.n, g.adj, omega, chi, limit), (g, clique, coloring)

    def validate(self, item, record, outputs):
        _, adj, omega, chi, limit = record
        g, clique, coloring = outputs
        problems = witness_problems(adj, omega, clique, chi, coloring, g)
        if not self.bound_holds(chi, limit):
            problems.append(f"{self.bound} violated: chi={chi}, bound={limit}")
        return problems

    def digest_lines(self, items, records):
        return [f"{graph6(adj)} {omega} {chi}" for _, adj, omega, chi, _ in records]

    def overall_problems(self, items, records):
        problems = super().overall_problems(items, records)
        per_n = Counter(n for n, *_ in records)
        got = tuple(per_n[n] for n in range(1, self.n_max + 1))
        if got != self.counts[: self.n_max] or sum(per_n.values()) != sum(got):
            problems.append(f"class counts {got} != {self.counts[: self.n_max]}")
        return problems

    def probe(self) -> str:
        return (
            "from chibound import bounds, corpus\n"
            f"spec = corpus.parse_corpus_spec({str(self.spec)!r})\n"
            f"entry = bounds.registry_lookup({self.bound!r})\n"
            "first = next(corpus.enumerate_graphs(spec))\n"
        )


class EnumAll(Exhaustive):
    name = "enum-all"
    why = "every graph on up to 7 vertices: canonical labelling does the work, pattern search none"
    template = "exhaustive:n=1..{n_max}"
    bound = "degeneracy_plus_one"
    counts = ALL_GRAPH_COUNTS


class EnumP5C4(Exhaustive):
    name = "enum-p5c4"
    why = "(P5, C4)-free graphs on up to 7 vertices: anchored pattern search prunes every level"
    template = "exhaustive:n=1..{n_max},filters=free:path:k=5+free:cycle:k=4"
    bound = "brause_p5c4"
    counts = P5C4_FREE_COUNTS


class Sampled(Workload):
    """A fixed pool of G(n, p) graphs, relabelled from the seed, as graph6 lines."""

    sizes: tuple[int, ...] = ()
    probs: tuple[float, ...] = ()
    count = 0

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.blocks = [
            GnpBlock(8, p, 1, i) if tiny else GnpBlock(n, p, self.count, i)
            for i, (n, p) in enumerate(product(self.sizes, self.probs))
        ]
        self.pool = [adj for block in self.blocks for adj in block.rows()]
        self.pool_lines = [graph6(adj) for adj in self.pool]

    def inputs(self, rep: int) -> list[Input]:
        """The pool under a fresh vertex relabelling for each repetition."""
        rng = random.Random(f"{self.seed}:{rep}")
        out = []
        for adj, pool_line in zip(self.pool, self.pool_lines):
            perm = list(range(len(adj)))
            rng.shuffle(perm)
            moved = relabel(adj, perm)
            out.append(Input(graph6(moved), moved, pool_line))
        return out

    def specs(self) -> list[str]:
        return [block.spec() for block in self.blocks]

    def source(self, inputs):
        return inputs

    def read(self, item: Input):
        return corpus.read_graph6(item.line)

    def decode_problems(self, item: Input, g) -> list[str]:
        if g.n != len(item.adj) or g.adj != item.adj:
            return [f"read_graph6({item.line!r}) decoded a different graph"]
        return []


class ChiDense(Sampled):
    name = "chi-dense"
    why = "dense G(n,p) near the solver cap: omega/chi dominate, no enumeration or canonical labelling"
    bound = "degeneracy_plus_one"
    sizes = (36, 38, 40)
    probs = (0.2, 0.5, 0.8)
    count = 60

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.k222 = patterns.make_pattern(patterns.PatternSpec.kdt(3, 2))

    def check(self, item):
        g = self.read(item)
        omega, clique = solvers.clique_number(g)
        chi, coloring = solvers.chromatic_number(g)
        found = patterns.find_subgraph(g, self.k222)
        limit = self.threshold(g, omega)
        return (omega, chi, found is not None, limit), (g, clique, coloring, found)

    def validate(self, item, record, outputs):
        omega, chi, _, limit = record
        g, clique, coloring, found = outputs
        problems = self.decode_problems(item, g)
        problems += witness_problems(item.adj, omega, clique, chi, coloring, g)
        if not self.bound_holds(chi, limit):
            problems.append(f"{self.bound} violated: chi={chi}, bound={limit}")
        if (found is not None) != has_k222(item.adj):
            problems.append(f"find_subgraph(K_3(2)) returned {found}, oracle disagrees")
        elif found is not None:
            image = found.mapping
            if len(set(image)) != 6 or any(
                not item.adj[image[u]] >> image[v] & 1 for u, v in self.k222.edges()
            ):
                problems.append(f"K_3(2) occurrence {image} is not a subgraph")
        return problems

    def digest_lines(self, items, records):
        return [
            f"{item.pool} {omega} {chi} {int(found)}"
            for item, (omega, chi, found, _) in zip(items, records)
        ]

    def probe(self) -> str:
        return (
            "from chibound import bounds, corpus, patterns\n"
            f"entry = bounds.registry_lookup({self.bound!r})\n"
            "k222 = patterns.make_pattern(patterns.PatternSpec.kdt(3, 2))\n"
            f"first = corpus.read_graph6({self.inputs(0)[0].line!r})\n"
        )


@dataclass(frozen=True)
class ClassLInstance:
    graph: object
    case: int


class BalloonCutset(Sampled):
    name = "balloon-cutset"
    why = "sparse G(11,p): balloon, biclique and cutset enumeration, where t-connectivity flow dominates"
    sizes = (11,)
    probs = (0.3, 0.4)
    count = 50

    def source(self, inputs):
        return chain(
            inputs,
            (ClassLInstance(g, case) for g, case in structures.class_l_instances()),
        )

    def check(self, item):
        if isinstance(item, ClassLInstance):
            ok, cert = structures.in_class_L(item.graph, 2, IDENTITY_BINDING)
            return (ok, cert.case if cert else None), cert
        g = self.read(item)
        balloons = [structures.enumerate_balloons(g, 2, t) for t in (2, 3)]
        bicliques = structures.enumerate_bicliques(g, 2)
        cuts = structures.minimal_cutsets(g) if is_connected(item.adj) else None
        record = (
            *(len(found) for found in balloons),
            *(sum(b.value for b in found) for found in balloons),
            len(bicliques),
            sum(b.value for b in bicliques),
            -1 if cuts is None else len(cuts),
        )
        return record, (g, balloons, bicliques, cuts)

    def validate(self, item, record, outputs):
        if isinstance(item, ClassLInstance):
            ok, case = record
            cert = outputs
            if not ok or case != item.case:
                return [f"class L instance of case {item.case} gave ({ok}, {case})"]
            w = cert.witnesses
            if not (w["v"] in w["X"] and w["chi_F"] > w["threshold"]):
                return [f"class L certificate {cert.to_json_dict()} is inconsistent"]
            return []
        g, balloons, bicliques, cuts = outputs
        problems = self.decode_problems(item, g)
        for found in balloons:
            problems += [f"invalid balloon {b}" for b in found if not structures.validate_balloon(g, b)]
        problems += [f"invalid biclique {b}" for b in bicliques if not structures.validate_biclique(g, b)]
        if len(bicliques) != len(item.adj) * (len(item.adj) - 1) // 2:
            problems.append(f"{len(bicliques)} 2-bicliques, want one per vertex pair")
        if cuts is not None:
            got = {sum(1 << v for v in x) for x in cuts}
            if len(got) != len(cuts) or got != minimal_cutsets(item.adj):
                problems.append("minimal_cutsets disagrees with the brute-force oracle")
        return problems

    def digest_lines(self, items, records):
        return [
            f"{graph6(item.graph.adj)} L {record}"
            if isinstance(item, ClassLInstance)
            else f"{item.pool} {record}"
            for item, record in zip(items, records)
        ]

    def probe(self) -> str:
        return (
            "from chibound import corpus, structures\n"
            f"first = corpus.read_graph6({self.inputs(0)[0].line!r})\n"
        )


WORKLOADS = {w.name: w for w in (EnumAll, EnumP5C4, ChiDense, BalloonCutset)}
