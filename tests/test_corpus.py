import hashlib
import random
import time
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

import chibound.corpus
import chibound.patterns
from chibound.graph import CapExceeded, Graph, build_graph
from chibound.corpus import (
    DEDUP_MAX_N,
    CorpusSpec,
    PatternFilter,
    canonical_graph,
    canonical_key,
    enumerate_graphs,
    parse_corpus_spec,
    parse_pattern,
    read_graph6,
    write_graph6,
)
from chibound.patterns import PATTERN_KINDS, PatternSpec, c4_flag_family, make_pattern

from helpers import (
    complete_graph,
    cycle_graph,
    from_networkx,
    graphs,
    path_graph,
    petersen_graph,
    random_graph,
    reference_canonical_key,
    to_networkx,
)


@st.composite
def graph6_graphs(draw, max_n: int = 70) -> Graph:
    """A labelled graph on 0..max_n vertices, up to the "~" long header:
    each vertex pair in row order is an edge when its bit of a drawn int is set."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.integers(0, (1 << len(pairs)) - 1))
    return build_graph(n, [e for k, e in enumerate(pairs) if keep >> k & 1])


class TestGraph6:
    def test_k3_round_trip(self):
        g = complete_graph(3)
        s = write_graph6(g)
        assert s == "Bw"
        assert read_graph6(s) == g

    def test_single_vertex(self):
        assert write_graph6(build_graph(1, [])) == "@"
        assert read_graph6("@").n == 1

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            read_graph6("")

    def test_truncated_body_rejected(self):
        s = write_graph6(petersen_graph())
        with pytest.raises(ValueError):
            read_graph6(s[:-1])

    def test_trailing_garbage_rejected(self):
        s = write_graph6(cycle_graph(5))
        with pytest.raises(ValueError):
            read_graph6(s + "w")

    def test_eight_byte_header_rejected(self):
        # "~~" opens the n > 258047 header; read as the 4-byte form it
        # would give n = 258048 from the wrong characters
        with pytest.raises(ValueError, match="8-byte header '~~'"):
            read_graph6("~~??A?")

    def test_non_printable_rejected(self):
        with pytest.raises(ValueError):
            read_graph6("B\x07")

    def test_nonzero_padding_rejected(self):
        # The body holds n(n-1)/2 bits rounded up to whole 6-bit characters;
        # the trailing (-n(n-1)/2) % 6 bits are padding and must be zero.
        # A character carries its 6-bit value plus 63, so the corruption is
        # applied to the value, never to the raw character code.
        graphs = [
            path_graph(2),  # 5 padding bits
            path_graph(3),  # 3 padding bits
            cycle_graph(5),  # 2 padding bits
            complete_graph(5),  # 2 padding bits, last edge bit set
            path_graph(65),  # 2 padding bits, long "~" header
        ]
        for g in graphs:
            s = write_graph6(g)
            assert read_graph6(s) == g
            padding = (-(g.n * (g.n - 1) // 2)) % 6
            assert padding > 0
            for bit in range(padding):
                corrupted = s[:-1] + chr(((ord(s[-1]) - 63) | 1 << bit) + 63)
                assert corrupted != s
                with pytest.raises(ValueError, match="padding"):
                    read_graph6(corrupted)

    def test_header_prefix_accepted(self):
        g = cycle_graph(4)
        assert read_graph6(">>graph6<<" + write_graph6(g)) == g

    def test_round_trip_fuzz(self):
        rng = random.Random(2024)
        for _ in range(2000):
            n = rng.randint(1, 30)
            g = random_graph(n, rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
            s = write_graph6(g)
            assert read_graph6(s) == g
            assert write_graph6(read_graph6(s)) == s

    @settings(max_examples=150)
    @given(g=graphs(max_n=7, min_n=0))
    def test_round_trip_property(self, g):
        assert read_graph6(write_graph6(g)) == g

    def test_large_n_header(self):
        g = build_graph(100, [(0, 99)])
        s = write_graph6(g)
        assert s.startswith("~")
        assert read_graph6(s) == g

    # an encoder written elsewhere: networkx's graph6 writer and reader
    @settings(max_examples=120)
    @given(g=graph6_graphs())
    @example(g=path_graph(63))
    @example(g=complete_graph(70))
    def test_agrees_with_networkx(self, g):
        line = nx.to_graph6_bytes(to_networkx(g), header=False).decode().rstrip("\n")
        assert write_graph6(g) == line
        assert read_graph6(line) == g
        theirs = nx.from_graph6_bytes(write_graph6(g).encode())
        assert theirs.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in theirs.edges()) == g.edges()


def brute_canonical_key(g):
    """Minimum column-order bit tuple over all vertex permutations."""
    best = None
    for perm in permutations(range(g.n)):
        cols = []
        for j in range(1, g.n):
            col = 0
            for i in range(j):
                col = col << 1 | (1 if g.has_edge(perm[i], perm[j]) else 0)
            cols.append(col)
        key = tuple(cols)
        if best is None or key < best:
            best = key
    return (g.n, best if best is not None else ())


TWIN_FREE_VERTEX_TRANSITIVE_PAIRS = {
    "petersen-prism": (nx.petersen_graph(), nx.circular_ladder_graph(5)),
    "c10-2c5": (nx.cycle_graph(10), nx.disjoint_union(nx.cycle_graph(5), nx.cycle_graph(5))),
    "c9-3c3": (nx.cycle_graph(9), nx.disjoint_union_all([nx.cycle_graph(3)] * 3)),
    "k3k3-circulant": (
        nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(3)),
        nx.circulant_graph(9, [1, 2]),
    ),
}


class TestCanonicalForm:
    def test_matches_brute_force(self):
        rng = random.Random(313)
        cases = [
            build_graph(1, []),
            build_graph(4, []),
            complete_graph(5),
            cycle_graph(6),
            path_graph(5),
        ]
        for _ in range(120):
            cases.append(random_graph(rng.randint(2, 6), rng.choice([0.2, 0.5, 0.8]), rng))
        for _ in range(10):
            cases.append(random_graph(7, 0.5, rng))
        for g in cases:
            assert canonical_key(g) == brute_canonical_key(g), g.edges()

    def test_invariant_under_relabeling(self):
        rng = random.Random(317)
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(n, 0.5, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = build_graph(
                n, [(perm[u], perm[v]) for u, v in g.edges()]
            )
            assert canonical_key(g) == canonical_key(relabeled)

    def test_canonical_graph_is_fixed_point(self):
        rng = random.Random(331)
        for _ in range(30):
            g = random_graph(rng.randint(2, 7), 0.5, rng)
            c = canonical_graph(g)
            assert canonical_key(c) == canonical_key(g)
            assert canonical_graph(c) == c

    def test_distinguishes_non_isomorphic(self):
        a = path_graph(4)
        b = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_key(a) != canonical_key(b)

    def test_twin_rich_blow_ups_match_brute_force(self):
        # every base vertex becomes a set of open or closed twins
        rng = random.Random(337)
        for _ in range(40):
            base = random_graph(rng.randint(1, 4), 0.5, rng)
            cliques = [rng.random() < 0.5 for _ in range(base.n)]
            g = blow_up(base, split(rng.randint(base.n, 7), base.n, rng), cliques, rng)
            assert canonical_key(g) == brute_canonical_key(g), g.edges()

    def test_planted_twins_at_9_to_12(self):
        # g and h blow up one base alike, except that one vertex moves to
        # another twin set in h: isomorphic when it stays in its set or the
        # move follows a base automorphism, otherwise a near miss
        rng = random.Random(347)
        for _ in range(60):
            n = rng.randint(9, 12)
            base = random_graph(rng.randint(3, 6), 0.5, rng)
            cliques = [rng.random() < 0.5 for _ in range(base.n)]
            sizes = split(n, base.n, rng)
            moved = list(sizes)
            moved[rng.choice([v for v, size in enumerate(sizes) if size > 1])] -= 1
            moved[rng.randrange(base.n)] += 1
            g, h = blow_up(base, sizes, cliques, rng), blow_up(base, moved, cliques, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_key(relabelled) == canonical_key(g), g.edges()
            same = canonical_key(g) == canonical_key(h)
            assert same == nx.is_isomorphic(to_networkx(g), to_networkx(h)), (
                g.edges(),
                h.edges(),
            )

    @pytest.mark.parametrize("name", sorted(TWIN_FREE_VERTEX_TRANSITIVE_PAIRS))
    def test_vertex_transitive_twin_free_pairs(self, name):
        # in g every vertex ties at every level and no twin skip fires,
        # past brute-force reach; each pair shares order, size and degrees
        g, h = (from_networkx(x) for x in TWIN_FREE_VERTEX_TRANSITIVE_PAIRS[name])
        rows = [g.adj[v] for v in range(g.n)] + [g.adj[v] | 1 << v for v in range(g.n)]
        assert len(set(rows)) == 2 * g.n  # twin-free
        assert sorted(map(g.degree, range(g.n))) == sorted(map(h.degree, range(h.n)))
        rng = random.Random(name)
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert nx.is_isomorphic(to_networkx(g), to_networkx(shuffled))
        assert not nx.is_isomorphic(to_networkx(g), to_networkx(h))
        assert canonical_key(shuffled) == canonical_key(g)
        assert canonical_key(g) != canonical_key(h)


def split(n: int, parts: int, rng: random.Random) -> list[int]:
    """A random composition of n into ``parts`` positive sizes."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


def blow_up(base: Graph, sizes: list[int], cliques: list[bool], rng: random.Random) -> Graph:
    """Replace vertex v of ``base`` by ``sizes[v]`` vertices, a clique when
    ``cliques[v]`` and an independent set otherwise, then shuffle the labels."""
    owner = [v for v, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(owner)
    edges = [
        (x, y)
        for x in range(len(owner))
        for y in range(x + 1, len(owner))
        if (cliques[owner[x]] if owner[x] == owner[y] else base.has_edge(owner[x], owner[y]))
    ]
    return build_graph(len(owner), edges)


@st.composite
def keyed_graphs(draw, max_n: int = 12) -> Graph:
    """A labelled graph on up to ``max_n`` vertices: an arbitrary one, or
    a blow-up whose vertices fall into open and closed twin sets."""
    if draw(st.booleans()):
        return draw(graphs(max_n=max_n))
    base = draw(graphs(max_n=5))
    n = draw(st.integers(base.n, max_n))
    cliques = draw(st.lists(st.booleans(), min_size=base.n, max_size=base.n))
    rng = draw(st.randoms(use_true_random=False))
    return blow_up(base, split(n, base.n, rng), cliques, rng)


@settings(max_examples=300)
@given(g=keyed_graphs())
def test_canonical_key_equals_reference(g):
    # the exact key, not only an invariant one: stream order and digests
    # are read off it
    assert canonical_key(g) == reference_canonical_key(g), g.edges()


@st.composite
def same_order_pairs(draw):
    """Two graphs on one vertex count, and a relabelling of the first."""
    n = draw(st.integers(0, 7))
    g, h = draw(graphs(max_n=n, min_n=n)), draw(graphs(max_n=n, min_n=n))
    perm = draw(st.permutations(range(n)))
    return g, h, build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=150)
@given(pair=same_order_pairs())
def test_canonical_key_iff_isomorphic(pair):
    g, h, relabelled = pair
    assert canonical_key(relabelled) == canonical_key(g)
    same = canonical_key(g) == canonical_key(h)
    assert same == nx.is_isomorphic(to_networkx(g), to_networkx(h)), (g.edges(), h.edges())


@pytest.fixture(scope="module")
def corpus_all() -> list[Graph]:
    """Every graph on 1..7 vertices, enumerated once for the tests that read it."""
    return list(enumerate_graphs(parse_corpus_spec("exhaustive:n=1..7")))


@pytest.fixture(scope="module")
def corpus_p5c4() -> list[Graph]:
    """The induced (P5, C4)-free graphs on 1..7 vertices, enumerated once."""
    return list(
        enumerate_graphs(
            parse_corpus_spec("exhaustive:n=1..7,filters=free:path:k=5+free:cycle:k=4")
        )
    )


class TestExhaustiveEnumeration:
    def test_exact_n_counts(self):
        assert sum(1 for _ in enumerate_graphs(CorpusSpec("exhaustive", 3, 3))) == 4
        assert sum(1 for _ in enumerate_graphs(CorpusSpec("exhaustive", 4, 4))) == 11

    def test_classical_counts_through_7(self, corpus_all):
        counts = [0] * 8
        for g in corpus_all:
            counts[g.n] += 1
        assert counts[1:] == [1, 2, 4, 11, 34, 156, 1044]

    def test_matches_bitmask_oracle_small(self):
        # raw labelled enumeration over every edge bitmask + canonical dedup
        # must agree with the extension-based canonical enumerator
        for n in range(1, 6):
            pairs = [(u, v) for v in range(n) for u in range(v)]
            raw_classes = {
                canonical_key(
                    build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                )
                for mask in range(1 << len(pairs))
            }
            canon = list(enumerate_graphs(CorpusSpec("exhaustive", n, n)))
            assert {canonical_key(g) for g in canon} == raw_classes
            assert len(canon) == len(raw_classes)

    def test_matches_atlas_oracle(self, corpus_all):
        # networkx's atlas lists every graph on up to 7 vertices once per
        # isomorphism class, independently of canonical_key
        atlas = nx.graph_atlas_g()
        counts = []
        for n in range(1, 8):
            expected = {
                canonical_key(build_graph(n, h.edges()))
                for h in atlas
                if h.number_of_nodes() == n
            }
            found = [canonical_key(g) for g in corpus_all if g.n == n]
            assert len(found) == len(set(found)) == len(expected)
            assert set(found) == expected
            counts.append(len(found))
        assert counts == [1, 2, 4, 11, 34, 156, 1044]

    def test_filtered_matches_atlas_oracle(self, corpus_p5c4):
        # induced P5- and C4-freeness decided by networkx's GraphMatcher
        forbidden = [nx.path_graph(5), nx.cycle_graph(4)]
        expected = [0] * 8
        for h in nx.graph_atlas_g():
            if not any(GraphMatcher(h, f).subgraph_is_isomorphic() for f in forbidden):
                expected[h.number_of_nodes()] += 1
        found = [0] * 8
        for g in corpus_p5c4:
            found[g.n] += 1
        assert found[1:] == expected[1:] == [1, 2, 4, 10, 27, 87, 308]

    def test_range_mode(self):
        total = sum(1 for _ in enumerate_graphs(CorpusSpec("exhaustive", 1, 4)))
        assert total == 1 + 2 + 4 + 11

    def test_filtered_matches_post_filter(self):
        flt = PatternFilter(family=(PatternSpec.path(4),), induced=True)
        spec = CorpusSpec("exhaustive", 1, 5, filters=(flt,))
        filtered = list(enumerate_graphs(spec))
        spec_all = CorpusSpec("exhaustive", 1, 5)
        expected = [g for g in enumerate_graphs(spec_all) if flt.admits(g)]
        assert {canonical_key(g) for g in filtered} == {
            canonical_key(g) for g in expected
        }

    def test_subgraph_filter(self):
        flt = PatternFilter(family=(PatternSpec.kdt(1, 4),), induced=False)
        spec = CorpusSpec("exhaustive", 1, 6, filters=(flt,))
        graphs = list(enumerate_graphs(spec))
        # K_1(4) as a subgraph is any 4 vertices, so members have n <= 3
        assert all(g.n <= 3 for g in graphs)
        assert len(graphs) == 1 + 2 + 4

    @pytest.mark.parametrize("text", ["free:complete:n=100000", "nosub:uniformtree:zeta=50,eta=50"])
    def test_pattern_larger_than_the_host_is_never_built(self, monkeypatch, text):
        # it cannot occur, so the filter admits every graph on 1..3 vertices;
        # building it would take minutes and gigabytes, so building fails
        for module in (chibound.patterns, chibound.corpus):
            monkeypatch.setattr(
                module, "make_pattern", lambda spec: pytest.fail(f"built {spec}"), raising=False
            )
        spec = parse_corpus_spec(f"exhaustive:n=1..3,filters={text}")
        start = time.perf_counter()
        graphs = list(enumerate_graphs(spec))
        assert all(spec.filters[0].admits(g) for g in graphs)
        assert time.perf_counter() - start < 1.0
        assert len(graphs) == 1 + 2 + 4

    def test_filter_order_independent(self):
        f1 = PatternFilter(family=(PatternSpec.path(5),), induced=True)
        f2 = PatternFilter(family=(PatternSpec.cycle(4),), induced=True)
        a = [
            write_graph6(g)
            for g in enumerate_graphs(CorpusSpec("exhaustive", 1, 6, filters=(f1, f2)))
        ]
        b = [
            write_graph6(g)
            for g in enumerate_graphs(CorpusSpec("exhaustive", 1, 6, filters=(f2, f1)))
        ]
        assert a == b

    def test_deterministic_stream(self):
        spec = CorpusSpec("exhaustive", 1, 5)
        a = [write_graph6(g) for g in enumerate_graphs(spec)]
        b = [write_graph6(g) for g in enumerate_graphs(spec)]
        assert a == b

    @pytest.mark.parametrize(
        "corpus, count, digest",
        [
            (
                "corpus_all",
                1252,
                "9701eab755be7693d0f64a5dbf0fe67ab3917e7e402028802f12a41bf542510a",
            ),
            (
                "corpus_p5c4",
                439,
                "546919660502efc2511da800a682bab2b41a94c677867f3e122e5e15efb9cd4d",
            ),
        ],
        ids=["all", "p5c4"],
    )
    def test_stream_digest(self, request, corpus, count, digest):
        # pins the representatives and their order: SHA-256 over one
        # graph6 line per yielded graph
        lines = [write_graph6(g) + "\n" for g in request.getfixturevalue(corpus)]
        assert len(lines) == count
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest

    def test_caps(self):
        with pytest.raises(CapExceeded):
            list(enumerate_graphs(CorpusSpec("exhaustive", 1, 11)))
        with pytest.raises(ValueError, match="dedup"):
            list(enumerate_graphs(CorpusSpec("exhaustive", 1, 5, dedup=True)))


class TestRandomMode:
    def test_seed_determinism(self):
        spec = CorpusSpec("random", 5, 5, edge_prob=0.5, count=10, seed=7, dedup=False)
        a = [write_graph6(g) for g in enumerate_graphs(spec)]
        b = [write_graph6(g) for g in enumerate_graphs(spec)]
        assert a == b and len(a) == 10

    def test_different_seeds_differ(self):
        base = dict(mode="random", n_min=8, n_max=8, edge_prob=0.5, count=5, dedup=False)
        a = [write_graph6(g) for g in enumerate_graphs(CorpusSpec(seed=1, **base))]
        b = [write_graph6(g) for g in enumerate_graphs(CorpusSpec(seed=2, **base))]
        assert a != b

    def test_filters_drop_nonmembers(self):
        flt = PatternFilter(family=(PatternSpec.cycle(4),), induced=True)
        spec = CorpusSpec(
            "random", 6, 6, edge_prob=0.5, count=50, seed=3, filters=(flt,), dedup=False
        )
        for g in enumerate_graphs(spec):
            assert flt.admits(g)

    def test_dedup_yields_one_graph_per_class(self):
        text = "random:n=6,p=0.4,count=300,seed=5,dedup=1,filters=free:path:k=4"
        spec = parse_corpus_spec(text)
        assert spec.dedup and str(spec) == text
        found = list(enumerate_graphs(spec))
        assert len(found) > 10
        for g in found:
            assert all(f.admits(g) for f in spec.filters)
        nx_graphs = [to_networkx(g) for g in found]
        for i, a in enumerate(nx_graphs):
            for b in nx_graphs[i + 1 :]:
                assert not nx.is_isomorphic(a, b)
        # the same draws without dedup repeat classes, and every one of
        # them is isomorphic to a graph kept
        raw = list(enumerate_graphs(parse_corpus_spec(text.replace("dedup=1", "dedup=0"))))
        assert len(raw) > len(found)
        for g in raw:
            assert any(nx.is_isomorphic(to_networkx(g), b) for b in nx_graphs)

    def test_dedup_cap(self):
        spec = parse_corpus_spec(f"random:n={DEDUP_MAX_N + 1},count=1,dedup=1")
        with pytest.raises(CapExceeded):
            list(enumerate_graphs(spec))


class TestGrammar:
    def test_pattern_round_trip(self):
        for text in [
            "broom:t=2,k=2",
            "flag:p=3",
            "bplus:p=2,k=2,t=3",
            "kdt:d=3,t=2",
            "path:k=6",
            "uniformtree:zeta=2,eta=2",
        ]:
            spec = parse_pattern(text)
            assert str(spec) == text

    def test_pattern_round_trip_every_kind(self):
        specs = [
            PatternSpec.path(4),
            PatternSpec.cycle(5),
            PatternSpec.complete(3),
            PatternSpec.star(3),
            PatternSpec.broom(2, 1),
            PatternSpec.flag(2),
            PatternSpec.two_arm_star(6, 2),
            PatternSpec.bplus(2, 3, 4),
            PatternSpec.kdt(3, 2),
            PatternSpec.biclique(2, 3),
            PatternSpec.uniform_tree(3, 2),
        ]
        assert {spec.kind for spec in specs} == set(PATTERN_KINDS)
        for spec in specs:
            assert parse_pattern(str(spec)) == spec

    def test_pattern_errors(self):
        with pytest.raises(ValueError):
            parse_pattern("broom:t=2")
        with pytest.raises(ValueError):
            parse_pattern("frobnicate:x=1")
        with pytest.raises(ValueError, match="unknown parameter 'z'"):
            parse_pattern("path:k=4,z=9")
        with pytest.raises(ValueError, match="repeated parameter 'k'"):
            parse_pattern("path:k=4,k=5")

    def test_corpus_exact(self):
        spec = parse_corpus_spec("exhaustive:n=4")
        assert spec.n_min == spec.n_max == 4 and not spec.dedup

    def test_corpus_range_with_filters(self):
        spec = parse_corpus_spec(
            "exhaustive:n=1..9,filters=H:p=2+free:bplus:p=2,k=2,t=3"
        )
        assert spec.n_min == 1 and spec.n_max == 9
        assert len(spec.filters) == 2
        assert spec.filters[0].family == (PatternSpec.cycle(4), PatternSpec.flag(2))
        assert spec.filters[1].family == (PatternSpec.bplus(2, 2, 3),)

    def test_corpus_round_trip(self):
        for text in [
            "exhaustive:n=4",
            "random:n=8,p=0.25,count=50,seed=9",
            "random:n=8,p=0.25,count=50,seed=9,dedup=1",
            "exhaustive:n=4,filters=H:p=2",
            "exhaustive:n=1..9,filters=H:p=3+free:bplus:p=2,k=2,t=3",
            "exhaustive:n=1..5,filters=free:cycle:k=4+free:flag:p=2",
            "exhaustive:n=1..5,filters=nosub:kdt:d=1,t=5",
        ]:
            spec = parse_corpus_spec(text)
            assert str(spec) == text
            assert parse_corpus_spec(str(spec)) == spec

    def test_omitted_random_fields_take_the_spec_defaults(self):
        spec = parse_corpus_spec("random:n=5")
        assert spec == CorpusSpec("random", 5, 5)
        assert str(spec) == str(CorpusSpec("random", 5, 5))

    def test_random_mode_takes_one_n(self):
        with pytest.raises(ValueError, match="one vertex count"):
            CorpusSpec("random", 1, 8, count=2)
        with pytest.raises(ValueError, match="one vertex count"):
            parse_corpus_spec("random:n=5..6")
        spec = CorpusSpec("random", 8, 8, count=2)
        assert parse_corpus_spec(str(spec)) == spec
        assert [g.n for g in enumerate_graphs(spec)] == [8, 8]

    def test_exhaustive_mode_takes_no_sampling_fields(self):
        # such a spec would print as plain exhaustive and not parse back to itself
        for extra in [dict(count=5), dict(seed=3), dict(edge_prob=0.2), dict(dedup=True)]:
            with pytest.raises(ValueError, match="exhaustive mode takes no"):
                CorpusSpec("exhaustive", 1, 3, **extra)
        # nor would a field of the wrong type, in either mode
        for fields, match in [
            (dict(mode="exhaustive", n_min=True, n_max=3), "n_min must be an int"),
            (dict(mode="random", n_min=3, n_max=3.0), "n_max must be an int"),
            (dict(mode="random", n_min=3, n_max=3, count=2.5), "count must be an int"),
            (dict(mode="random", n_min=3, n_max=3, seed="x"), "seed must be an int"),
            (dict(mode="random", n_min=3, n_max=3, edge_prob=True), "must be a number"),
            (dict(mode="random", n_min=3, n_max=3, dedup=1), "dedup must be a bool"),
        ]:
            with pytest.raises(ValueError, match=match):
                CorpusSpec(**fields)
        spec = CorpusSpec("exhaustive", 1, 3)
        assert parse_corpus_spec(str(spec)) == spec

    def test_filter_builds_its_patterns(self):
        # a pattern that cannot be built is refused when its spec is made,
        # before any filter holds it
        for kind, values, match in [
            ("foo", (), "unknown pattern kind"),
            ("path", (0,), "k must be an int >= 1"),
            ("path", (4, 4), "takes a tuple of values for"),
            ("bplus", (2, 2, 2), "t must be an int >= 3"),
            ("path", (True,), "k must be an int"),
            ("path", (2.0,), "k must be an int"),
            ("path", ("3",), "k must be an int"),
        ]:
            with pytest.raises(ValueError, match=match):
                PatternFilter(family=(PatternSpec(kind, values),), induced=True)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus mode"):
            CorpusSpec("foo", 3, 3)

    def test_filter_family_must_print(self):
        # two patterns print as two filters, and an empty family as "filters="
        for family, induced in [
            ((PatternSpec.path(4), PatternSpec.cycle(5)), True),
            ((), True),
            (c4_flag_family(2), False),
        ]:
            with pytest.raises(ValueError, match="one pattern or class H"):
                PatternFilter(family=family, induced=induced)
        flt = PatternFilter(family=c4_flag_family(2), induced=True)
        spec = CorpusSpec("exhaustive", 1, 4, filters=(flt,))
        assert parse_corpus_spec(str(spec)) == spec

    @pytest.mark.parametrize(
        "item", ["path", make_pattern(PatternSpec.path(4)), None, ("path", 4)], ids=repr
    )
    def test_filter_family_holds_pattern_specs(self, item):
        with pytest.raises(ValueError, match="holds PatternSpecs"):
            PatternFilter(family=(item,), induced=True)

    @pytest.mark.parametrize(
        "item", ["free:path:k=4", None, PatternSpec.path(4), (PatternSpec.path(4),)], ids=repr
    )
    def test_corpus_filters_are_pattern_filters(self, item):
        with pytest.raises(ValueError, match="are PatternFilters"):
            CorpusSpec("exhaustive", 1, 3, filters=(item,))

    @pytest.mark.parametrize("induced", ["no", 1, 0, None], ids=repr)
    def test_filter_induced_is_a_bool(self, induced):
        with pytest.raises(ValueError, match="induced must be a bool"):
            PatternFilter(family=(PatternSpec.path(4),), induced=induced)

    def test_filter_and_spec_sequences_become_tuples(self):
        for family in ([PatternSpec.path(4)], list(c4_flag_family(2))):
            flt = PatternFilter(family=family, induced=True)
            spec = CorpusSpec("exhaustive", 1, 3, filters=[flt])
            assert flt.family == tuple(family) and spec.filters == (flt,)
            back = parse_corpus_spec(str(spec))
            assert back == spec and hash(back) == hash(spec)

    def test_corpus_random(self):
        spec = parse_corpus_spec("random:n=8,p=0.25,count=50,seed=9")
        assert spec.mode == "random" and spec.edge_prob == 0.25 and spec.seed == 9

    def test_nosub_filter(self):
        spec = parse_corpus_spec("exhaustive:n=1..5,filters=nosub:kdt:d=1,t=5")
        assert spec.filters[0].induced is False

    def test_corpus_errors(self):
        with pytest.raises(ValueError):
            parse_corpus_spec("exhaustive:m=4")
        with pytest.raises(ValueError):
            parse_corpus_spec("sideways:n=4")
        with pytest.raises(ValueError, match="'n'"):
            parse_corpus_spec("random:p=0.5")
        with pytest.raises(ValueError, match="'p'"):
            parse_corpus_spec("exhaustive:n=4,filters=H:q=2")
        with pytest.raises(ValueError, match="'p'"):
            parse_corpus_spec("exhaustive:n=4,filters=H")

    @pytest.mark.parametrize(
        "text",
        [
            "random:n=8,prob=0.3",
            "exhaustive:n=4,dedup=no",
            "random:n=8,p=0.3,dedup=yes",
            "exhaustive:n=4,n=5",
            "exhaustive:n=4,seed=3",
            "random:n=8,p=1.5",
            "random:n=8,count=-3",
            "exhaustive:n=5..3",
            "exhaustive:n=1..7,dedup=0",
            "exhaustive:n=4..",
            "exhaustive:n=4,filters=",
            "exhaustive:n=4,filters=+",
            "exhaustive:n=1..5,filters=free:path:k=4++free:cycle:k=4",
            "random:n=6,filters=H:p=2+",
        ],
    )
    def test_corpus_rejects_unreadable(self, text):
        with pytest.raises(ValueError):
            parse_corpus_spec(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("exhaustive:n=4..", "n must be an int, got '' in 'exhaustive:n=4..'"),
            ("exhaustive:n=2.5..4", "n must be an int, got '2.5' in 'exhaustive:n=2.5..4'"),
            ("random:n=8,count=1.5", "count must be an int, got '1.5' in 'random:n=8,count=1.5'"),
            ("random:n=8,seed=0x7", "seed must be an int, got '0x7' in 'random:n=8,seed=0x7'"),
            ("random:n=8,p=half", "p must be a number, got 'half' in 'random:n=8,p=half'"),
            ("random:n=8,dedup=yes", "dedup must be 0 or 1, got 'yes' in 'random:n=8,dedup=yes'"),
            ("exhaustive:n=4,filters=H:p=two", "p must be an int, got 'two' in 'H:p=two'"),
            (
                "exhaustive:n=4,filters=free:path:k=4.0",
                "k must be an int, got '4.0' in 'path:k=4.0'",
            ),
        ],
    )
    def test_unreadable_value_names_its_key_and_spec(self, text, message):
        # one reader takes every value in the grammar: its message names
        # the key and quotes the spec or filter being read
        with pytest.raises(ValueError) as caught:
            parse_corpus_spec(text)
        assert str(caught.value) == message
