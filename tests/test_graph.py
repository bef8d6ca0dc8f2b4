import random
from enum import IntEnum
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from chibound.corpus import CorpusSpec, read_graph6, write_graph6
from chibound.patterns import Occurrence, PatternSpec, make_pattern, validate_occurrence
from chibound.structures import in_class_H
from chibound.graph import (
    Graph,
    _t_connected_mask,
    bfs_layers,
    build_graph,
    components_masks,
    degeneracy,
    induced,
    is_t_connected,
    iter_bits,
    mask_of,
)

from helpers import (
    bfs_distances,
    brute_force_is_t_connected,
    complete_graph,
    cycle_graph,
    graphs,
    path_graph,
    random_graph,
    reference_degeneracy,
)


class TestIterBits:
    @given(mask=st.integers(min_value=0, max_value=(1 << 70) - 1))
    def test_ascending_set_bits(self, mask):
        assert iter_bits(mask) == [v for v in range(mask.bit_length()) if mask >> v & 1]


class TestGraphEquality:
    # patterns._plans finds a pattern's search plans by this contract,
    # whichever _fitting entry built the pattern graph
    @settings(max_examples=80)
    @given(g=graphs(max_n=10, min_n=0), data=st.data())
    def test_copies_are_one_key_and_one_edge_apart_are_two(self, g, data):
        edges = data.draw(st.permutations(g.edges()))
        copies = [
            build_graph(g.n, edges),
            read_graph6(write_graph6(g)),
            g.complement().complement(),
            induced(g, range(g.n))[0],
            Graph(tuple(g.adj)),
        ]
        for h in copies:
            assert h == g and hash(h) == hash(g)
        assert len({g, *copies}) == 1
        if g.n >= 2:
            u, v = data.draw(st.sampled_from(list(combinations(range(g.n), 2))))
            flipped = build_graph(g.n, set(g.edges()) ^ {(u, v)})
            assert all(flipped != h for h in [g, *copies])
            assert len({g, flipped}) == 2


class TestBuildGraph:
    def test_p3_degrees(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.max_degree() == 0

    def test_c4_all_degree_two(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(g.degree(v) == 2 for v in range(4))

    def test_duplicate_edges_merged(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "n, edges", [(True, []), (3.0, []), (3, [(True, 2)]), (3, [(0, 1.0)]), (3, [(1, False)])]
    )
    def test_non_int_count_or_id_rejected(self, n, edges):
        with pytest.raises(ValueError):
            build_graph(n, edges)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])

    def test_adjacency_symmetric(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(8, 0.4, rng)
            for u in range(8):
                for v in range(8):
                    assert g.has_edge(u, v) == g.has_edge(v, u)


class TestLayers:
    """Distance layers of the whole graph from one vertex, as bit masks."""

    def test_p4_from_endpoint(self):
        g = path_graph(4)
        assert bfs_layers(g, 1 << 0, g.full_mask()) == [0b1, 0b10, 0b100, 0b1000]

    def test_k4_single_layer(self):
        g = complete_graph(4)
        assert bfs_layers(g, 1 << 0, g.full_mask()) == [0b1, 0b1110]

    def test_disjoint_edges_unreachable(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        found = bfs_layers(g, 1 << 0, g.full_mask())
        assert found == [0b1, 0b10]
        assert g.full_mask() & ~sum(found) == 0b1100

    def test_against_bfs_distances(self):
        # layer i must be exactly the set at shortest-path distance i
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 50)
            g = random_graph(n, rng.choice([0.05, 0.1, 0.3]), rng)
            src = rng.randrange(n)
            found = bfs_layers(g, 1 << src, g.full_mask())
            dist = bfs_distances(g, src)
            for i in range(n):
                expected = mask_of(v for v in range(n) if dist[v] == i)
                assert (found[i] if i < len(found) else 0) == expected
            assert g.full_mask() & ~sum(found) == mask_of(v for v in range(n) if dist[v] < 0)


class TestInduced:
    def test_c5_minus_vertex_is_p4(self):
        g = cycle_graph(5)
        sub, vmap = induced(g, [0, 1, 2, 3])
        assert vmap == (0, 1, 2, 3)
        assert sub.edge_count() == 3
        assert sorted(sub.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_k5_triple_is_triangle(self):
        sub, _ = induced(complete_graph(5), [1, 3, 4])
        assert sub.n == 3 and sub.edge_count() == 3

    def test_full_set_is_identity(self):
        g = cycle_graph(6)
        sub, vmap = induced(g, range(6))
        assert sub == g
        assert vmap == tuple(range(6))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induced(path_graph(3), [0, 5])

    def test_map_points_back_to_host_edges(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(9, 0.4, rng)
            subset = [v for v in range(9) if rng.random() < 0.6]
            sub, vmap = induced(g, subset)
            for i in range(sub.n):
                for j in range(i + 1, sub.n):
                    assert sub.has_edge(i, j) == g.has_edge(vmap[i], vmap[j])


class TestComponents:
    def test_two_triangles(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert components_masks(g, g.full_mask()) == [0b111, 0b111000]

    def test_k1(self):
        assert components_masks(build_graph(1, []), 0b1) == [0b1]

    def test_p5_single_component(self):
        g = path_graph(5)
        assert components_masks(g, g.full_mask()) == [g.full_mask()]

    def test_ordered_by_smallest_member(self):
        g = build_graph(5, [(1, 3), (0, 4)])
        comps = components_masks(g, g.full_mask())
        assert comps == [0b10001, 0b1010, 0b100]


class TestBfsLayers:
    """The bitset BFS inside a ``within`` set against per-vertex BFS on the
    induced subgraph."""

    def test_layers_match_distance_oracle(self):
        rng = random.Random(11)
        start_outside = 0
        for _ in range(200):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.15, 0.3, 0.5]), rng)
            within = rng.getrandbits(n)
            start = rng.getrandbits(n)
            start_outside += bool(start & ~within)
            sub, vmap = induced(g, [v for v in range(n) if within >> v & 1])
            dist = [-1] * sub.n
            for i, v in enumerate(vmap):
                if start >> v & 1:
                    for j, d in enumerate(bfs_distances(sub, i)):
                        if d >= 0 and (dist[j] < 0 or d < dist[j]):
                            dist[j] = d
            expected = [0] * (max(dist, default=-1) + 1)
            for j, d in enumerate(dist):
                if d >= 0:
                    expected[d] |= 1 << vmap[j]
            assert bfs_layers(g, start, within) == expected
        assert start_outside > 50

    def test_components_masks_match_oracle(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.15, 0.3, 0.5]), rng)
            within = rng.getrandbits(n)
            sub, vmap = induced(g, [v for v in range(n) if within >> v & 1])
            expected = []
            covered: set[int] = set()
            for i in range(sub.n):
                if i in covered:
                    continue
                members = {j for j, d in enumerate(bfs_distances(sub, i)) if d >= 0}
                covered |= members
                expected.append(sum(1 << vmap[j] for j in members))
            assert components_masks(g, within) == expected


class TestTConnectivity:
    def test_c5_is_2_connected(self):
        assert is_t_connected(cycle_graph(5), 2)

    def test_p4_not_2_connected(self):
        assert not is_t_connected(path_graph(4), 2)

    def test_k4(self):
        g = complete_graph(4)
        assert is_t_connected(g, 3)
        assert not is_t_connected(g, 4)  # |V| >= t+1 fails

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            is_t_connected(path_graph(2), 0)

    def test_matches_brute_force_cuts(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
            for t in range(1, 5):
                assert is_t_connected(g, t) == brute_force_is_t_connected(g, t), (
                    g.edges(),
                    t,
                )

    def test_complete_graphs_brute(self):
        for n in range(2, 8):
            g = complete_graph(n)
            for t in range(1, n + 1):
                assert is_t_connected(g, t) == brute_force_is_t_connected(g, t)

    def test_cut_vertex_of_minimum_degree(self):
        # vertex 0 has minimum degree and is the only cut vertex: the cut
        # is seen only between nonadjacent neighbors of 0, one in each K5
        left, right = range(1, 6), range(6, 11)
        edges = [(u, v) for side in (left, right) for u in side for v in side if u < v]
        edges += [(0, 1), (0, 2), (0, 6), (0, 7)]
        g = build_graph(11, edges)
        assert is_t_connected(g, 1)
        assert not is_t_connected(g, 2)
        assert not brute_force_is_t_connected(g, 2)

    def test_masks_match_brute_force_cuts(self):
        # induced subgraphs on random masks, without relabeling, against
        # cut enumeration on the relabeled induced subgraph
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(2, 12)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.7, 0.9]), rng)
            some = rng.getrandbits(n) | 1 << rng.randrange(n)
            mask = rng.choice([g.full_mask(), some])
            sub, _ = induced(g, iter_bits(mask))
            for t in range(1, 6):
                expected = brute_force_is_t_connected(sub, t)
                assert _t_connected_mask(g, mask, t) == expected, (g.edges(), mask, t)

    def test_matches_networkx_node_connectivity(self):
        # t up to 10 on up to 40 vertices: a method exponential in t
        # would not finish
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(20, 40)
            p = rng.choice([0.3, 0.5, 0.7, 0.9])
            nx_graph = nx.gnp_random_graph(n, p, seed=rng.randrange(10**6))
            g = build_graph(n, nx_graph.edges())
            kappa = nx.node_connectivity(nx_graph)
            for t in range(1, 11):
                assert is_t_connected(g, t) == (kappa >= t), (n, p, t)


class TestDegeneracy:
    def test_tree_is_1_degenerate(self):
        g = build_graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        assert degeneracy(g)[0] == 1

    def test_cycles_are_2_degenerate(self):
        for n in (3, 5, 8):
            assert degeneracy(cycle_graph(n))[0] == 2

    def test_complete(self):
        for n in (1, 4, 7):
            assert degeneracy(complete_graph(n))[0] == n - 1

    def test_elimination_order_replay(self):
        # replaying the order must never expose more than d later neighbors
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]), rng)
            d, order = degeneracy(g)
            assert sorted(order) == list(range(g.n))
            position = {v: i for i, v in enumerate(order)}
            for v in order:
                later = sum(1 for w in g.neighbors(v) if position[w] > position[v])
                assert later <= d

    def test_matches_reference_peel_at_solver_sizes(self):
        # n = 30..40, the sizes the dense chi checks peel
        rng = random.Random(37)
        for _ in range(12):
            g = random_graph(rng.randint(30, 40), rng.choice([0.2, 0.5, 0.8]), rng)
            assert degeneracy(g) == reference_degeneracy(g), g.edges()

    @settings(max_examples=80)
    @given(g=graphs(max_n=14, min_n=0))
    def test_matches_reference_peel(self, g):
        d, order = degeneracy(g)
        assert (d, order) == reference_degeneracy(g)
        position = {v: i for i, v in enumerate(order)}
        later = [
            sum(1 for w in g.neighbors(v) if position[w] > position[v]) for v in order
        ]
        assert max(later, default=0) == d


class _One(IntEnum):
    ONE = 1


class _Int(int):
    pass


@pytest.mark.parametrize("one", [_One.ONE, _Int(1)], ids=["IntEnum", "int subclass"])
@pytest.mark.parametrize(
    "boundary",
    [
        "build_graph",
        "PatternSpec",
        "is_t_connected",
        "CorpusSpec",
        "validate_occurrence",
        "in_class_H",
    ],
)
def test_int_rule_refuses_int_subclasses(boundary, one):
    # an int is exactly an int: each boundary takes a plain 1 here
    edge = build_graph(2, [(0, 1)])
    point = make_pattern(PatternSpec.path(1))
    call = {
        "build_graph": lambda v: build_graph(v, []),
        "PatternSpec": PatternSpec.path,
        "is_t_connected": lambda v: is_t_connected(edge, v),
        "CorpusSpec": lambda v: CorpusSpec("exhaustive", v, 3),
        "validate_occurrence": lambda v: validate_occurrence(edge, point, Occurrence((v,), True)),
        "in_class_H": lambda v: in_class_H(edge, v),
    }[boundary]
    assert call(1)
    if boundary == "validate_occurrence":
        assert not call(one)
    else:
        with pytest.raises(ValueError, match="must be an int"):
            call(one)
