import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from chibound import solvers
from chibound.graph import CapExceeded, Graph, build_graph, degeneracy, induced, iter_bits, mask_of
from chibound.patterns import PatternSpec, find_induced, make_pattern
from chibound.solvers import (
    Coloring,
    _dsatur,
    _greedy,
    _rank_relabel,
    _two_colour,
    chi_of_subset,
    chromatic_number,
    clique_number,
    independence_number,
)

from helpers import (
    brute_force_chromatic,
    brute_force_clique,
    complete_graph,
    cycle_graph,
    graphs,
    ilp_colorable,
    mycielskian,
    path_graph,
    petersen_graph,
    random_graph,
    reference_dsatur,
)


class TestCliqueNumber:
    def test_c5(self):
        assert clique_number(cycle_graph(5))[0] == 2

    def test_k3_of_2(self):
        g = make_pattern(PatternSpec.kdt(3, 2))
        assert clique_number(g)[0] == 3

    def test_petersen_triangle_free(self):
        g = petersen_graph()
        # brute force over all triples finds no triangle
        assert not any(
            g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            for a, b, c in combinations(range(10), 3)
        )
        assert clique_number(g)[0] == 2

    def test_witness_is_clique(self):
        rng = random.Random(17)
        for _ in range(50):
            g = random_graph(rng.randint(1, 11), rng.choice([0.3, 0.6, 0.9]), rng)
            size, members = clique_number(g)
            assert len(members) == size
            assert all(g.has_edge(u, v) for u, v in combinations(sorted(members), 2))
            assert size == brute_force_clique(g)

    def test_deterministic_witness(self):
        g = petersen_graph()
        assert clique_number(g) == clique_number(g)


class TestChromaticNumber:
    def test_c5(self):
        chi, coloring = chromatic_number(cycle_graph(5))
        assert chi == 3 and coloring.is_proper(cycle_graph(5))

    def test_k4_of_3(self):
        g = make_pattern(PatternSpec.kdt(4, 3))
        assert chromatic_number(g)[0] == 4

    def test_petersen(self):
        g = petersen_graph()
        # exhaustive scan: no proper 2-coloring exists
        found_2 = any(
            all(c[u] != c[v] for u, v in g.edges())
            for c in product(range(2), repeat=10)
        )
        assert not found_2
        chi, coloring = chromatic_number(g)
        assert chi == 3 and coloring.is_proper(g)

    def test_empty_and_edgeless(self):
        assert chromatic_number(build_graph(0, []))[0] == 0
        assert chromatic_number(build_graph(5, []))[0] == 1

    def test_cap_refusal(self):
        g = build_graph(41, [(0, 1)])
        with pytest.raises(CapExceeded):
            chromatic_number(g)
        with pytest.raises(CapExceeded):
            chromatic_number(build_graph(41, []))

    def test_matches_brute_force(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8]), rng)
            chi, coloring = chromatic_number(g)
            assert coloring.is_proper(g)
            assert chi == brute_force_chromatic(g), g.edges()

    @pytest.mark.parametrize("k,n,chi", [(3, 5, 3), (4, 11, 4), (5, 23, 5)])
    def test_mycielski(self, k, n, chi):
        # M_k is triangle-free with chi = k, past brute-force reach for k = 5
        g = complete_graph(2)
        for _ in range(k - 2):
            g = mycielskian(g)
        assert g.n == n and clique_number(g)[0] == 2
        value, coloring = chromatic_number(g)
        assert value == chi
        assert coloring.is_proper(g) and coloring.count == chi

    @pytest.mark.parametrize("k", range(2, 10))
    def test_odd_cycle_complement(self, k):
        # the complement of C_{2k+1} has omega = k and chi = k + 1
        g = cycle_graph(2 * k + 1).complement()
        assert clique_number(g)[0] == k
        value, coloring = chromatic_number(g)
        assert value == k + 1
        assert coloring.is_proper(g) and coloring.count == k + 1

    def test_dsatur_refutes_exactly(self):
        # for every k from omega to n: a coloring iff chi <= k
        rng = random.Random(53)
        for _ in range(40):
            g = random_graph(rng.randint(1, 8), rng.choice([0.3, 0.5, 0.8]), rng)
            chi = brute_force_chromatic(g)
            omega, clique = clique_number(g)
            for k in range(omega, g.n + 1):
                colors = _dsatur(list(g.adj), k, sorted(clique))
                assert (colors is not None) == (chi <= k), (g.edges(), k)
                if colors is not None:
                    assert Coloring(tuple(colors), max(colors) + 1).is_proper(g)
                    assert max(colors) < k
                    assert [colors[v] for v in sorted(clique)] == list(range(omega))

    @staticmethod
    def reference_witness(g):
        # the greedy first descent, then k = omega, omega + 1, ... with the
        # clique witness precolored, each by the plain search
        greedy = reference_dsatur(g, g.n)
        omega, clique = clique_number(g)
        ks = range(omega, max(greedy, default=-1) + 1)
        exact = (reference_dsatur(g, k, sorted(clique)) for k in ks)
        return next(filter(None, exact), greedy)

    @settings(max_examples=100)
    @given(g=graphs(max_n=12))
    def test_witness_matches_reference_search(self, g):
        assert chromatic_number(g)[1].colors == self.reference_witness(g)

    def test_witness_matches_reference_search_past_brute_force(self):
        # n = 26..30 needs refutations deep enough to expose search state
        # left behind by a failed branch
        rng = random.Random(61)
        for _ in range(20):
            g = random_graph(rng.randint(26, 30), rng.choice([0.3, 0.5, 0.7]), rng)
            assert chromatic_number(g)[1].colors == self.reference_witness(g)

    def test_witness_matches_reference_search_on_sparse_graphs(self):
        # chi <= 3 at n = 30..40: trees, even and odd cycles and bipartite
        # G(n, p), where the greedy count is already exact
        rng = random.Random(71)
        for _ in range(12):
            n = rng.randint(30, 40)
            tree = build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
            side = [rng.random() < 0.5 for _ in range(n)]
            bipartite = build_graph(n, [
                (u, v) for u, v in combinations(range(n), 2)
                if side[u] != side[v] and rng.random() < 0.15
            ])
            for g in (tree, cycle_graph(n), bipartite):
                chi, coloring = chromatic_number(g)
                assert chi <= 3 and coloring.colors == self.reference_witness(g)

    def test_edgeless_witness_matches_reference_search(self):
        # the greedy loop colors every vertex 0, as the search does; up to the cap
        for n in range(solvers.CHI_MAX_N + 1):
            g = build_graph(n, [])
            chi, coloring = chromatic_number(g)
            assert chi == coloring.count == min(n, 1)
            assert coloring.colors == reference_dsatur(g, n)
            assert coloring.colors == self.reference_witness(g)

    def test_witness_color_count(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(8, 0.5, rng)
            chi, coloring = chromatic_number(g)
            assert coloring.count == chi
            assert len(set(coloring.colors)) == chi

    def test_chi_above_omega_matches_ilp(self):
        # an oracle that shares no reasoning with the saturation search:
        # integer programming finds chi colors and refutes chi - 1
        rng = random.Random(83)
        checked = 0
        while checked < 20:
            g = random_graph(rng.randint(20, 30), rng.choice([0.3, 0.5, 0.7]), rng)
            chi, _ = chromatic_number(g)
            omega, clique = clique_number(g)
            if chi == omega:
                continue
            checked += 1
            assert ilp_colorable(g, chi, sorted(clique)), g.edges()
            assert not ilp_colorable(g, chi - 1, sorted(clique)), g.edges()

    @settings(max_examples=80)
    @given(g=graphs(min_n=9, max_n=14))
    def test_chi_matches_ilp_past_brute_force(self, g):
        # 9..14 vertices: past brute force (at most 8), below the seeded
        # ILP check above (20..30)
        chi, _ = chromatic_number(g)
        omega, clique = clique_number(g)
        assert ilp_colorable(g, chi, sorted(clique))
        if chi > omega:
            assert not ilp_colorable(g, chi - 1, sorted(clique))


class TestGreedy:
    @staticmethod
    def ranked(g):
        return _rank_relabel(g.adj, list(range(g.n)), g.full_mask())[1]

    @settings(max_examples=100)
    @given(
        n=st.integers(0, 40),
        p=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_first_descent_of_search(self, n, p, seed):
        adj = self.ranked(random_graph(n, p, random.Random(seed)))
        assert _greedy(adj) == _dsatur(adj, len(adj), [])

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
    def test_complete_and_one_edge_short(self, n):
        # saturation reaches n - 2 here, the most the search allows
        full = complete_graph(n)
        short = build_graph(n, [e for e in full.edges() if e != (0, n - 1)])
        for g in (full, short):
            adj = self.ranked(g)
            assert _greedy(adj) == _dsatur(adj, n, [])
        assert max(_greedy(self.ranked(full))) == n - 1
        assert max(_greedy(self.ranked(short))) == max(n - 2, 0)


class TestColoring:
    def test_is_proper_requires_colors_in_range(self):
        k2 = complete_graph(2)
        assert Coloring((0, 1), 2).is_proper(k2)
        assert not Coloring((-1, 0), 2).is_proper(k2)
        assert not Coloring((0, 5), 2).is_proper(k2)


class TestIndependenceNumber:
    def test_c5(self):
        assert independence_number(cycle_graph(5))[0] == 2

    def test_complete(self):
        assert independence_number(complete_graph(6))[0] == 1

    def test_biclique(self):
        g = make_pattern(PatternSpec.biclique(4, 4))
        assert independence_number(g)[0] == 4

    def test_witness_independent(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_graph(9, 0.5, rng)
            size, members = independence_number(g)
            assert len(members) == size
            assert not any(g.has_edge(u, v) for u, v in combinations(sorted(members), 2))

    def test_equals_complement_clique(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_graph(8, 0.5, rng)
            assert independence_number(g)[0] == clique_number(g.complement())[0]


class TestSandwichInvariants:
    def test_omega_chi_degeneracy_chain(self):
        rng = random.Random(43)
        for _ in range(50):
            g = random_graph(rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]), rng)
            omega = clique_number(g)[0]
            chi = chromatic_number(g)[0]
            assert omega <= chi <= degeneracy(g)[0] + 1

    @settings(max_examples=100)
    @given(g=graphs(max_n=14, min_n=0))
    def test_chain_and_witness(self, g):
        omega = clique_number(g)[0]
        chi, coloring = chromatic_number(g)
        assert omega <= chi <= degeneracy(g)[0] + 1
        assert coloring.is_proper(g) and coloring.count == chi

    def test_p4_free_equality_small(self):
        # P4-free graphs are perfect, so chi equals omega
        rng = random.Random(47)
        p4 = path_graph(4)
        checked = 0
        while checked < 40:
            g = random_graph(rng.randint(1, 6), rng.choice([0.3, 0.6]), rng)
            if find_induced(g, p4) is None:
                assert chromatic_number(g)[0] == clique_number(g)[0], g.edges()
                checked += 1


class TestChiOfSubset:
    def test_empty_subset(self):
        assert chi_of_subset(cycle_graph(5), []) == 0

    def test_subset_of_c5(self):
        assert chi_of_subset(cycle_graph(5), [0, 1, 2]) == 2
        assert chi_of_subset(cycle_graph(5), range(5)) == 3

    # the independent gate for chi_of_subset: validate_balloon and
    # validate_biclique recompute values with chi_of_subset itself
    @settings(max_examples=150)
    @given(g=graphs(max_n=8), data=st.data())
    def test_matches_brute_force(self, g, data):
        keep = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        vertices = [v for v in range(g.n) if keep[v]]
        sub, _ = induced(g, vertices)
        assert chi_of_subset(g, vertices) == brute_force_chromatic(sub)

    @settings(max_examples=150)
    @given(g=graphs(max_n=8), data=st.data())
    def test_two_colouring_matches_brute_force(self, g, data):
        # plant an odd cycle, then ask a random mask, the empty mask and
        # the cycle itself: values <= 2 come from the two-colouring
        order = data.draw(st.permutations(range(g.n)))
        k = data.draw(st.sampled_from([k for k in (3, 5, 7) if k <= g.n] or [0]))
        cycle = order[:k]
        planted = build_graph(g.n, g.edges() + [(cycle[i - 1], cycle[i]) for i in range(k)])
        mask = data.draw(st.integers(0, planted.full_mask()))
        for vertices in (iter_bits(mask), [], cycle):
            chi = brute_force_chromatic(induced(planted, vertices)[0])
            assert chi_of_subset(planted, vertices) == chi
            assert _two_colour(planted.adj, mask_of(vertices)) == (chi if chi <= 2 else None)

    def test_empty_edgeless_and_complete_masks(self):
        rng = random.Random(61)
        for _ in range(25):
            g = random_graph(rng.randint(1, 14), rng.choice([0.2, 0.5, 0.8]), rng)
            _, clique = clique_number(g)
            _, independent = independence_number(g)
            assert chi_of_subset(g, []) == 0
            assert chi_of_subset(g, independent) == 1
            assert chi_of_subset(g, clique) == len(clique)
            assert chi_of_subset(g, range(g.n)) == chromatic_number(g)[0]

    @settings(max_examples=60)
    @given(g=graphs(max_n=8))
    def test_one_on_independent_sets(self, g):
        assert chi_of_subset(g, []) == 0
        for mask in range(1, 1 << g.n):
            vertices = [v for v in range(g.n) if mask >> v & 1]
            if all(not g.has_edge(u, v) for u, v in combinations(vertices, 2)):
                assert chi_of_subset(g, vertices) == 1

    def test_greedy_overshoot_is_refuted(self):
        # the first DSATUR descent uses 4 colors here, but chi is 3
        edges = [(0, 2), (0, 4), (0, 6), (1, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 4), (3, 5)]
        g = build_graph(8, edges)
        _, adj = _rank_relabel(g.adj, range(7), 0x7F)
        assert max(_dsatur(adj, 7, [])) + 1 == 4
        assert chi_of_subset(g, range(7)) == 3 == brute_force_chromatic(g)

    def test_matches_chromatic_number_past_brute_force(self):
        rng = random.Random(67)
        for _ in range(30):
            g = random_graph(rng.randint(16, 24), rng.choice([0.3, 0.5, 0.7]), rng)
            vertices = [v for v in range(g.n) if rng.random() < 0.7]
            sub, _ = induced(g, vertices)
            assert chi_of_subset(g, vertices) == chromatic_number(sub)[0], g.edges()

    def test_bad_input(self):
        with pytest.raises(ValueError):
            chi_of_subset(cycle_graph(5), [0, 5])
        with pytest.raises(ValueError, match="out of range"):
            chi_of_subset(cycle_graph(5), [-1])
        with pytest.raises(CapExceeded):
            chi_of_subset(build_graph(41, []), range(41))


class TestCliqueSharing:
    """The maximum clique of a whole graph is searched once and kept on it."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = solvers._max_clique

        def counted(rows, within):
            calls.append(within)
            return search(rows, within)

        monkeypatch.setattr(solvers, "_max_clique", counted)
        return calls

    @pytest.mark.parametrize("omega_first", [True, False])
    def test_one_search_for_omega_and_chi(self, searches, omega_first):
        rng = random.Random(71)
        for _ in range(10):
            g = random_graph(rng.randint(12, 20), rng.choice([0.5, 0.7]), rng)
            if omega_first:
                omega = clique_number(g)
                chi = chromatic_number(g)
            else:
                chi = chromatic_number(g)
                omega = clique_number(g)
            assert chi[0] > 3  # past the greedy path, so chi needs the clique
            assert searches == [g.full_mask()]
            fresh = Graph(g.adj)
            assert clique_number(fresh) == omega
            assert chromatic_number(Graph(g.adj)) == chi
            searches.clear()

    def test_no_search_for_bipartite_chi(self, searches):
        for g in (cycle_graph(6), path_graph(9), make_pattern(PatternSpec.biclique(3, 4))):
            assert chromatic_number(g)[0] == 2
        assert searches == []
