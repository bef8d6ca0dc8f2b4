import hashlib
import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from chibound.graph import bfs_layers, build_graph, is_connected_mask, iter_bits
from chibound.patterns import (
    PATTERN_KINDS,
    PatternSpec,
    _plans,
    find_induced,
    find_occurrence,
    find_subgraph,
    is_family_free,
    make_pattern,
    validate_occurrence,
)

from helpers import (
    brute_force_occurs,
    brute_force_carriers,
    brute_force_occurs_at,
    brute_force_orbits,
    complete_graph,
    cycle_graph,
    graphs,
    path_graph,
    petersen_graph,
    planted_graph,
    random_graph,
    to_networkx,
)


def mutually_contained(a, b) -> bool:
    """Equal order plus induced containment both ways means isomorphic."""
    if a.n != b.n:
        return False
    return find_induced(a, b) is not None and find_induced(b, a) is not None


class TestConstructors:
    def test_broom_1_1_is_p4(self):
        g = make_pattern(PatternSpec.broom(1, 1))
        assert mutually_contained(g, path_graph(4))

    def test_bplus_vertex_count(self):
        # path of length p+k has p+k+1 vertices, plus t-1 leaves and the pendant
        g = make_pattern(PatternSpec.bplus(2, 2, 3))
        assert g.n == 8
        for p, k, t in [(2, 2, 4), (3, 2, 3), (2, 3, 5)]:
            assert make_pattern(PatternSpec.bplus(p, k, t)).n == p + k + t + 1

    def test_bplus_pendant_sits_at_distance_k(self):
        for p, k, t in [(2, 2, 3), (2, 3, 3), (3, 2, 4)]:
            g = make_pattern(PatternSpec.bplus(p, k, t))
            degree_one = [v for v in range(g.n) if g.degree(v) == 1]
            found = bfs_layers(g, 1 << 0, g.full_mask())
            # the pendant hangs at distance k from the center, so the
            # pendant itself is at k+1
            pendants_at_k1 = [v for v in degree_one if found[k + 1] >> v & 1]
            assert len(pendants_at_k1) >= 1

    def test_kdt_2_2_is_c4(self):
        g = make_pattern(PatternSpec.kdt(2, 2))
        assert mutually_contained(g, cycle_graph(4))

    def test_flag_1_is_paw(self):
        g = make_pattern(PatternSpec.flag(1))
        assert g.n == 4
        assert sorted(g.degree(v) for v in range(4)) == [1, 2, 2, 3]
        triangles = sum(
            1
            for trio in combinations(range(4), 3)
            if all(g.has_edge(u, v) for u, v in combinations(trio, 2))
        )
        assert triangles == 1

    def test_flag_attachment_is_vertex_zero(self):
        g = make_pattern(PatternSpec.flag(3))
        assert g.degree(0) == 3  # two triangle vertices plus the path

    def test_broom_t2_k2_matches_explicit_shape(self):
        built = make_pattern(PatternSpec.broom(2, 2))
        # one vertex of degree t+1=3 carrying two leaves and a pendant path of length 3
        explicit = build_graph(
            6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]
        )
        assert mutually_contained(built, explicit)
        assert built.degree(0) == 3

    def test_star_counts(self):
        g = make_pattern(PatternSpec.star(2))
        assert g.n == 3 and g.degree(0) == 2

    def test_two_arm_star_shape(self):
        g = make_pattern(PatternSpec.two_arm_star(5, 1))
        assert g.n == 1 + 1 + 4 + 1
        assert g.degree(0) == 3  # one pendant leaf plus two arms

    def test_two_arm_star_rejects_small_t(self):
        with pytest.raises(ValueError):
            make_pattern(PatternSpec.two_arm_star(4, 1))

    @pytest.mark.parametrize("zeta,eta", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
    def test_uniform_tree_invariants(self, zeta, eta):
        g = make_pattern(PatternSpec.uniform_tree(zeta, eta))
        assert g.n == sum(zeta**i for i in range(eta + 1))
        found = bfs_layers(g, 1 << 0, g.full_mask())
        leaves = [v for v in range(1, g.n) if g.degree(v) == 1]
        assert leaves == list(iter_bits(found[eta]))
        for v in range(g.n):
            if v == 0:
                assert g.degree(0) == zeta
            elif v not in leaves:
                assert g.degree(v) == zeta + 1  # parent plus zeta children

    def test_parameter_validation(self):
        # a spec below a parameter's minimum is refused when it is made
        for make, args in [
            (PatternSpec.broom, (0, 1)),
            (PatternSpec.broom, (1, 0)),
            (PatternSpec.flag, (0,)),
            (PatternSpec.bplus, (1, 2, 3)),
            (PatternSpec.bplus, (2, 1, 3)),
            (PatternSpec.bplus, (2, 2, 2)),
            (PatternSpec.cycle, (2,)),
            (PatternSpec.uniform_tree, (1, 1)),
        ]:
            with pytest.raises(ValueError, match="must be an int >="):
                make(*args)
        # hand-built specs must carry one value per parameter, as a tuple
        for kind, values in [
            ("path", ()),
            ("path", (4, 9)),
            ("path", [4]),
            ("path", 4),
            ("broom", (2,)),
            ("bplus", (2, 2)),
        ]:
            with pytest.raises(ValueError, match="takes a tuple of values for"):
                PatternSpec(kind, values)
        assert PatternSpec("broom", (2, 3)) == PatternSpec.broom(2, 3)
        assert str(PatternSpec("broom", (2, 3))) == "broom:t=2,k=3"


class TestFindInduced:
    def test_c7_contains_induced_p6(self):
        occ = find_induced(cycle_graph(7), path_graph(6))
        assert occ is not None
        assert validate_occurrence(cycle_graph(7), path_graph(6), occ)

    def test_c6_has_no_induced_p6(self):
        assert find_induced(cycle_graph(6), path_graph(6)) is None

    def test_k4_has_no_induced_c4(self):
        assert find_induced(complete_graph(4), cycle_graph(4)) is None

    def test_petersen_longest_induced_path(self):
        # the Petersen graph contains an induced P5 but no induced P6
        g = petersen_graph()
        assert brute_force_occurs(g, path_graph(5), induced=True)
        occ = find_induced(g, path_graph(5))
        assert occ is not None and validate_occurrence(g, path_graph(5), occ)
        assert not brute_force_occurs(g, path_graph(6), induced=True)
        assert find_induced(g, path_graph(6)) is None

    def test_deterministic_result(self):
        g = petersen_graph()
        h = make_pattern(PatternSpec.cycle(5))
        assert find_induced(g, h) == find_induced(g, h)


class TestFindSubgraph:
    def test_k4_contains_k22(self):
        occ = find_subgraph(complete_graph(4), make_pattern(PatternSpec.biclique(2, 2)))
        assert occ is not None

    def test_c6_has_no_k22_subgraph(self):
        assert find_subgraph(cycle_graph(6), make_pattern(PatternSpec.biclique(2, 2))) is None

    def test_k6_contains_k2_of_3(self):
        occ = find_subgraph(complete_graph(6), make_pattern(PatternSpec.kdt(2, 3)))
        assert occ is not None
        assert validate_occurrence(
            complete_graph(6), make_pattern(PatternSpec.kdt(2, 3)), occ
        )

    def test_edgeless_pattern(self):
        g = complete_graph(3)
        assert find_subgraph(g, make_pattern(PatternSpec.kdt(1, 3))) is not None
        assert find_subgraph(g, make_pattern(PatternSpec.kdt(1, 4))) is None


class TestFindSubgraphPinned:
    """``find_subgraph`` mappings on seeded hosts, pinned by digest:
    multipartite patterns (parts out of size order and interleaved ids
    included), edgeless patterns and two generic ones."""

    # sha256 of the mapping reprs ("None" when absent), hosts outer
    DIGEST = "0a94ecc9a65d642be41409b8fd8f6f4e52b80a3127e5ef5ca3f390ee7a294da3"

    @staticmethod
    def multipartite(parts):
        label = {v: i for i, part in enumerate(parts) for v in part}
        n = len(label)
        return build_graph(
            n, [(u, v) for u, v in combinations(range(n), 2) if label[u] != label[v]]
        )

    def test_mapping_digest(self):
        patterns = [
            make_pattern(PatternSpec.kdt(1, 1)),
            make_pattern(PatternSpec.kdt(1, 4)),
            build_graph(6, []),
            make_pattern(PatternSpec.complete(4)),
            make_pattern(PatternSpec.star(3)),
            make_pattern(PatternSpec.biclique(2, 3)),
            make_pattern(PatternSpec.biclique(3, 1)),
            make_pattern(PatternSpec.kdt(3, 2)),
            self.multipartite([[0, 3], [1], [2, 4, 5]]),
            self.multipartite([[1], [0, 2], [3], [4, 5]]),
            make_pattern(PatternSpec.path(4)),
            make_pattern(PatternSpec.cycle(5)),
        ]
        rng = random.Random(71)
        lines = []
        for _ in range(150):
            g = random_graph(rng.randint(1, 13), rng.choice([0.2, 0.5, 0.8]), rng)
            for h in patterns:
                occ = find_subgraph(g, h)
                assert occ is None or validate_occurrence(g, h, occ)
                lines.append("None" if occ is None else repr(occ.mapping))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST


class TestFamilyFree:
    def test_c5_is_c4_and_paw_free(self):
        ok, occ = is_family_free(
            cycle_graph(5), [PatternSpec.cycle(4), PatternSpec.flag(1)]
        )
        assert ok and occ is None

    def test_c4_detects_itself(self):
        ok, occ = is_family_free(cycle_graph(4), [PatternSpec.cycle(4)])
        assert not ok
        assert validate_occurrence(
            cycle_graph(4), make_pattern(PatternSpec.cycle(4)), occ
        )

    def test_petersen_p6_free_but_not_p5_free(self):
        ok, _ = is_family_free(petersen_graph(), [PatternSpec.path(6)])
        assert ok
        ok, occ = is_family_free(petersen_graph(), [PatternSpec.path(5)])
        assert not ok and occ is not None

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            is_family_free(cycle_graph(4), [])


ZOO_SMALL = [
    PatternSpec.path(4),
    PatternSpec.path(6),
    PatternSpec.cycle(4),
    PatternSpec.cycle(5),
    PatternSpec.complete(4),
    PatternSpec.star(3),
    PatternSpec.broom(2, 2),
    PatternSpec.flag(2),
    PatternSpec.kdt(2, 2),
    PatternSpec.kdt(3, 2),
    PatternSpec.biclique(2, 3),
    PatternSpec.uniform_tree(2, 2),
]


class TestOracleAgreement:
    def test_against_brute_force_small(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(n, rng.choice([0.25, 0.5, 0.75]), rng)
            for spec in ZOO_SMALL:
                h = make_pattern(spec)
                if h.n > n:
                    continue
                for induced_mode in (True, False):
                    expected = brute_force_occurs(g, h, induced=induced_mode)
                    occ = (
                        find_induced(g, h) if induced_mode else find_subgraph(g, h)
                    )
                    assert (occ is not None) == expected, (g.edges(), str(spec), induced_mode)
                    if occ is not None:
                        assert validate_occurrence(g, h, occ)

    def test_anchored_search_consistency(self):
        rng = random.Random(55)
        h = make_pattern(PatternSpec.flag(1))
        for _ in range(40):
            g = random_graph(7, 0.5, rng)
            hit_any = {
                v
                for v in range(7)
                if find_occurrence(g, h, induced=True, require_vertex=v) is not None
            }
            # union over anchors must equal plain reachability
            assert bool(hit_any) == (find_induced(g, h) is not None)
            for v in hit_any:
                occ = find_occurrence(g, h, induced=True, require_vertex=v)
                assert v in occ.mapping and validate_occurrence(g, h, occ)

    def test_anchored_against_brute_force(self):
        # every anchor of every pattern, so a wrongly skipped orbit or a
        # wrong anchor choice shows as a missed occurrence
        rng = random.Random(77)
        hosts = [random_graph(5 + i % 4, rng.choice([0.3, 0.5, 0.7]), rng) for i in range(12)]
        for spec in ANCHOR_ZOO:
            h = make_pattern(spec)
            planted = [planted_graph(h, rng.randint(h.n, 8), 0.5, rng) for _ in range(3)]
            for g in hosts + planted:
                for induced_mode in (True, False):
                    for v in range(g.n):
                        occ = find_occurrence(g, h, induced=induced_mode, require_vertex=v)
                        expected = brute_force_occurs_at(g, h, v, induced_mode)
                        assert (occ is not None) == expected, (g.edges(), str(spec), induced_mode, v)
                        if occ is not None:
                            assert v in occ.mapping and validate_occurrence(g, h, occ)
                            # v carries the smallest pattern vertex it can carry
                            carriers = brute_force_carriers(g, h, v, induced_mode)
                            assert occ.mapping.index(v) == carriers[0]

    @pytest.mark.parametrize("bad", [4, -1, 1.0, True])
    def test_require_vertex_out_of_range(self, bad):
        message = rf"require_vertex {re.escape(repr(bad))}\b.*n=4"
        with pytest.raises(ValueError, match=message):
            find_occurrence(cycle_graph(4), path_graph(3), require_vertex=bad)


ANCHOR_ZOO = ZOO_SMALL + [PatternSpec.flag(3), PatternSpec.bplus(2, 2, 3)]

# at least one pattern of every kind, all with at most 8 vertices
ORBIT_ZOO = ZOO_SMALL + [
    PatternSpec.path(1),
    PatternSpec.path(5),
    PatternSpec.cycle(6),
    PatternSpec.complete(1),
    PatternSpec.broom(1, 1),
    PatternSpec.broom(3, 1),
    PatternSpec.flag(1),
    PatternSpec.flag(3),
    PatternSpec.two_arm_star(5, 1),
    PatternSpec.two_arm_star(5, 2),
    PatternSpec.bplus(2, 2, 3),
    PatternSpec.kdt(1, 3),
    PatternSpec.kdt(2, 4),
    PatternSpec.biclique(1, 1),
    PatternSpec.uniform_tree(2, 1),
    PatternSpec.uniform_tree(3, 1),
]


@pytest.mark.parametrize("spec", ORBIT_ZOO, ids=str)
def test_anchor_plans_cover_one_vertex_per_orbit(spec):
    h = make_pattern(spec)
    anchors = [plan[0][0] for plan in _plans(h, True)]
    assert anchors == [min(orbit) for orbit in brute_force_orbits(h)]


@pytest.mark.parametrize("kind", sorted(PATTERN_KINDS))
def test_plans_start_at_top_degree_and_grow_connected(kind):
    # every kind at small parameters: the unanchored plan starts at the
    # lowest-id vertex of maximum degree; in every plan each step sorts the
    # earlier depths into neighbours and non-neighbours, and on a connected
    # pattern every step after the first has a placed neighbour
    for values in product(*(range(least, least + 3) for least in PATTERN_KINDS[kind][1])):
        h = make_pattern(PatternSpec(kind, values))
        (unanchored,) = _plans(h, False)
        top = h.max_degree()
        assert unanchored[0][0] == min(v for v in range(h.n) if h.degree(v) == top), values
        connected = is_connected_mask(h, h.full_mask())
        for plan in (unanchored, *(_plans(h, True) if h.n <= 12 else ())):
            order = [step[0] for step in plan]
            assert sorted(order) == list(range(h.n)), values
            for depth, (x, degree, nbrs, non) in enumerate(plan):
                assert degree == h.degree(x)
                assert sorted(nbrs + non) == list(range(depth))
                assert all(h.has_edge(x, order[j]) for j in nbrs)
                assert not any(h.has_edge(x, order[j]) for j in non)
                assert nbrs or depth == 0 or not connected, (values, order)


@settings(max_examples=150)
@given(g=graphs(), spec=st.sampled_from(ANCHOR_ZOO), induced=st.booleans())
def test_unanchored_matches_networkx(g, spec, induced):
    # VF2 (Cordella et al. 2004): subgraph isomorphism is the induced
    # question, subgraph monomorphism the not-necessarily-induced one
    h = make_pattern(spec)
    matcher = GraphMatcher(to_networkx(g), to_networkx(h))
    expected = matcher.subgraph_is_isomorphic() if induced else matcher.subgraph_is_monomorphic()
    occ = find_occurrence(g, h, induced=induced)
    assert (occ is not None) == expected
    if occ is not None:
        assert validate_occurrence(g, h, occ)
