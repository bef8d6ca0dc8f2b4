import dataclasses
import hashlib
import json
import random
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from chibound import structures
from chibound.graph import (
    CapExceeded,
    _t_connected_mask,
    build_graph,
    components_masks,
    induced,
    is_t_connected,
    iter_bits,
    mask_of,
)
from chibound.patterns import (
    Occurrence,
    PatternSpec,
    find_induced,
    is_family_free,
    make_pattern,
    validate_occurrence,
)
from chibound.solvers import chi_of_subset, chromatic_number, clique_number
from chibound.structures import (
    Balloon,
    Biclique,
    ClassCertificate,
    _core_mask,
    _far_region,
    _size_lex,
    build_class_l_case1,
    build_class_l_case2,
    class_l_instances,
    enumerate_balloons,
    enumerate_bicliques,
    in_class_F,
    in_class_H,
    in_class_L,
    minimal_cutsets,
    validate_balloon,
    validate_biclique,
)

from helpers import (
    brute_force_chromatic,
    brute_force_clique,
    brute_force_is_t_connected,
    complete_graph,
    cycle_graph,
    graphs,
    path_graph,
    random_graph,
    to_networkx,
)


def brute_force_balloons(g, p, t):
    """Direct-from-definition balloon enumeration: every ordered vertex
    sequence as the path, every subset as the body, all conditions
    checked explicitly with cut-enumeration connectivity."""
    from itertools import permutations

    found = set()
    for seq in permutations(range(g.n), p):
        ok = all(
            g.has_edge(seq[i], seq[j]) == (j == i + 1)
            for i in range(p)
            for j in range(i + 1, p)
        )
        if not ok:
            continue
        tip = seq[-1]
        for size in range(1, g.n + 1):
            for combo in combinations(range(g.n), size):
                body = set(combo)
                if tip not in body:
                    continue
                if any(v in body for v in seq[:-1]):
                    continue
                if any(
                    g.has_edge(v, y) for v in seq[:-2] for y in body
                ):
                    continue
                if p >= 2 and {y for y in body if g.has_edge(seq[-2], y)} != {tip}:
                    continue
                from chibound.graph import induced

                sub, _ = induced(g, body)
                if not brute_force_is_t_connected(sub, t):
                    continue
                found.add((seq, frozenset(body)))
    return found


@pytest.fixture
def chi_asked(monkeypatch):
    """The vertex sets handed to ``chi_of_subset`` by ``structures``, in call order."""
    asked = []

    def counting(g, vertices):
        vertices = frozenset(vertices)
        asked.append(vertices)
        return chi_of_subset(g, vertices)

    monkeypatch.setattr(structures, "chi_of_subset", counting)
    return asked


class TestBalloonExamples:
    def test_c5_p1_t2(self):
        g = cycle_graph(5)
        balloons = enumerate_balloons(g, 1, 2)
        # only the full cycle is 2-connected, so one balloon per tip choice
        assert len(balloons) == 5
        for b in balloons:
            assert b.body == frozenset(range(5))
            assert b.value == 2
            assert len(b.z_set) == 3 and b.tip in b.z_set

    def test_p3_p2_t1(self):
        g = path_graph(3)
        balloons = enumerate_balloons(g, 2, 1)
        keyed = {(b.path, b.body) for b in balloons}
        assert keyed == {((0, 1), frozenset({1, 2})), ((2, 1), frozenset({0, 1}))}
        assert all(b.value == 1 and b.z_set == {1} for b in balloons)

    def test_k4_p1_t3(self):
        g = complete_graph(4)
        balloons = enumerate_balloons(g, 1, 3)
        assert len(balloons) == 4
        for b in balloons:
            assert b.z_set == {b.tip} and b.value == 1

    def test_size_guard(self):
        with pytest.raises(CapExceeded):
            enumerate_balloons(build_graph(17, []), 1, 1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            enumerate_balloons(cycle_graph(4), 0, 1)


class TestBalloonOracle:
    def test_matches_definition_brute_force(self):
        rng = random.Random(71)
        cases = [cycle_graph(5), complete_graph(4), path_graph(4)]
        for _ in range(10):
            cases.append(random_graph(rng.randint(3, 7), rng.choice([0.4, 0.6]), rng))
        for _ in range(3):
            cases.append(random_graph(8, rng.choice([0.5, 0.7]), rng))
        for g in cases:
            for p, t in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]:
                expected = brute_force_balloons(g, p, t)
                got = {(b.path, b.body) for b in enumerate_balloons(g, p, t)}
                assert got == expected, (g.edges(), p, t)

    def test_each_body_tested_once(self, monkeypatch):
        # bodies recur across the paths that share a tip
        tested = []

        def counting(g, mask, t):
            tested.append(mask)
            return _t_connected_mask(g, mask, t)

        monkeypatch.setattr(structures, "_t_connected_mask", counting)
        rng = random.Random(89)
        for _ in range(12):
            g = random_graph(rng.randint(6, 11), rng.choice([0.3, 0.5, 0.7]), rng)
            for p, t in [(1, 2), (2, 2), (2, 3), (3, 2)]:
                tested.clear()
                enumerate_balloons(g, p, t)
                assert len(tested) == len(set(tested)), (g.edges(), p, t)

    def test_chi_of_each_z_set_asked_once(self, chi_asked):
        # z-sets recur across bodies and paths: one chi per distinct z-set
        rng = random.Random(97)
        for _ in range(12):
            g = random_graph(rng.randint(6, 11), rng.choice([0.3, 0.5, 0.7]), rng)
            for p, t in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)]:
                chi_asked.clear()
                found = enumerate_balloons(g, p, t)
                assert len(chi_asked) == len(set(chi_asked)), (g.edges(), p, t)
                assert set(chi_asked) == {b.z_set for b in found}, (g.edges(), p, t)

    def test_connected_bodies_match_brute_force(self):
        # every subset of base holding the tip, connected, with more than
        # t vertices and minimum degree >= t, listed once
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
            nxg = to_networkx(g)
            tip = rng.randrange(n)
            base = rng.getrandbits(n) | 1 << tip
            for t in (1, 2, 3):
                expected = set()
                for y in range(1 << n):
                    members = [v for v in range(n) if y >> v & 1]
                    if (
                        y & ~base
                        or tip not in members
                        or len(members) <= t
                        or any((g.adj[v] & y).bit_count() < t for v in members)
                    ):
                        continue
                    if nx.is_connected(nxg.subgraph(members)):
                        expected.add(y)
                got = structures._connected_bodies(g, base, tip, t)
                assert len(got) == len(set(got)), (g.edges(), base, tip, t)
                assert set(got) == expected, (g.edges(), base, tip, t)

    @settings(max_examples=120)
    @given(g=graphs(max_n=9), data=st.data())
    def test_connected_bodies_match_subset_scan(self, g, data):
        # the incremental short-member bookkeeping against a scan of every
        # subset of base: holds the tip, connected, more than t vertices,
        # minimum degree >= t
        tip = data.draw(st.integers(0, g.n - 1))
        base = data.draw(st.integers(0, g.full_mask())) | 1 << tip
        for t in (1, 2, 3):
            expected = []
            for y in range(1 << g.n):
                if y & ~base or not y >> tip & 1 or y.bit_count() <= t:
                    continue
                members = iter_bits(y)
                if all((g.adj[v] & y).bit_count() >= t for v in members) and components_masks(g, y) == [y]:
                    expected.append(y)
            got = structures._connected_bodies(g, base, tip, t)
            assert sorted(got) == expected, (g.edges(), base, tip, t)

    @pytest.fixture
    def tested(self, monkeypatch):
        """The masks handed to ``_t_connected_mask``, in call order."""
        masks = []

        def counting(g, mask, t):
            masks.append(mask)
            return _t_connected_mask(g, mask, t)

        monkeypatch.setattr(structures, "_t_connected_mask", counting)
        return masks

    @pytest.mark.parametrize("n, t, flows", [(6, 1, 15), (6, 2, 20), (7, 3, 35)])
    def test_flow_count_on_complete_graphs(self, tested, n, t, flows):
        # only the (t+1)-sets have no candidate Y - v to grow from
        enumerate_balloons(complete_graph(n), 1, t)
        assert len(tested) == flows == comb(n, t + 1)

    def test_flow_count_and_output_label_invariant(self, tested):
        def run(g, p, t):
            tested.clear()
            return enumerate_balloons(g, p, t), len(tested)

        rng = random.Random(103)
        for _ in range(10):
            n = rng.randint(5, 11)
            g = random_graph(n, rng.choice([0.3, 0.4, 0.5]), rng)
            perm = list(range(n))
            rng.shuffle(perm)
            moved = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            for p, t in [(1, 2), (2, 2), (2, 3)]:
                found, flows = run(g, p, t)
                found_moved, flows_moved = run(moved, p, t)
                assert flows_moved == flows, (g.edges(), perm, p, t)
                assert {
                    (
                        tuple(perm[v] for v in b.path),
                        frozenset(perm[v] for v in b.body),
                        frozenset(perm[v] for v in b.z_set),
                        b.value,
                    )
                    for b in found
                } == {(b.path, b.body, b.z_set, b.value) for b in found_moved}

    def test_core_matches_brute_force(self):
        # the largest subset of minimum degree >= t, by scanning every subset
        rng = random.Random(97)
        for _ in range(30):
            g = random_graph(rng.randint(1, 8), rng.choice([0.3, 0.5, 0.7]), rng)
            mask = rng.getrandbits(g.n)
            for t in (1, 2, 3):
                expected = 0
                for sub in range(mask + 1):
                    if sub & ~mask or sub.bit_count() <= expected.bit_count():
                        continue
                    bits = [v for v in range(g.n) if sub >> v & 1]
                    if all((g.adj[v] & sub).bit_count() >= t for v in bits):
                        expected = sub
                assert _core_mask(g, mask, t) == expected, (g.edges(), mask, t)

    def test_output_order(self):
        # paths in lexicographic sequence order; within a path, bodies by
        # increasing size then lexicographic on the sorted members
        rng = random.Random(83)
        for _ in range(12):
            g = random_graph(rng.randint(5, 9), rng.choice([0.4, 0.6]), rng)
            for p, t in [(1, 1), (1, 2), (2, 2), (3, 1)]:
                keys = [
                    (b.path, len(b.body), sorted(b.body))
                    for b in enumerate_balloons(g, p, t)
                ]
                assert all(a < b for a, b in zip(keys, keys[1:])), (g.edges(), p, t)

    def test_every_balloon_revalidates(self):
        rng = random.Random(73)
        for _ in range(12):
            g = random_graph(rng.randint(3, 8), 0.5, rng)
            for b in enumerate_balloons(g, 2, 2):
                assert validate_balloon(g, b)

    def test_validator_rejects_corruption(self):
        g = cycle_graph(5)
        b = enumerate_balloons(g, 1, 2)[0]
        broken = Balloon(
            path=b.path, body=b.body, z_set=b.z_set, value=b.value + 1, t=b.t
        )
        assert not validate_balloon(g, broken)
        broken2 = Balloon(
            path=b.path,
            body=b.body - {min(b.body - {b.tip})},
            z_set=b.z_set,
            value=b.value,
            t=b.t,
        )
        assert not validate_balloon(g, broken2)

    def test_validator_rejects_ids_off_the_graph(self):
        g = cycle_graph(5)
        for path, body in [
            ((9,), {9}),
            ((-1,), {-1, 0, 1}),
            ((0,), {0, 1, 4, 5}),
            ((-5, 0), {0, 1, 4}),
        ]:
            b = Balloon(path=path, body=frozenset(body), z_set=frozenset(body), value=1, t=1)
            assert not validate_balloon(g, b), (path, body)

    def test_validator_rejects_t_below_one(self):
        g = cycle_graph(5)
        b = enumerate_balloons(g, 1, 2)[0]
        assert validate_balloon(g, b)
        for t in (0, -1):
            assert not validate_balloon(g, dataclasses.replace(b, t=t)), t

    @pytest.mark.parametrize("field", ["t", "value"])
    @pytest.mark.parametrize("bad", [True, 1.0], ids=repr)
    def test_validator_refuses_bool_and_float(self, field, bad):
        # on C5 the path (1,) with body {1, 2} is a (1,1)-balloon of value 1,
        # and 1 == True == 1.0
        g = cycle_graph(5)
        b = Balloon((1,), frozenset({1, 2}), frozenset({1}), 1, 1)
        assert validate_balloon(g, b)
        assert not validate_balloon(g, dataclasses.replace(b, **{field: bad}))

    def test_tip_degree_at_least_t(self):
        # t-connected bodies force at least t body neighbors at the tip
        rng = random.Random(79)
        for _ in range(10):
            g = random_graph(rng.randint(4, 8), 0.6, rng)
            for t in (1, 2, 3):
                for b in enumerate_balloons(g, 1, t):
                    assert (g.adj[b.tip] & mask_of(b.body)).bit_count() >= t


class TestBalloonLayerDegree:
    def test_k4_sentinel(self):
        g = complete_graph(4)
        b = enumerate_balloons(g, 1, 3)[0]
        assert _far_region(g, b)[1] == -1

    def test_c5_far_pair(self):
        g = cycle_graph(5)
        b = enumerate_balloons(g, 1, 2)[0]
        # the two far vertices are adjacent
        assert _far_region(g, b)[1] == 1

    def test_c6_far_path(self):
        g = cycle_graph(6)
        b = enumerate_balloons(g, 1, 2)[0]
        # far region is a 3-vertex path inside the body
        assert _far_region(g, b)[1] == 2

    def test_layers_inside_body_not_host(self):
        # a host shortcut outside the body must not shrink body distances:
        # body is C6, plus an external apex adjacent to opposite body vertices
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, 0), (6, 3)]
        g = build_graph(7, edges)
        balloons = [
            b
            for b in enumerate_balloons(g, 1, 2)
            if b.body == frozenset(range(6)) and b.tip == 0
        ]
        assert balloons
        assert _far_region(g, balloons[0])[1] == 2


class TestBicliques:
    def test_k4_pairs(self):
        g = complete_graph(4)
        bicliques = enumerate_bicliques(g, 2)
        assert len(bicliques) == 6
        for b in bicliques:
            assert b.y_set == frozenset(range(4)) - b.x_set
            assert b.value == 2

    def test_c5_single_vertex(self):
        g = cycle_graph(5)
        for b in enumerate_bicliques(g, 1):
            assert len(b.y_set) == 2 and b.value == 1

    def test_star_center(self):
        g = make_pattern(PatternSpec.star(3))
        b = next(x for x in enumerate_bicliques(g, 1) if x.x_set == {0})
        assert b.y_set == {1, 2, 3} and b.value == 1

    def test_revalidation(self):
        rng = random.Random(83)
        for _ in range(15):
            g = random_graph(7, 0.5, rng)
            for b in enumerate_bicliques(g, 2):
                assert validate_biclique(g, b)

    def test_validator_rejects_ids_off_the_graph(self):
        # on C5, -1 would read as vertex 4, which is joined to 0 and 3
        g = cycle_graph(5)
        assert validate_biclique(g, Biclique(frozenset({4}), frozenset({0, 3}), 1))
        for x_set, y_set in [
            ({-1}, {0, 3}),
            ({-1, 4}, {0, 3}),
            ({4}, {0, -2}),
            ({5}, {0, 3}),
            ({4}, {0, 3, 9}),
        ]:
            b = Biclique(frozenset(x_set), frozenset(y_set), 1)
            assert not validate_biclique(g, b), (x_set, y_set)

    @pytest.mark.parametrize("value", [True, 1.0], ids=repr)
    def test_validator_refuses_bool_and_float_value(self, value):
        # chi of {0, 2} on C5 is 1, and 1 == True == 1.0
        g = cycle_graph(5)
        assert validate_biclique(g, Biclique(frozenset({1}), frozenset({0, 2}), 1))
        assert not validate_biclique(g, Biclique(frozenset({1}), frozenset({0, 2}), value))

    def test_chi_of_each_common_neighbourhood_asked_once(self, chi_asked):
        # t-sets with one common neighbourhood share its chi
        rng = random.Random(91)
        for _ in range(12):
            g = random_graph(rng.randint(4, 10), rng.choice([0.3, 0.5, 0.7]), rng)
            for t in (1, 2, 3):
                chi_asked.clear()
                found = enumerate_bicliques(g, t)
                assert len(chi_asked) == len(set(chi_asked)), (g.edges(), t)
                assert set(chi_asked) == {b.y_set for b in found}, (g.edges(), t)

    def test_value_monotone_under_subsets(self):
        rng = random.Random(89)
        for _ in range(10):
            g = random_graph(7, 0.6, rng)
            for b in enumerate_bicliques(g, 2):
                members = sorted(b.y_set)
                for _ in range(3):
                    sub = [v for v in members if rng.random() < 0.5]
                    assert chi_of_subset(g, sub) <= b.value


@settings(max_examples=200)
@given(n=st.integers(0, 16), data=st.data())
def test_size_lex_key_orders_by_size_then_members(n, data):
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    key = _size_lex(n)
    assert sorted(masks, key=key) == sorted(masks, key=lambda m: (m.bit_count(), iter_bits(m)))
    assert len({key(m) for m in masks}) == len(set(masks))


class TestMinimalCutsets:
    def test_p3(self):
        assert minimal_cutsets(path_graph(3)) == [frozenset({1})]

    def test_c4_opposite_pairs(self):
        got = set(minimal_cutsets(cycle_graph(4)))
        assert got == {frozenset({0, 2}), frozenset({1, 3})}

    def test_k4_none(self):
        assert minimal_cutsets(complete_graph(4)) == []

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            minimal_cutsets(build_graph(4, [(0, 1), (2, 3)]))

    def test_size_guard(self):
        with pytest.raises(CapExceeded, match="cutset enumeration cap is 16 vertices, got 17"):
            minimal_cutsets(path_graph(17))

    def test_criterion_cross_check(self):
        # independent filter over all subsets with set arithmetic; the
        # scan runs by size then lexicographic, the documented order
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randint(3, 10)
            g = random_graph(n, rng.choice([0.3, 0.5]), rng)
            if len(components_masks(g, g.full_mask())) != 1:
                continue
            expected = []
            for size in range(1, n - 1):
                for combo in combinations(range(n), size):
                    rest = [v for v in range(n) if v not in combo]
                    sub_parts = _parts_on(g, rest)
                    if len(sub_parts) < 2:
                        continue
                    if all(
                        all(any(g.has_edge(x, y) for y in part) for part in sub_parts)
                        for x in combo
                    ):
                        expected.append(frozenset(combo))
            assert minimal_cutsets(g) == expected, g.edges()


def _parts_on(g, vertices):
    allowed = set(vertices)
    parts = []
    seen = set()
    for v in vertices:
        if v in seen:
            continue
        stack = [v]
        part = {v}
        while stack:
            x = stack.pop()
            for w in g.neighbors(x):
                if w in allowed and w not in part:
                    part.add(w)
                    stack.append(w)
        seen |= part
        parts.append(sorted(part))
    return parts


class TestClassH:
    def test_c5_member(self):
        ok, occ = in_class_H(cycle_graph(5), 1)
        assert ok and occ is None

    def test_paw_not_member(self):
        paw = make_pattern(PatternSpec.flag(1))
        ok, occ = in_class_H(paw, 1)
        assert not ok and occ is not None

    def test_k4_member_p2(self):
        ok, _ = in_class_H(complete_graph(4), 2)
        assert ok

    def test_hereditary(self):
        rng = random.Random(101)
        members = []
        while len(members) < 8:
            g = random_graph(rng.randint(4, 8), 0.35, rng)
            if in_class_H(g, 2)[0]:
                members.append(g)
        for g in members:
            for _ in range(5):
                subset = [v for v in range(g.n) if rng.random() < 0.7]
                if not subset:
                    continue
                from chibound.graph import induced

                sub, _ = induced(g, subset)
                assert in_class_H(sub, 2)[0]


class TestClassL:
    IDENTITY = {w: w for w in range(0, 64)}

    def test_complete_graph_refused(self):
        # no cutset exists, so membership fails
        ok, cert = in_class_L(complete_graph(4), 2, self.IDENTITY)
        assert not ok and cert is None

    def test_disconnected_rejected(self):
        for g in (build_graph(4, [(0, 1), (2, 3)]), build_graph(1, [])):
            with pytest.raises(ValueError, match="in_class_L requires a connected graph"):
                in_class_L(g, 2, self.IDENTITY)

    def test_non_p6_free_rejected(self):
        with pytest.raises(ValueError):
            in_class_L(path_graph(6), 2, self.IDENTITY)

    def test_missing_binding_point_rejected(self):
        g = build_class_l_case1(3)
        with pytest.raises(ValueError):
            in_class_L(g, 2, {0: 0})

    def test_case1_instance(self):
        g = build_class_l_case1(3)
        ok, cert = in_class_L(g, 2, self.IDENTITY)
        assert ok and cert.case == 1
        w = cert.witnesses
        # re-validate the certificate against the definition
        assert w["v"] in w["X"]
        assert all(g.has_edge(w["v"], y) or y == w["v"] for y in [w["y"]])
        assert w["chi_F"] > w["threshold"]
        assert any(g.has_edge(w["y"], z) for z in w["F"])
        assert not g.has_edge(w["u"], w["v"])

    def test_case2_instance(self):
        g = build_class_l_case2(3)
        ok, cert = in_class_L(g, 2, self.IDENTITY)
        assert ok and cert.case == 2
        w = cert.witnesses
        assert not g.has_edge(w["v"], w["w"])
        assert g.has_edge(w["v"], w["y"]) and not g.has_edge(w["w"], w["y"])

    def test_all_shipped_instances_are_members(self):
        for g, case in class_l_instances():
            ok, cert = in_class_L(g, 2, self.IDENTITY)
            assert ok, (g.edges(), case)
            assert cert.case == case
            f_graph, _ = induced(g, cert.witnesses["F"])
            assert cert.witnesses["chi_F"] == brute_force_chromatic(f_graph)

    def test_chi_of_each_component_asked_once(self, chi_asked):
        for g, _ in class_l_instances():
            chi_asked.clear()
            in_class_L(g, 2, self.IDENTITY)
            assert len(chi_asked) == len(set(chi_asked)), g.edges()

    def test_certificate_json_round_trip(self):
        for g, _ in class_l_instances():
            ok, cert = in_class_L(g, 2, self.IDENTITY)
            assert ok
            text = json.dumps(cert.to_json_dict())
            assert ClassCertificate.from_json_dict(json.loads(text)) == cert

    def test_certificate_json_missing_key(self):
        with pytest.raises(ValueError, match="witnesses"):
            ClassCertificate.from_json_dict({"class_id": "L(2)", "case": 1})

    def test_certificate_json_malformed(self):
        with pytest.raises(ValueError, match="must be an object"):
            ClassCertificate.from_json_dict([{"class_id": "L(2)", "case": 1, "witnesses": {}}])
        with pytest.raises(ValueError, match="witnesses must be an object"):
            ClassCertificate.from_json_dict({"class_id": "L(2)", "case": 1, "witnesses": [1, 2]})
        with pytest.raises(ValueError, match="vertex ids"):
            ClassCertificate.from_json_dict({"class_id": "L(2)", "case": 1, "witnesses": {"X": [[0]]}})

    def test_certificate_json_malformed_types(self):
        good = {"class_id": "L(2)", "case": 1, "witnesses": {"X": [0, 1], "v": 0}}
        cert = ClassCertificate.from_json_dict(good)
        assert cert.witnesses == {"X": frozenset({0, 1}), "v": 0}
        assert ClassCertificate.from_json_dict({**good, "case": None}).case is None
        for bad, match in [
            ({"class_id": 5, "case": "x", "witnesses": {"X": ["a"]}}, "class_id"),
            ({**good, "class_id": None}, "class_id"),
            ({**good, "case": "x"}, "case"),
            ({**good, "case": 1.0}, "case"),
            ({**good, "case": True}, "case"),
            ({**good, "witnesses": {"X": ["a"]}}, "vertex ids"),
            ({**good, "witnesses": {"X": [0, True]}}, "vertex ids"),
            ({**good, "witnesses": {"v": "0"}}, "must be an int"),
            ({**good, "witnesses": {"chi_F": 2.5}}, "must be an int"),
            ({**good, "witnesses": {"v": False}}, "must be an int"),
            ({**good, "witnesses": {"v": None}}, "must be an int"),
        ]:
            with pytest.raises(ValueError, match=match):
                ClassCertificate.from_json_dict(bad)

    def test_instance_count(self):
        assert len(class_l_instances()) >= 20


class TestClassF:
    def test_vacuous_without_balloons(self):
        # a star has no 2-connected subsets at all
        g = make_pattern(PatternSpec.star(4))
        assert in_class_F(g, 2, 1, 2)

    def test_c5(self):
        assert in_class_F(cycle_graph(5), 2, 1, 2)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            in_class_F(cycle_graph(4), 2, 1, 2)  # C4 itself

    def test_deep_max_degree_negative_case(self):
        # C12 with an apex joined to two deep vertices: the only
        # max-degree far vertices sit at body layers 4 and 5
        edges = [(i, (i + 1) % 12) for i in range(12)] + [(12, 5), (12, 8)]
        g = build_graph(13, edges)
        assert in_class_H(g, 1)[0]
        assert not in_class_F(g, 2, 1, 2)
        # and the condition is recovered at a larger depth allowance
        assert in_class_F(g, 3, 1, 2)


@pytest.mark.parametrize(
    "fn, args",
    [
        (chi_of_subset, ([True, 2],)),
        (chi_of_subset, ([1.0],)),
        (enumerate_balloons, (True, 1)),
        (enumerate_balloons, (2.0, 1)),
        (enumerate_balloons, (1, True)),
        (in_class_L, (2.5, {})),
        (in_class_F, (2, 2, True)),
        (in_class_F, (2.5, 2, 1)),
        (in_class_H, (True,)),
        (enumerate_bicliques, (True,)),
        (is_t_connected, (1.5,)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_integer_parameters_refuse_bool_and_float(fn, args):
    with pytest.raises(ValueError, match="must be an int|must be ints|not an int"):
        fn(cycle_graph(5), *args)


@pytest.mark.parametrize(
    "build, args",
    [
        (build_class_l_case1, (2.0,)),
        (build_class_l_case1, (3, True)),
        (build_class_l_case1, (3, 1, 1.0)),
        (build_class_l_case2, (3.0,)),
        (build_class_l_case2, (3, True, 1)),
        (build_class_l_case2, (3, 1, 1.5)),
        (build_class_l_case2, (3, 1, 4)),  # more tethers than clique vertices
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_class_l_builders_refuse_bool_and_float(build, args):
    with pytest.raises(ValueError, match="must be"):
        build(*args)


_C5 = cycle_graph(5)

# Each check passes on vertex 1 of C5: an edge 1-2, the balloon with path
# (1,) and body {1, 2}, the biclique {1} x {0, 2}, the induced edge 1-2.
VERTEX_ID_CHECKS = {
    "validate_occurrence": lambda v: validate_occurrence(
        _C5, path_graph(2), Occurrence((v, 2), induced=False)
    ),
    "validate_balloon": lambda v: validate_balloon(
        _C5, Balloon((v,), frozenset({v, 2}), frozenset({v}), 1, 1)
    ),
    "validate_biclique": lambda v: validate_biclique(
        _C5, Biclique(frozenset({v}), frozenset({0, 2}), 1)
    ),
    "induced": lambda v: induced(_C5, [v, 2])[1] == (1, 2),
}


@pytest.mark.parametrize("bad", [True, 1.0, "1", None, -1, 5], ids=repr)
@pytest.mark.parametrize("name", sorted(VERTEX_ID_CHECKS))
def test_vertex_ids_are_ints_in_range(name, bad):
    # a vertex id is an int, not a bool, in range(n): validators return
    # False on anything else, and induced raises ValueError
    check = VERTEX_ID_CHECKS[name]
    assert check(1)
    if name == "induced":
        with pytest.raises(ValueError, match="not all ints in range"):
            check(bad)
    else:
        assert check(bad) is False


class TestConstructedInstancesAreClean:
    def test_instances_p6_broom_free(self):
        fam = [PatternSpec.path(6), PatternSpec.broom(2, 2)]
        from chibound.patterns import is_family_free

        for g, _ in class_l_instances():
            ok, occ = is_family_free(g, fam, induced=True)
            assert ok, (g.edges(), occ)

    def test_mutated_instance_loses_membership_precondition(self):
        g = build_class_l_case1(3)
        # delete one edge inside the clique F: a (2,2)-broom appears
        f_edge = None
        ok, cert = in_class_L(g, 2, TestClassL.IDENTITY)
        f_members = sorted(cert.witnesses["F"])
        u, v = f_members[0], f_members[1]
        edges = [e for e in g.edges() if set(e) != {u, v}]
        mutated = build_graph(g.n, edges)
        from chibound.patterns import is_family_free

        ok2, _ = is_family_free(
            mutated, [PatternSpec.path(6), PatternSpec.broom(2, 2)], induced=True
        )
        assert not ok2
        with pytest.raises(ValueError):
            in_class_L(mutated, 2, TestClassL.IDENTITY)


# ---------------------------------------------------------------------------
# Class L: every certificate field re-derived from its definition


def _random_class_l_hosts(count, seed):
    """``count`` random connected {P6, (2,2)-broom}-free graphs on 6..9 vertices."""
    family = [PatternSpec.path(6), PatternSpec.broom(2, 2)]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(6, 9)
        g = random_graph(n, rng.choice([0.3, 0.4, 0.5, 0.6]), rng)
        if len(_parts_on(g, list(range(n)))) == 1 and is_family_free(g, family)[0]:
            out.append(g)
    return out


def _full_cutsets(g):
    """Every X whose removal leaves at least two components, each holding
    a neighbor of every member of X, with those components: a scan over
    all vertex subsets."""
    out = {}
    for size in range(1, g.n - 1):
        for combo in combinations(range(g.n), size):
            parts = _parts_on(g, [v for v in range(g.n) if v not in combo])
            if len(parts) >= 2 and all(
                any(g.has_edge(x, y) for y in part) for part in parts for x in combo
            ):
                out[frozenset(combo)] = [frozenset(part) for part in parts]
    return out


def _is_complete_on(g, vertices):
    return all(g.has_edge(a, b) for a, b in combinations(sorted(vertices), 2))


class TestClassLOracle:
    """``in_class_L`` against a brute-force reading of the L(i) definition:
    the shipped instances plus 300 random hosts, at the constant
    thresholds 0, 1 and 2 and at the identity binding."""

    I = 2
    BINDINGS = [{w: c for w in range(64)} for c in (0, 1, 2)] + [TestClassL.IDENTITY]
    # sha256 of the certificate JSON lines ("null" for a non-member), one
    # line per (graph, binding), graphs outer, in the order of ``calls``
    DIGEST = "d1a5f9175150ba0fad7a052c3e1435e9fef95b3cda8760d622c43b8757ac6f40"

    @pytest.fixture(scope="class")
    def calls(self):
        graphs = [g for g, _ in class_l_instances()] + _random_class_l_hosts(300, 2027)
        return [
            (g, binding, *in_class_L(g, self.I, binding))
            for g in graphs
            for binding in self.BINDINGS
        ]

    @pytest.fixture(scope="class")
    def chi_of(self):
        memo = {}

        def chi(g, vertices):
            key = (g, frozenset(vertices))
            if key not in memo:
                memo[key] = brute_force_chromatic(induced(g, vertices)[0])
            return memo[key]

        return chi

    def test_every_field_rederived(self, calls, chi_of):
        cases = []
        for g, binding, ok, cert in calls:
            if not ok:
                assert cert is None
                continue
            cases.append(cert.case)
            w = cert.witnesses
            x_set, v, y, b1, b2 = w["X"], w["v"], w["y"], w["B1"], w["B2"]
            assert cert.class_id == f"L({self.I})"
            # X: a minimal cutset whose components are all full
            rest = [z for z in range(g.n) if z not in x_set]
            parts = [frozenset(part) for part in _parts_on(g, rest)]
            assert len(parts) >= 2
            assert all(any(g.has_edge(x, z) for z in part) for part in parts for x in x_set)
            for size in range(len(x_set)):
                for sub in combinations(sorted(x_set), size):
                    assert len(_parts_on(g, [z for z in range(g.n) if z not in sub])) == 1
            assert v in x_set
            assert b1 in parts and b2 in parts and b1 != b2
            assert w["N"] == {z for z in b1 if g.has_edge(v, z)}
            assert y in w["N"]
            f_set = w["F"]
            assert f_set in [frozenset(p) for p in _parts_on(g, sorted(b1 - w["N"]))]
            assert any(g.has_edge(y, z) for z in f_set)
            assert w["Y1"] == {z for z in w["N"] if any(g.has_edge(z, f) for f in f_set)}
            assert w["omega"] == brute_force_clique(g)
            assert w["threshold"] == binding[w["omega"] // self.I]
            assert w["chi_F"] == chi_of(g, f_set) > w["threshold"]
            assert w["f_vertex"] == min(z for z in b2 if g.has_edge(v, z))
            if cert.case == 1:
                assert _is_complete_on(g, x_set)
                assert w["u"] in b2 and not g.has_edge(w["u"], v)
            else:
                assert cert.case == 2 and not _is_complete_on(g, x_set)
                assert w["w"] in x_set and w["w"] != v
                assert not g.has_edge(w["w"], v) and not g.has_edge(w["w"], y)
        # 108 certificates of shipped instances, 222 of random hosts
        assert len(cases) == 330 and set(cases) == {1, 2}

    def test_membership_matches_brute_force(self, calls, chi_of):
        # the largest chi(F) over every (X, v, B1, y, F) that meets its
        # case condition decides membership at every threshold
        best_of = {}
        for g, binding, ok, _ in calls:
            if g.n > 9:  # keeps the subset scan small; this skips 9 shipped instances
                continue
            if g not in best_of:
                best = -1
                for x_set, parts in _full_cutsets(g).items():
                    complete = _is_complete_on(g, x_set)
                    for v in x_set:
                        for b1 in parts:
                            if complete and all(
                                g.has_edge(u, v) for b2 in parts if b2 != b1 for u in b2
                            ):
                                continue
                            n_set = {z for z in b1 if g.has_edge(v, z)}
                            for y in n_set:
                                if not complete and not any(
                                    w != v and not g.has_edge(w, v) and not g.has_edge(w, y)
                                    for w in x_set
                                ):
                                    continue
                                for f_set in _parts_on(g, sorted(b1 - n_set)):
                                    if any(g.has_edge(y, z) for z in f_set):
                                        best = max(best, chi_of(g, f_set))
                best_of[g] = best
            threshold = binding[brute_force_clique(g) // self.I]
            assert ok == (best_of[g] > threshold), g.edges()

    def test_certificate_json_digest(self, calls):
        lines = [
            json.dumps(cert.to_json_dict()) if ok else "null"
            for _, _, ok, cert in calls
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST
