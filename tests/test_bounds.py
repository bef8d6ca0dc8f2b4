import math
from functools import reduce

import pytest

from chibound.bounds import (
    biclique_value_bound,
    degeneracy_bound,
    k3t_total_bound,
    mgun_bound,
    phi_upper,
    ramsey_upper,
    registry_lookup,
    s_star_theorem_f,
    theorem_f,
)
from chibound.corpus import CorpusSpec, enumerate_graphs, write_graph6
from chibound.solvers import chromatic_number, clique_number

from helpers import complete_graph


class TestRamseyUpper:
    def test_3_3(self):
        assert ramsey_upper(3, 3) == math.comb(4, 2) == 6

    def test_1_t(self):
        for t in range(1, 10):
            assert ramsey_upper(1, t) == 1

    def test_4_4(self):
        assert ramsey_upper(4, 4) == math.comb(6, 3) == 20

    def test_symmetry(self):
        for s in range(1, 8):
            for t in range(1, 8):
                assert ramsey_upper(s, t) == ramsey_upper(t, s)


class TestPhiUpper:
    def test_3_5(self):
        value, branch = phi_upper(3, 5)
        assert value == 5 * 4 // 2 + 1 == 11
        assert branch == "claim21"

    def test_4_3(self):
        value, branch = phi_upper(4, 3)
        assert value == math.comb(4, 2) * 1 + 4 == 10
        assert branch == "claim23"

    def test_3_1_both_branches_recorded(self):
        assert phi_upper(3, 1) == (1, "claim21")

    def test_n_gt_3_w_1_unified_fallback(self):
        assert phi_upper(5, 1) == (5, "unified")

    def test_claim21_below_unified(self):
        for w in range(1, 101):
            claimed = phi_upper(3, w)[0]
            unified = math.comb(3, 2) * (w - 1) + 3
            assert claimed <= unified

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_upper(2, 2)


class TestMgunBound:
    def test_all_ones(self):
        assert mgun_bound(1, 1, 1, 1) == 13

    def test_2_1_1_1(self):
        assert mgun_bound(2, 1, 1, 1) == 25

    def test_t1_p1_specialization(self):
        for q in range(1, 11):
            for s in range(1, 11):
                assert mgun_bound(1, q, s, 1) == s + 11 + q

    def test_dominates_inputs(self):
        for p in range(1, 5):
            for q in range(1, 11):
                for s in range(1, 11):
                    for t in range(1, 11):
                        v = mgun_bound(p, q, s, t)
                        assert v >= s and v >= q


class TestTheoremF:
    def test_base_case(self):
        assert theorem_f(2, 3, 1) == 2

    def test_d2(self):
        assert theorem_f(2, 3, 2) == 372

    def test_d3(self):
        assert theorem_f(2, 3, 3) == 1933

    def test_monotone_grid(self):
        # strictly increasing in d and in t everywhere; strictly
        # increasing in p once the recursion engages (d >= 2) -- the
        # d=1 base value t-1 does not involve p at all
        grid = [(p, t, d) for p in (2, 3) for t in (3, 4, 5) for d in (1, 2, 3, 4)]
        for p, t, d in grid:
            assert theorem_f(p, t, d) < theorem_f(p, t, d + 1)
            assert theorem_f(p, t, d) < theorem_f(p, t + 1, d)
            if d >= 2:
                assert theorem_f(p, t, d) < theorem_f(p + 1, t, d)
            else:
                assert theorem_f(p, t, d) == theorem_f(p + 1, t, d)

    def test_recursion_second_path(self):
        # re-derive iteratively with explicit composition through mgun shapes
        def alt(p, t, d):
            if d == 1:
                return t - 1
            g = alt(p, t, d - 1)
            prefix = sum(t**i for i in range(p))
            return prefix * (g + 1 + t * (2 * t + 9)) + t**p * (
                math.comb(t, 2) * (d * t - 1) + t + 2
            )

        for p in (2, 3):
            for t in (3, 4):
                for d in (1, 2, 3, 4):
                    assert theorem_f(p, t, d) == alt(p, t, d)


class TestSStarTheoremF:
    def test_base(self):
        assert s_star_theorem_f(1, 5, 1) == 4

    def test_step(self):
        # one induction step by hand at p=1, t=5, d=2
        prefix = 1
        expected = prefix * (4 + 1 + 5 * 19) + 5 * (2 * 5 + 2)
        assert s_star_theorem_f(1, 5, 2) == expected

    def test_monotone(self):
        for d in (1, 2, 3):
            assert s_star_theorem_f(2, 5, d) < s_star_theorem_f(2, 5, d + 1)


class TestBicliqueValueBound:
    def test_components_at_p2_t3(self):
        assert math.factorial(2 + 3) == 120
        assert sum(3 ** (i + 2) for i in range(3)) == 117
        assert sum(3**i for i in range(3)) == 13

    def test_exact_value(self):
        assert biclique_value_bound(2, 3) == 2 + 117**1560

    def test_exceeds_10_to_3220(self):
        assert biclique_value_bound(2, 3) > 10**3220

    def test_power_second_path(self):
        # naive repeated multiplication vs builtin pow on a shrunk exponent
        base = 117
        exp = 40
        naive = reduce(lambda acc, _: acc * base, range(exp), 1)
        assert naive == base**exp


class TestDegeneracyBound:
    def test_small(self):
        assert degeneracy_bound(1, 2, 1, 1) == 2**24 == 16777216

    def test_factorial_exponent(self):
        assert math.factorial(1 + 3) == 24

    def test_matches_biclique_power_term(self):
        # uniform tree of spread 3 and height 2 has 13 vertices;
        # its degeneracy ceiling is exactly the biclique bound's power term
        assert degeneracy_bound(13, 3, 3, 2) == 117**1560
        assert biclique_value_bound(2, 3) - 2 == degeneracy_bound(13, 3, 3, 2)


class TestK3tTotalBound:
    def test_linear_slope_large_t(self):
        # for t > 3 and w >= 2 the only w-dependence is the phi term
        for t in (4, 5):
            for w in (2, 3, 4, 10):
                lo, _ = k3t_total_bound(2, t, w)
                hi, _ = k3t_total_bound(2, t, w + 1)
                assert hi - lo == t**2 * math.comb(t, 2)

    def test_t3_alternating_slope(self):
        values = {w: k3t_total_bound(2, 3, w)[0] for w in (2, 3, 4, 5)}
        assert values[3] - values[2] == 9 * 3 == 27
        assert values[4] - values[3] == 9 * 2 == 18
        assert values[5] - values[4] == 9 * 3 == 27

    def test_branch_reported(self):
        assert k3t_total_bound(2, 3, 5)[1] == "claim21"
        assert k3t_total_bound(2, 4, 5)[1] == "claim23"

    def test_w_independent_part(self):
        p, t = 2, 4
        prefix = sum(t**i for i in range(p))
        fixed = prefix * (biclique_value_bound(p, t) + t * (2 * t + 9)) + 2 * t**p
        for w in (2, 5, 9):
            total, _ = k3t_total_bound(p, t, w)
            assert total - t**p * phi_upper(t, w)[0] == fixed


@pytest.mark.parametrize(
    "fn, args",
    [
        (ramsey_upper, (True, 3)),
        (ramsey_upper, (3, 2.0)),
        (phi_upper, (3, 2.5)),
        (phi_upper, (4, True)),
        (mgun_bound, (1, 1.5, 1, 1)),
        (mgun_bound, (True, 1, 1, 1)),
        (theorem_f, (2.0, 3, 2)),
        (theorem_f, (2, 3, True)),
        (s_star_theorem_f, (1, 5.0, 1)),
        (s_star_theorem_f, (True, 5, 1)),
        (degeneracy_bound, (1, 2, 1.0, 1)),
        (degeneracy_bound, (1, 2, 1, True)),
        (biclique_value_bound, (2, 3.0)),
        (biclique_value_bound, (True, 3)),
        (k3t_total_bound, (2, 3, 2.0)),
        (k3t_total_bound, (2, 3, True)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_integer_parameters_refuse_bool_and_float(fn, args):
    with pytest.raises(ValueError, match="must be an int"):
        fn(*args)


def _violations(entry, filters, n_max):
    """graph6 of every graph of the exhaustive corpus on 1..n_max vertices
    under ``filters`` whose chi breaks the entry's relation."""
    out = []
    for g in enumerate_graphs(CorpusSpec("exhaustive", 1, n_max, filters=filters)):
        omega, _ = clique_number(g)
        chi, _ = chromatic_number(g)
        limit = entry.threshold(g, omega)
        if not (chi <= limit if entry.relation == "le" else chi == limit):
            out.append(write_graph6(g))
    return out


class TestRegistry:
    def test_brause(self):
        entry = registry_lookup("brause_p5c4")
        assert entry.threshold(complete_graph(1), 5) == 6
        assert "+".join(map(str, entry.filters)) == "free:path:k=5+free:cycle:k=4"

    def test_p4free(self):
        entry = registry_lookup("p4free_equality")
        for k in range(1, 9):
            assert entry.threshold(complete_graph(1), k) == k
        assert entry.relation == "eq"
        assert "+".join(map(str, entry.filters)) == "free:path:k=4"

    def test_degeneracy_entry_uses_graph(self):
        entry = registry_lookup("degeneracy_plus_one")
        assert entry.threshold(complete_graph(5), 5) == 5

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            registry_lookup("nonexistent_bound")

    @pytest.mark.parametrize("name", ["degeneracy_plus_one", "p4free_equality", "brause_p5c4"])
    def test_entry_holds_on_its_class(self, name):
        entry = registry_lookup(name)
        assert _violations(entry, entry.filters, 6) == []

    def test_p4free_equality_fails_without_its_filter(self):
        # C5 is the one graph on at most 5 vertices with chi != omega
        assert _violations(registry_lookup("p4free_equality"), (), 5) == ["DLo"]
