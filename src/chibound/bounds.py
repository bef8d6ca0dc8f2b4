"""Arbitrary-precision evaluators for every closed-form chi-binding bound.

Values here overflow 64 bits by thousands of digits at the smallest
legal parameters, so every bound is an exact Python integer.  The
registry of cited bounds names each bound's class as corpus filters,
so a bound and the corpus it is checked on come from one entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .corpus import PatternFilter, _parse_filters
from .graph import Graph, _require_ints, degeneracy
from .patterns import PatternSpec, _vertex_count


def ramsey_upper(s: int, t: int) -> int:
    """Binomial upper bound C(s+t-2, t-1) on the Ramsey number R(s,t)."""
    _require_ints(s=(s, 1), t=(t, 1))
    return math.comb(s + t - 2, t - 1)


def phi_upper(n: int, w: int) -> tuple[int, str]:
    """Tightest applicable upper bound on the C4-free Ramsey number phi(n, w),
    with the branch it came from.

    Branches: ``claim21`` is ``floor(5(w-1)/2) + 1`` at n=3; ``claim23``
    is ``C(n,2)(w-2) + n`` for n>3, w>1; ``unified`` is
    ``C(n,2)(w-1) + n``, which is n at its only use, n>3 and w=1.
    """
    _require_ints(n=(n, 3), w=(w, 1))
    if n == 3:
        return 5 * (w - 1) // 2 + 1, "claim21"
    if w > 1:
        return math.comb(n, 2) * (w - 2) + n, "claim23"
    return n, "unified"


def mgun_bound(p: int, q: int, s: int, t: int) -> int:
    """Chromatic bound for graphs with no (p,t)-balloon of value >= q and
    no t-biclique of value s:  (sum_{i<p} t^i) (s + t(2t+9)) + t^p q."""
    _require_ints(p=(p, 1), q=(q, 1), s=(s, 1), t=(t, 1))
    prefix = sum(t**i for i in range(p))
    return prefix * (s + t * (2 * t + 9)) + t**p * q


def _induction(p: int, t: int, d: int, balloon_term: Callable[[int], int]) -> int:
    """K_d(t) induction: t - 1 at d=1; each level feeds the previous bound
    plus one as the biclique term of :func:`mgun_bound`."""
    value = t - 1
    for level in range(2, d + 1):
        value = mgun_bound(p, balloon_term(level), value + 1, t)
    return value


def theorem_f(p: int, t: int, d: int) -> int:
    """Recursive chi bound for the C4-free p-flag-free class without a
    K_d(t) subgraph, excluding the broom-plus tree.

    Base d=1 gives t-1 (graphs without K_1(t) have fewer than t
    vertices); each induction step plugs the previous bound into the
    balloon/biclique machinery with balloon threshold
    C(t,2)(dt-1) + t + 2.
    """
    _require_ints(p=(p, 2), t=(t, 3), d=(d, 1))
    return _induction(p, t, d, lambda level: math.comb(t, 2) * (level * t - 1) + t + 2)


def s_star_theorem_f(p: int, t: int, d: int) -> int:
    """Same induction as :func:`theorem_f` for the two-arm-star exclusion,
    with the balloon threshold replaced by dt + 2."""
    _require_ints(p=(p, 1), t=(t, 5), d=(d, 1))
    return _induction(p, t, d, lambda level: level * t + 2)


def degeneracy_bound(h: int, zeta: int, t: int, eta: int) -> int:
    """Degeneracy ceiling (h * zeta * t) ** ((eta+3)! * h) for graphs with
    no K_{t,t} subgraph excluding a rooted tree of order h, height <= eta
    and spread <= zeta."""
    _require_ints(h=(h, 1), zeta=(zeta, 2), t=(t, 1), eta=(eta, 1))
    return (h * zeta * t) ** (math.factorial(eta + 3) * h)


def biclique_value_bound(p: int, t: int) -> int:
    """Ceiling on t-biclique values in K_3(t)-subgraph-free broom-plus-free
    graphs: 2 plus the degeneracy ceiling of the uniform tree of spread t
    and height p, i.e. 2 + (sum_{i<=p} t^{i+2}) ** ((p+3)! * sum_{i<=p} t^i).

    Astronomically large: at (p=2, t=3) the value is 2 + 117^1560,
    beyond 10^3226.
    """
    _require_ints(p=(p, 2), t=(t, 3))
    return 2 + degeneracy_bound(_vertex_count(PatternSpec.uniform_tree(t, p)), t, t, p)


def k3t_total_bound(p: int, t: int, w: int) -> tuple[int, str]:
    """Linear-in-omega chi bound for the K_3(t)-subgraph-free case.

    Composes the balloon/biclique machinery with the biclique ceiling as
    the biclique term and phi(t, w) + 2 as the balloon term; only the
    phi term depends on w.  Returns the value and the phi branch used.
    """
    _require_ints(p=(p, 2), t=(t, 3), w=(w, 1))
    phi, branch = phi_upper(t, w)
    return mgun_bound(p, phi + 2, biclique_value_bound(p, t), t), branch


# ---------------------------------------------------------------------------
# Registry of cited chi-binding bounds


@dataclass(frozen=True)
class BoundRegistryEntry:
    """A named chi-versus-omega bound with citation text.

    ``threshold(graph, omega)`` returns the integer ceiling the
    chromatic number is compared against; ``relation`` is ``"le"`` or
    ``"eq"``.  ``filters`` is the hereditary class the bound is published
    for, as ``CorpusSpec(filters=...)`` takes it; it is empty for all
    graphs.
    """

    name: str
    threshold: Callable[[Graph, int], int]
    relation: str
    citation: str
    filters: tuple[PatternFilter, ...]


_REGISTRY: dict[str, BoundRegistryEntry] = {
    entry.name: entry
    for entry in (
        BoundRegistryEntry(
            name="degeneracy_plus_one",
            threshold=lambda g, w: degeneracy(g)[0] + 1,
            relation="le",
            citation="chi(G) <= degeneracy(G) + 1",
            filters=(),
        ),
        BoundRegistryEntry(
            name="p4free_equality",
            threshold=lambda g, w: w,
            relation="eq",
            citation="chi(G) = omega(G) on P4-free graphs",
            filters=_parse_filters("free:path:k=4"),
        ),
        BoundRegistryEntry(
            name="brause_p5c4",
            threshold=lambda g, w: -((-(5 * w - 1)) // 4),
            relation="le",
            citation="chi(G) <= ceil((5 omega - 1) / 4) on (P5, C4)-free graphs",
            filters=_parse_filters("free:path:k=5+free:cycle:k=4"),
        ),
    )
}


def registry_lookup(name: str) -> BoundRegistryEntry:
    """Fetch a registered bound by name; unknown names raise ``KeyError``."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown bound {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]
