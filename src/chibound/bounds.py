"""Arbitrary-precision evaluators for every closed-form chi-binding bound.

Values here overflow 64 bits by thousands of digits at the smallest
legal parameters, so everything stays in exact Python integers; a
floating log2 hint rides along for human-readable reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .graph import Graph, degeneracy


@dataclass(frozen=True)
class BoundValue:
    """An exact nonnegative integer with a display-only log2 approximation."""

    value: int
    log2_hint: float

    def __int__(self) -> int:
        return self.value


def _log2_exact_enough(n: int) -> float:
    if n < 0:
        raise ValueError("bound values are nonnegative")
    if n == 0:
        return float("-inf")
    bits = n.bit_length()
    if bits <= 512:
        return math.log2(n)
    shift = bits - 64
    return math.log2(n >> shift) + shift


def bound_value(n: int) -> BoundValue:
    return BoundValue(n, _log2_exact_enough(n))


def ramsey_upper(s: int, t: int) -> BoundValue:
    """Binomial upper bound C(s+t-2, t-1) on the Ramsey number R(s,t)."""
    if s < 1 or t < 1:
        raise ValueError("s and t must be >= 1")
    return bound_value(math.comb(s + t - 2, t - 1))


@dataclass(frozen=True)
class PhiUpper:
    """Upper bound on the C4-free Ramsey number, tagged with its source branch.

    ``candidates`` holds every formula applicable at the arguments, so
    reports can state exactly which published form was tested.
    """

    value: BoundValue
    branch: str
    candidates: tuple[tuple[str, int], ...]

    def __int__(self) -> int:
        return self.value.value


def phi_upper(n: int, w: int) -> PhiUpper:
    """Tightest applicable upper bound on the C4-free Ramsey number phi(n, w).

    Branches: ``floor(5(w-1)/2) + 1`` at n=3; ``C(n,2)(w-2) + n`` for
    n>3, w>1; the unified ``C(n,2)(w-1)+ n`` as the w=1 fallback.
    """
    if n < 3 or w < 1:
        raise ValueError("need n >= 3 and w >= 1")
    unified = math.comb(n, 2) * (w - 1) + n
    candidates: list[tuple[str, int]] = [("unified", unified)]
    if n == 3:
        value = 5 * (w - 1) // 2 + 1
        candidates.append(("claim21", value))
        branch = "claim21"
    elif w > 1:
        value = math.comb(n, 2) * (w - 2) + n
        candidates.append(("claim23", value))
        branch = "claim23"
    else:
        value = unified
        branch = "unified"
    return PhiUpper(bound_value(value), branch, tuple(candidates))


def mgun_bound(p: int, q: int, s: int, t: int) -> BoundValue:
    """Chromatic bound for graphs with no (p,t)-balloon of value >= q and
    no t-biclique of value s:  (sum_{i<p} t^i) (s + t(2t+9)) + t^p q."""
    if min(p, q, s, t) < 1:
        raise ValueError("all parameters must be >= 1")
    prefix = sum(t**i for i in range(p))
    return bound_value(prefix * (s + t * (2 * t + 9)) + t**p * q)


def theorem_f(p: int, t: int, d: int) -> BoundValue:
    """Recursive chi bound for the C4-free p-flag-free class without a
    K_d(t) subgraph, excluding the broom-plus tree.

    Base d=1 gives t-1 (graphs without K_1(t) have fewer than t
    vertices); each induction step plugs the previous bound into the
    balloon/biclique machinery with balloon threshold
    C(t,2)(dt-1) + t + 2.
    """
    if p < 2 or t < 3 or d < 1:
        raise ValueError("need p >= 2, t >= 3, d >= 1")
    value = t - 1
    for level in range(2, d + 1):
        balloon_term = math.comb(t, 2) * (level * t - 1) + t + 2
        value = mgun_bound(p, balloon_term, value + 1, t).value
    return bound_value(value)


def s_star_theorem_f(p: int, t: int, d: int) -> BoundValue:
    """Same induction as :func:`theorem_f` for the two-arm-star exclusion,
    with the balloon threshold replaced by dt + 2."""
    if p < 1 or t < 5 or d < 1:
        raise ValueError("need p >= 1, t >= 5, d >= 1")
    value = t - 1
    for level in range(2, d + 1):
        value = mgun_bound(p, level * t + 2, value + 1, t).value
    return bound_value(value)


def biclique_value_bound(p: int, t: int) -> BoundValue:
    """Ceiling on t-biclique values in K_3(t)-subgraph-free broom-plus-free
    graphs: 2 + (sum_{i<=p} t^{i+2}) ** ((p+3)! * sum_{i<=p} t^i).

    Astronomically large: at (p=2, t=3) the value is 2 + 117^1560,
    beyond 10^3226.
    """
    if p < 2 or t < 3:
        raise ValueError("need p >= 2, t >= 3")
    base = sum(t ** (i + 2) for i in range(p + 1))
    exponent = math.factorial(p + 3) * sum(t**i for i in range(p + 1))
    return bound_value(2 + base**exponent)


def degeneracy_bound(h: int, zeta: int, t: int, eta: int) -> BoundValue:
    """Degeneracy ceiling (h * zeta * t) ** ((eta+3)! * h) for graphs with
    no K_{t,t} subgraph excluding a rooted tree of order h, height <= eta
    and spread <= zeta."""
    if h < 1 or zeta < 2 or t < 1 or eta < 1:
        raise ValueError("need h >= 1, zeta >= 2, t >= 1, eta >= 1")
    c = math.factorial(eta + 3) * h
    return bound_value((h * zeta * t) ** c)


def k3t_total_bound(p: int, t: int, w: int) -> tuple[BoundValue, str]:
    """Linear-in-omega chi bound for the K_3(t)-subgraph-free case.

    Composes the balloon/biclique machinery with the biclique ceiling as
    the biclique term and phi(t, w) + 2 as the balloon term; only the
    phi term depends on w.  Returns the value and the phi branch used.
    """
    if p < 2 or t < 3 or w < 1:
        raise ValueError("need p >= 2, t >= 3, w >= 1")
    phi = phi_upper(t, w)
    return mgun_bound(p, phi.value.value + 2, biclique_value_bound(p, t).value, t), phi.branch


# ---------------------------------------------------------------------------
# Registry of cited chi-binding bounds


@dataclass(frozen=True)
class BoundRegistryEntry:
    """A named chi-versus-omega bound with citation text.

    ``threshold(graph, omega)`` returns the integer ceiling the
    chromatic number is compared against; ``relation`` is ``"le"`` or
    ``"eq"``.  ``class_description`` states the hereditary class the
    bound is published for; suites supply the matching filter.
    """

    name: str
    threshold: Callable[[Graph, int], int]
    relation: str
    citation: str
    class_description: str


_REGISTRY: dict[str, BoundRegistryEntry] = {}


def _register(entry: BoundRegistryEntry) -> None:
    _REGISTRY[entry.name] = entry


_register(
    BoundRegistryEntry(
        name="degeneracy_plus_one",
        threshold=lambda g, w: degeneracy(g)[0] + 1,
        relation="le",
        citation="chi(G) <= degeneracy(G) + 1",
        class_description="all graphs",
    )
)
_register(
    BoundRegistryEntry(
        name="p4free_equality",
        threshold=lambda g, w: w,
        relation="eq",
        citation="chi(G) = omega(G) on P4-free graphs",
        class_description="P4-free graphs",
    )
)
_register(
    BoundRegistryEntry(
        name="brause_p5c4",
        threshold=lambda g, w: -((-(5 * w - 1)) // 4),
        relation="le",
        citation="chi(G) <= ceil((5 omega - 1) / 4) on (P5, C4)-free graphs",
        class_description="(P5, C4)-free graphs",
    )
)
_register(
    BoundRegistryEntry(
        name="cameron_p6diamond",
        threshold=lambda g, w: w + 3,
        relation="le",
        citation="chi(G) <= omega(G) + 3 on (P6, diamond)-free graphs",
        class_description="(P6, diamond)-free graphs",
    )
)
_register(
    BoundRegistryEntry(
        name="chudnovsky_c4_2broom",
        threshold=lambda g, w: (3 * w) // 2,
        relation="le",
        citation="chi(G) <= (3/2) omega(G) on (C4, 2-broom)-free graphs",
        class_description="(C4, 2-broom)-free graphs",
    )
)


def registry_lookup(name: str) -> BoundRegistryEntry:
    """Fetch a registered bound by name; unknown names raise ``KeyError``."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown bound {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def registry_names() -> list[str]:
    return sorted(_REGISTRY)
