"""Exact small-graph toolkit for chi-binding verification.

Layered API:

- :mod:`chibound.graph` -- immutable bitset graphs, BFS layers,
  connectivity, degeneracy
- :mod:`chibound.patterns` -- named pattern constructors and induced /
  subgraph detection
- :mod:`chibound.solvers` -- exact chi, omega, alpha
- :mod:`chibound.structures` -- balloons, bicliques, minimal cutsets and
  graph-class membership
- :mod:`chibound.bounds` -- arbitrary-precision bound formulas and the
  registry of cited chi-binding bounds, each carrying its class as
  corpus filters
- :mod:`chibound.corpus` -- graph generation and graph6 I/O
"""

from .graph import (
    CapExceeded,
    Graph,
    build_graph,
    degeneracy,
    induced,
    is_t_connected,
)
from .patterns import (
    Occurrence,
    PatternSpec,
    find_induced,
    find_subgraph,
    is_family_free,
    make_pattern,
)
from .solvers import (
    Coloring,
    chromatic_number,
    clique_number,
    independence_number,
)

__all__ = [
    "CapExceeded",
    "Graph",
    "build_graph",
    "degeneracy",
    "induced",
    "is_t_connected",
    "Occurrence",
    "PatternSpec",
    "find_induced",
    "find_subgraph",
    "is_family_free",
    "make_pattern",
    "Coloring",
    "chromatic_number",
    "clique_number",
    "independence_number",
]

__version__ = "0.1.0"
