"""Exact small-graph toolkit for chi-binding verification.

Layered API:

- :mod:`chibound.graph` -- immutable bitset graphs, layers, connectivity,
  degeneracy
- :mod:`chibound.patterns` -- named pattern constructors and induced /
  subgraph detection
- :mod:`chibound.solvers` -- exact chi, omega, alpha
- :mod:`chibound.structures` -- balloons, bicliques, minimal cutsets and
  graph-class membership
- :mod:`chibound.bounds` -- arbitrary-precision bound formulas and the
  registry of cited chi-binding bounds
- :mod:`chibound.corpus` -- graph generation and graph6 / edge-list I/O
"""

from .graph import (
    CapExceeded,
    Graph,
    LayerDecomposition,
    build_graph,
    components,
    degeneracy,
    induced,
    is_t_connected,
    layers,
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
    optimal_binding_point,
)

__all__ = [
    "CapExceeded",
    "Graph",
    "LayerDecomposition",
    "build_graph",
    "components",
    "degeneracy",
    "induced",
    "is_t_connected",
    "layers",
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
    "optimal_binding_point",
]

__version__ = "0.1.0"
