"""Corpus generation and bit-exact graph6 I/O.

Generation modes: exhaustive enumeration (one canonical representative
per isomorphism class) and seeded random sampling.  Hereditary pattern
filters prune exhaustive generation level by level, which is what makes
filtered enumeration at nine vertices feasible.  graph6 is the
interchange format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .graph import CapExceeded, Graph, _is_int, _require_ints, build_graph, iter_bits
from .patterns import (
    PATTERN_KINDS,
    PatternSpec,
    _fitting,
    c4_flag_family,
    is_family_free,
    occurs_with_vertex,
)

EXHAUSTIVE_MAX_N = 10
DEDUP_MAX_N = 10


# ---------------------------------------------------------------------------
# graph6 codec


# graph6 stores the upper triangle column by column: bit x(i, j) of the
# edge ij, i < j, is stream bit j(j-1)/2 + i.  Read as one int with stream
# bit k at bit k, column j is the j bits from j(j-1)/2 up, which is
# exactly vertex j's row below j.  Each character carries six stream bits,
# the first one most significant, as its value plus 63.
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}
_G6_CHARS = {bits: chr(code) for code, bits in _G6_BITS.items()}


def write_graph6(g: Graph) -> str:
    """Encode to graph6: the vertex count then the upper triangle of the
    adjacency matrix column by column, six bits per printable character."""
    n = g.n
    if n <= 62:
        header = chr(n + 63)
    elif n <= 258047:
        header = "~" + "".join(
            chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    else:
        raise ValueError("graph6 encoding supported up to n = 258047")
    stream = 0
    for j in range(n - 1, 0, -1):
        stream = stream << j | g.adj[j] & ((1 << j) - 1)
    width = 6 * ((n * (n - 1) // 2 + 5) // 6)
    bits = format(stream, "b")[::-1].ljust(width, "0")  # only the first width bits are read
    return header + "".join(_G6_CHARS[bits[k : k + 6]] for k in range(0, width, 6))


def read_graph6(text: str) -> Graph:
    """Decode a graph6 line; strict about length, character range and padding.

    The body becomes one int whose column slices are the rows below each
    vertex (see ``_G6_BITS``); mirroring them upward gives the rows.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise ValueError(f"non-printable graph6 character {ch!r}")
    if s.startswith("~~"):
        raise ValueError("graph6 8-byte header '~~' (n > 258047) is not supported")
    if s[0] == "~":
        if len(s) < 4:
            raise ValueError("truncated graph6 header")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(body) != nchars:
        raise ValueError(
            f"graph6 body length {len(body)} does not match n={n} (want {nchars})"
        )
    stream = int(body.translate(_G6_BITS)[::-1], 2) if body else 0
    if stream >> nbits:
        raise ValueError("nonzero padding bits in graph6 body")
    adj = [0] * n
    for j in range(1, n):
        row = stream & ((1 << j) - 1)
        stream >>= j
        adj[j] |= row
        bit = 1 << j
        while row:
            low = row & -row
            adj[low.bit_length() - 1] |= bit
            row ^= low
    return Graph(tuple(adj))


# ---------------------------------------------------------------------------
# Canonical form


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Isomorphism-invariant key: the minimum upper-triangle bit string
    over all vertex orderings, in graph6 column order.

    One depth-first search over orderings, minimising column by column.
    An unplaced vertex's column against the placed prefix has one bit
    per placed vertex, first-placed most significant.  The search holds
    the columns as bit-planes, one per placed vertex: ``planes[i]`` masks
    the i-th placed vertex's neighbors among the vertices unplaced when
    it was placed, so bit w of it is bit i of w's column, and
    ``remaining`` masks the unplaced vertices.  One pass over the planes,
    most significant first, gives the least column and the vertices that
    reach it: ``ties`` starts as ``remaining``, and each plane keeps the
    tied vertices with a 0 there when there are any, and otherwise puts
    a 1 in the column.  Only the vertices with the least column can
    extend a minimal ordering.  Position 0 is the empty column, 0 for
    every vertex, so one call from the empty prefix covers every first
    vertex; the key leaves that column out.

    A node costs O(depth) int operations, one new tuple and at most one
    int comparison against the best key.  ``tight`` says that the prefix
    equals the best key's prefix of the same length.  While it does,
    only the new column is compared, with the best key's column at that
    depth: above it the node is dropped, below it the prefix is smaller
    and nothing under it is compared again.  A leaf is reached only
    below a prefix that is not larger, so it replaces the best key, and
    every node on its path, with the siblings that follow, is tight
    again.

    Of two tied candidates, taken in ascending id order, the second is
    skipped when the two are twins in g: their rows are equal (open
    twins) or become equal with their own bits added (closed twins).
    Swapping twins is an automorphism that fixes every other vertex, the
    placed prefix included, so the second subtree repeats the first's
    keys.  A node with one tied vertex has no twins to skip.
    """
    n, adj = g.n, g.adj
    best = (1 << n,)  # above every key; the first leaf replaces it

    def descend(
        planes: tuple[int, ...], remaining: int, cols: tuple[int, ...], tight: bool
    ) -> bool:
        """Search below the prefix ``cols``; True when a leaf replaced best."""
        nonlocal best
        if not remaining:
            best = cols
            return True
        ties, low = remaining, 0
        for plane in planes:
            zeros = ties & ~plane
            if zeros:
                ties, low = zeros, low << 1
            else:
                low = low << 1 | 1
        if tight:
            bound = best[len(cols)]
            if low > bound:
                return False
            tight = low == bound
        cols += (low,)
        if not ties & (ties - 1):
            rest = remaining & ~ties
            return descend(planes + (adj[ties.bit_length() - 1] & rest,), rest, cols, tight)
        replaced = False
        open_rows, closed_rows = set(), set()
        for u in iter_bits(ties):
            row, closed = adj[u], adj[u] | 1 << u
            if row in open_rows or closed in closed_rows:
                continue
            open_rows.add(row)
            closed_rows.add(closed)
            rest = remaining & ~(1 << u)
            if descend(planes + (row & rest,), rest, cols, tight):
                replaced = tight = True
        return replaced

    descend((), (1 << n) - 1, (), True)
    return (n, best[1:])


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return _graph_from_key(canonical_key(g))


def _graph_from_key(key: tuple[int, tuple[int, ...]]) -> Graph:
    """The graph whose upper-triangle columns are the key's."""
    n, cols = key
    edges = []
    for j in range(1, n):
        col = cols[j - 1]
        for i in range(j):
            if col >> (j - 1 - i) & 1:
                edges.append((i, j))
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# Corpus specification


@dataclass(frozen=True)
class PatternFilter:
    """Require the corpus graphs to be family-free in the given mode.

    The family is one pattern, or class H's induced C4 and p-flag: what
    the corpus grammar can print.  It is kept as a tuple whatever
    sequence is passed, so filters compare and hash by value.
    """

    family: tuple[PatternSpec, ...]
    induced: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", tuple(self.family))
        if not isinstance(self.induced, bool):
            raise ValueError(f"induced must be a bool, got {self.induced!r}")
        if not all(isinstance(spec, PatternSpec) for spec in self.family):
            raise ValueError(f"a filter family holds PatternSpecs, got {self.family}")
        if len(self.family) != 1 and self._class_h_p() is None:
            raise ValueError(f"a filter is one pattern or class H, got {self.family}")

    def _class_h_p(self) -> int | None:
        """p when this filter is class H (induced C4 and p-flag), else None."""
        if self.induced and len(self.family) == 2:
            p = self.family[1].values[0]
            if self.family == c4_flag_family(p):
                return p
        return None

    def admits(self, g: Graph) -> bool:
        ok, _ = is_family_free(g, self.family, induced=self.induced)
        return ok

    def admits_extension(self, g: Graph, new_vertex: int) -> bool:
        """Membership check for a one-vertex extension of a known member:
        any new occurrence must use the new vertex."""
        for h in _fitting(g.n, self.family):
            if occurs_with_vertex(g, h, new_vertex, induced=self.induced):
                return False
        return True

    def __str__(self) -> str:
        p = self._class_h_p()
        if p is not None:
            return f"H:p={p}"
        return f"{_FILTER_WORDS[self.induced]}:{self.family[0]}"


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic description of a graph corpus.

    Exhaustive mode yields one canonical representative per isomorphism
    class on n_min..n_max vertices and takes none of the sampling fields
    (``edge_prob``, ``count``, ``seed``, ``dedup``) off their defaults.
    Random mode samples G(n, p), with n = n_min = n_max, ``count`` times
    from ``seed``; ``dedup``, off by default, drops graphs isomorphic to
    one already yielded.  The field defaults here are the only ones: the
    string grammar fills in no value of its own.  Filters apply in both
    modes and are kept as a tuple, so a spec hashes and equals the one
    its string parses back to.
    """

    mode: str  # "exhaustive" | "random"
    n_min: int = 1
    n_max: int = 1
    edge_prob: float = 0.5
    count: int = 0
    seed: int = 0
    filters: tuple[PatternFilter, ...] = ()
    dedup: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "filters", tuple(self.filters))
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown corpus mode {self.mode!r}")
        # a field of another type would print a spec that does not parse back
        _require_ints(n_min=(self.n_min, 1), n_max=(self.n_max, self.n_min), count=(self.count, 0))
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not (_is_int(self.edge_prob) or isinstance(self.edge_prob, float)):
            raise ValueError(f"edge probability must be a number, got {self.edge_prob!r}")
        if not 0 <= self.edge_prob <= 1:
            raise ValueError(f"edge probability must lie in [0, 1], got {self.edge_prob}")
        if not isinstance(self.dedup, bool):
            raise ValueError(f"dedup must be a bool, got {self.dedup!r}")
        if not all(isinstance(f, PatternFilter) for f in self.filters):
            raise ValueError(f"corpus filters are PatternFilters, got {self.filters}")
        if self.mode == "exhaustive":
            off = {
                key: getattr(self, field)
                for key, (field, _) in _RANDOM_KEYS.items()
                if getattr(self, field) != getattr(CorpusSpec, field)
            }
            if off:
                raise ValueError(f"exhaustive mode takes no {'/'.join(_RANDOM_KEYS)}, got {off}")
        if self.mode == "random" and self.n_min != self.n_max:
            raise ValueError(
                f"random mode samples one vertex count, got {self.n_min}..{self.n_max}"
            )

    def __str__(self) -> str:
        if self.mode == "exhaustive":
            span = (
                f"n={self.n_max}"
                if self.n_min == self.n_max
                else f"n={self.n_min}..{self.n_max}"
            )
            parts = [f"exhaustive:{span}"]
        else:
            parts = [
                f"random:n={self.n_max},p={self.edge_prob},count={self.count},seed={self.seed}"
            ]
            if self.dedup:
                parts.append("dedup=1")
        if self.filters:
            parts.append("filters=" + "+".join(str(f) for f in self.filters))
        return ",".join(parts)


def enumerate_graphs(spec: CorpusSpec) -> Iterator[Graph]:
    """Yield the corpus for ``spec`` as a deterministic stream."""
    if spec.mode == "exhaustive":
        yield from _enumerate_exhaustive(spec)
    else:
        yield from _enumerate_random(spec)


def _enumerate_random(spec: CorpusSpec) -> Iterator[Graph]:
    if spec.dedup and spec.n_max > DEDUP_MAX_N:
        raise CapExceeded(f"isomorphism dedup supported up to n = {DEDUP_MAX_N}")
    rng = random.Random(spec.seed)
    seen: set[tuple] = set()
    n = spec.n_max
    for _ in range(spec.count):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < spec.edge_prob
        ]
        g = build_graph(n, edges)
        if not all(f.admits(g) for f in spec.filters):
            continue
        if spec.dedup:
            key = canonical_key(g)
            if key in seen:
                continue
            seen.add(key)
        yield g


def _enumerate_exhaustive(spec: CorpusSpec) -> Iterator[Graph]:
    """One canonical representative per isomorphism class, by levelwise
    one-vertex extension with canonical dedup.

    Every induced-subgraph-closed filter admits pruning during growth:
    a member on n vertices restricts to a member on n-1, so extending
    the level-(n-1) representatives, from the empty graph up, reaches
    every class, and extension checks only need to look at occurrences
    through the new vertex.
    """
    if spec.n_max > EXHAUSTIVE_MAX_N:
        raise CapExceeded(f"exhaustive mode supported up to n = {EXHAUSTIVE_MAX_N}")
    level: dict[tuple, Graph] = {(0, ()): Graph(())}
    for n in range(1, spec.n_max + 1):
        nxt: dict[tuple, Graph] = {}
        for parent in level.values():
            for mask in range(1 << (n - 1)):
                adj = list(parent.adj) + [mask]
                for v in iter_bits(mask):
                    adj[v] |= 1 << (n - 1)
                child = Graph(tuple(adj))
                if not all(
                    f.admits_extension(child, n - 1) for f in spec.filters
                ):
                    continue
                key = canonical_key(child)
                if key not in nxt:
                    nxt[key] = _graph_from_key(key)
        level = nxt
        if n >= spec.n_min:
            for key in sorted(nxt):
                yield nxt[key]


# ---------------------------------------------------------------------------
# String grammars (the CLI surface owns these shapes)


def _parse_params(
    text: str, names: tuple[str, ...], context: str, optional: tuple[str, ...] = ()
) -> dict[str, str]:
    """Parse "key=value,key=value" into raw values: each of ``names``
    exactly once, each of ``optional`` at most once, and no other key."""
    params: dict[str, str] = {}
    for item in text.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"bad parameter {item!r} in {context!r}")
        if key in params:
            raise ValueError(f"repeated parameter {key!r} in {context!r}")
        params[key] = value.strip()
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"{context!r} is missing parameter {missing[0]!r}")
    unknown = [key for key in params if key not in names + optional]
    if unknown:
        raise ValueError(
            f"unknown parameter {unknown[0]!r} in {context!r}; expected {names + optional}"
        )
    return params


def parse_pattern(text: str) -> PatternSpec:
    """Parse "kind:key=value,key=value" pattern strings, e.g. "broom:t=2,k=2".

    The inverse of ``PatternSpec.__str__``: every parameter of the kind
    must appear exactly once, and no other.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in PATTERN_KINDS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    names = PATTERN_KINDS[kind][0]
    params = _parse_params(rest, names, text)
    return PatternSpec(kind, tuple(_read(int, name, params[name], text) for name in names))


_VALUE_NOUNS = {int: "an int", float: "a number", bool: "0 or 1"}
_FLAGS = {"0": False, "1": True}


def _read(kind: type, key: str, text: str, context: str) -> int | float | bool:
    """The value text of ``key`` as an int, a float or a 0/1 flag; any
    other text raises ``ValueError`` naming the key and quoting
    ``context``, the spec being read."""
    try:
        return _FLAGS[text] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(
            f"{key} must be {_VALUE_NOUNS[kind]}, got {text!r} in {context!r}"
        ) from None


# Random mode's optional grammar keys: key -> (CorpusSpec field, value
# type).  Exhaustive mode takes none of them.
_RANDOM_KEYS: dict[str, tuple[str, type]] = {
    "p": ("edge_prob", float),
    "count": ("count", int),
    "seed": ("seed", int),
    "dedup": ("dedup", bool),
}


def parse_corpus_spec(text: str) -> CorpusSpec:
    """Parse corpus strings, the inverse of ``CorpusSpec.__str__``.

    Examples::

        exhaustive:n=4
        exhaustive:n=1..7,filters=free:path:k=4
        exhaustive:n=1..9,filters=H:p=2+free:bplus:p=2,k=2,t=3
        random:n=8,p=0.5,count=200,seed=7,dedup=1

    ``n`` is ``a`` or ``a..b`` in both modes (random mode takes one
    count); each field of the mode appears at most once and no other
    field is accepted.  A field left out keeps its ``CorpusSpec``
    default, so ``random:n=5`` is ``CorpusSpec("random", 5, 5)``.
    """
    text = text.strip()
    mode, _, rest = text.partition(":")
    mode = mode.lower()
    CorpusSpec(mode)  # refuses an unknown mode before its keys are read
    filters: tuple[PatternFilter, ...] = ()
    if "filters=" in rest:
        head, _, filter_text = rest.partition("filters=")
        filters = _parse_filters(filter_text)
        rest = head.rstrip(",")
    fields = _parse_params(rest, ("n",), text, tuple(_RANDOM_KEYS) if mode == "random" else ())
    lo, dots, hi = fields.pop("n").partition("..")
    n_min = _read(int, "n", lo, text)
    n_max = _read(int, "n", hi, text) if dots else n_min
    given = {
        field: _read(kind, key, fields[key], text)
        for key, (field, kind) in _RANDOM_KEYS.items()
        if key in fields
    }
    return CorpusSpec(mode, n_min, n_max, filters=filters, **given)


# The grammar word of a one-pattern filter, indexed by its induced flag.
_FILTER_WORDS = ("nosub", "free")


def _parse_filters(text: str) -> tuple[PatternFilter, ...]:
    """Filters are joined by "+": "H:p=2", "free:<pattern>", "nosub:<pattern>".

    Every chunk between the "+" signs must be a filter: an empty one
    would not survive the round trip through ``CorpusSpec.__str__``.
    """
    out: list[PatternFilter] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty filter in {text!r}")
        head, _, rest = chunk.partition(":")
        head = head.lower()
        if head == "h":
            p = _read(int, "p", _parse_params(rest, ("p",), chunk)["p"], chunk)
            out.append(PatternFilter(family=c4_flag_family(p), induced=True))
        elif head in _FILTER_WORDS:
            induced = bool(_FILTER_WORDS.index(head))
            out.append(PatternFilter(family=(parse_pattern(rest),), induced=induced))
        else:
            raise ValueError(f"unknown filter {chunk!r}")
    return tuple(out)
