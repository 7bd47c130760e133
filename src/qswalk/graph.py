"""Directed graphs, the Google matrix, and classical pagerank.

The stochastic-matrix convention is column-oriented throughout the
package: entry ``(i, j)`` of a :data:`StochasticMatrix` is the rate (or
probability) of moving *from node j to node i*, so columns sum to one
and stationary vectors are right eigenvectors, ``G @ pi = pi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, EdgeListError

# Column-stochastic n x n matrix (entry (i,j): j -> i) and a probability
# vector over nodes; plain ndarrays, the aliases document intent.
StochasticMatrix = np.ndarray
ProbabilityVector = np.ndarray

DEFAULT_DAMPING = 0.85
PAGERANK_TOL = 1e-12  # L1 change between iterates at which pagerank stops
PAGERANK_MAX_ITER = 100_000


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on nodes 0..n-1 with unweighted edges.

    ``edges`` holds ordered pairs (src, dst); duplicates are collapsed
    and self-loops are permitted.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a graph needs at least one node")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for (src, dst) in self.edges:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise ValueError(
                    f"edge ({src}, {dst}) out of range for n={self.n}"
                )

    def out_adjacency(self) -> np.ndarray:
        """0/1 matrix with entry (u, v) = 1 iff the edge u -> v exists."""
        a = np.zeros((self.n, self.n))
        src, dst = np.array(tuple(self.edges), dtype=np.intp).reshape(-1, 2).T
        a[src, dst] = 1.0
        return a


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse edge-list text into a :class:`DirectedGraph`.

    Format: one ``src dst`` pair per line, whitespace separated, 0-based
    indices.  An optional first record ``n <count>`` declares the node
    count (otherwise it is inferred as 1 + the largest index seen).
    Blank lines are skipped and ``#`` starts a comment.

    Raises :class:`EdgeListError` with the offending 1-based line number
    on malformed input.
    """
    declared_n: int | None = None
    edges: set[tuple[int, int]] = set()
    seen_record = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not seen_record and parts[0] == "n":
            if len(parts) != 2:
                raise EdgeListError("node-count line must be 'n <count>'", lineno)
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise EdgeListError(f"bad node count {parts[1]!r}", lineno) from None
            if declared_n < 1:
                raise EdgeListError(f"node count must be >= 1, got {declared_n}", lineno)
            seen_record = True
            continue
        seen_record = True
        if len(parts) != 2:
            raise EdgeListError(f"expected 'src dst', got {line!r}", lineno)
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"non-integer node index in {line!r}", lineno) from None
        if src < 0 or dst < 0:
            raise EdgeListError(f"negative node index in {line!r}", lineno)
        if max(src, dst) >= 1 << 20:
            raise EdgeListError(f"node index too large in {line!r}", lineno)
        if declared_n is not None and max(src, dst) >= declared_n:
            raise EdgeListError(
                f"edge index {max(src, dst)} exceeds declared node count {declared_n}",
                lineno,
            )
        edges.add((src, dst))

    inferred = 1 + max((max(e) for e in edges), default=-1)
    if declared_n is None:
        if not edges:
            raise EdgeListError("empty edge list with no 'n <count>' line")
        n = inferred
    else:
        n = declared_n
    return DirectedGraph(n=n, edges=frozenset(edges))


def symmetrized_adjacency(g: DirectedGraph) -> np.ndarray:
    """De-directed 0/1 adjacency: entry (i,j)=1 iff i->j or j->i, diag 0.

    Self-loops never contribute; the result equals its own transpose
    exactly.
    """
    a = g.out_adjacency()
    b = ((a + a.T) > 0).astype(float)
    np.fill_diagonal(b, 0.0)
    return b


def google_matrix(g: DirectedGraph, damping: float = DEFAULT_DAMPING) -> StochasticMatrix:
    """Damped, dangling-corrected column-stochastic matrix of ``g``.

    G = damping * S + (1 - damping)/n * J, where column j of S spreads
    probability uniformly over the out-neighbours of j (self-loops
    count), dangling columns are replaced by the uniform column, and J
    is the all-ones matrix.  For damping < 1 every entry is at least
    (1 - damping)/n.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    n = g.n
    a = g.out_adjacency()
    out_deg = a.sum(axis=1)
    dangling = out_deg == 0
    s = np.where(dangling, 1.0 / n, a.T / np.where(dangling, 1.0, out_deg))
    # C order, as consumers sum and multiply it row by row
    return np.ascontiguousarray(damping * s + (1.0 - damping) / n)


def pagerank(g_matrix: StochasticMatrix) -> ProbabilityVector:
    """Stationary distribution of a column-stochastic matrix.

    Power iteration from the uniform vector until the L1 change between
    iterates drops below ``PAGERANK_TOL``.  Raises :class:`ConvergenceError`
    with the residual if ``PAGERANK_MAX_ITER`` iterations do not get there
    (possible only for damping = 1 on a reducible or periodic graph).
    """
    g_matrix = np.asarray(g_matrix, dtype=float)
    if g_matrix.ndim != 2 or g_matrix.shape[0] != g_matrix.shape[1]:
        raise ValueError("expected a square matrix")
    n = g_matrix.shape[0]
    col_err = np.abs(g_matrix.sum(axis=0) - 1.0).max()
    if not (col_err <= 1e-10 and g_matrix.min() >= -1e-15):  # NaN fails too
        raise ValueError(f"matrix is not column-stochastic (column error {col_err:.2e})")

    x = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_MAX_ITER):
        y = g_matrix @ x
        y /= y.sum()  # guard against drift
        if np.abs(y - x).sum() <= PAGERANK_TOL:
            return y
        x = y
    residual = np.abs(g_matrix @ x - x).sum()
    raise ConvergenceError(
        f"pagerank did not reach tol={PAGERANK_TOL:g} in {PAGERANK_MAX_ITER} iterations "
        f"(residual {residual:.3e})"
    )
