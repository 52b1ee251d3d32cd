"""Undirected graph generators producing edge-list adjacency matrices.

Four families: the ring graph (each node tied to its k nearest neighbours
per direction), the complete graph as its k = floor(n/2) special case,
Erdos-Renyi, and Watts-Strogatz rewiring of the ring. Every graph is stored
as its i < j edge arrays; the dense n x n matrix is built only when read,
and a graph multiplies a vector by its adjacency matrix either through that
matrix or through its edges, whichever costs less.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._text import write_table
from .seeding import rng_for

__all__ = [
    "AdjacencyMatrix",
    "gen_ring",
    "gen_complete",
    "gen_erdos_renyi",
    "gen_watts_strogatz",
    "ring_generating_vector",
    "circulant",
    "write_edge_list",
    "read_edge_list",
]


# Measured cost of one product with a vector, in ns, with OpenBLAS on 2
# cores: dense BLAS per matrix entry (0.16 to 0.28 for n = 200..1500), and
# the edge-array sum per stored neighbour, 2 per edge (3.2 to 3.9), plus a
# fixed cost per call (5 to 10 us). product takes the edge arrays where they
# cost less: figure 4's n = 200 WS and ER graphs stay dense (8 us against 22
# and 36 us), WS(1500, 10, 0.1) does not (450 us against 113 us).
_DENSE_NS = 0.2
_EDGE_NS = 3.5
_EDGE_CALL_NS = 8000.0
# Erdos-Renyi draws this many pairs at a time (2 MiB of floats)
_ER_BLOCK_PAIRS = 1 << 18


def _real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real matrix m and an x shaped (n,) or (n, k).

    Viewing a complex x as interleaved real and imaginary parts turns the
    product into one real matrix product, with no complex copy of m.
    """
    if not np.iscomplexobj(x):
        return m @ x
    x = np.ascontiguousarray(x)
    y = m @ x.reshape(x.shape[0], -1).view(float)
    return y.view(complex).reshape(m.shape[0], *x.shape[1:])


@dataclass(eq=False)
class AdjacencyMatrix:
    """Simple undirected graph on nodes 0..n-1 with provenance metadata.

    The edges are stored as int arrays, edge e joining rows[e] < cols[e], in
    lexicographic order; the constructor sorts them and raises ValueError
    naming the first edge, in the order given, that is outside
    0 <= i < j < n or repeats an earlier one. Sorted intp arrays are kept as
    given, not copied, so they must not be changed. entries, the symmetric
    n x n float matrix of exact 0.0 and 1.0, is built from the arrays on
    first read and kept, read-only. from_dense builds a graph from such a
    matrix. product multiplies by the adjacency matrix, through the edge
    arrays where the graph is sparse, that is where the measured estimates
    above find them to cost less than entries. is_complete (read by the
    coupling kernel) and generating_vector (read by the closed form's route)
    come from the edges alone; kind and params (k, p, q, seed as applicable)
    only record the graph's provenance.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    _entries: np.ndarray | None = field(default=None, init=False, repr=False)
    _neighbours: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.n = int(self.n)
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        if (rows.ndim != 1 or rows.shape != cols.shape
                or rows.size and not (np.issubdtype(rows.dtype, np.integer)
                                      and np.issubdtype(cols.dtype, np.integer))):
            raise ValueError("edges must be two 1-d integer arrays of equal length")
        rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
        bad = np.flatnonzero((rows < 0) | (rows >= cols) | (cols >= self.n))
        stop = bad[0] if bad.size else rows.size
        key = rows[:stop] * self.n
        key += cols[:stop]
        order = slice(None)  # sorted without repeats, as generated or written
        if np.any(key[1:] <= key[:-1]):
            order = np.argsort(key, kind="stable")  # equal keys keep the order given
            repeats = order[1:][np.diff(key[order]) == 0]
            if repeats.size:
                e = repeats.min()
                raise ValueError(f"duplicate edge ({rows[e]}, {cols[e]})")
        if bad.size:
            e = bad[0]
            raise ValueError(f"edge ({rows[e]}, {cols[e]}) violates 0 <= i < j < n={self.n}")
        self.rows, self.cols = rows[order], cols[order]

    @classmethod
    def from_dense(cls, n: int, entries: np.ndarray) -> AdjacencyMatrix:
        """The graph of a symmetric n x n matrix of exact 0.0 and 1.0 with a zero diagonal."""
        entries = np.array(entries, dtype=float)
        if entries.shape != (n, n):
            raise ValueError(f"entries shape {entries.shape} does not match n={n}")
        if not np.array_equal(entries, entries.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(entries) != 0.0):
            raise ValueError("adjacency matrix must have a zero diagonal")
        if not np.all((entries == 0.0) | (entries == 1.0)):
            raise ValueError("adjacency entries must be exactly 0 or 1")
        rows, cols = np.nonzero(np.triu(entries, k=1))
        graph = cls(n, rows, cols)
        entries.flags.writeable = False
        graph._entries = entries
        return graph

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            entries = np.zeros((self.n, self.n))
            entries[self.rows, self.cols] = entries[self.cols, self.rows] = 1.0
            entries.flags.writeable = False
            self._entries = entries
        return self._entries

    @property
    def edge_count(self) -> int:
        return self.rows.size

    @property
    def sparse(self) -> bool:
        """Whether product sums over the edge arrays instead of reading entries:
        where that is estimated to cost less than BLAS on entries."""
        return _EDGE_CALL_NS + _EDGE_NS * 2 * self.edge_count < _DENSE_NS * self.n * self.n

    def product(self, x: np.ndarray) -> np.ndarray:
        """A x for x shaped (n,), or A applied to every row of x shaped (batch, n).

        x may be real or complex; the result is a new array of x's shape.
        On a sparse graph each node sums its neighbours' values, listed in
        ascending order, in O(edges) time and memory, and entries is never
        built. Otherwise it is one BLAS call on entries: a vector is multiplied
        as a column (A @ x), a real batch as rows (x @ A, A being symmetric),
        and complex values as interleaved real pairs.
        """
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"shape {x.shape} does not end in the node count {self.n}")
        if not self.sparse:
            if x.ndim == 2 and not np.iscomplexobj(x):
                return x @ self.entries
            return _real_matmul(self.entries, x.T).T
        if self._neighbours is None:
            # both directions of every edge, sorted by node, stably: node i
            # lists its neighbours below i, then those above, each ascending
            node = np.concatenate((self.cols, self.rows))
            order = np.argsort(node, kind="stable")
            counts = np.bincount(node, minlength=self.n)
            linked = np.flatnonzero(counts)
            starts = (np.cumsum(counts) - counts)[linked]
            self._neighbours = (np.concatenate((self.rows, self.cols))[order], starts, linked)
        neighbours, starts, linked = self._neighbours
        out = np.zeros(x.shape, dtype=np.result_type(x, float))
        if neighbours.size:
            # reduceat sums each start's segment up to the next start; an
            # isolated node has no segment, so only linked nodes get a sum
            out[..., linked] = np.add.reduceat(x[..., neighbours], starts, axis=-1)
        return out

    @property
    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def generating_vector(self) -> np.ndarray | None:
        """First row c of the adjacency matrix (floats) if it is circulant, else None.

        The matrix is circ(c) exactly when c (node 0's neighbours) is symmetric,
        c[j - i] = 1 on every edge (i, j), and 2m = n*sum(c). O(edges).
        """
        c = np.zeros(self.n)
        c[self.cols[:np.searchsorted(self.rows, 1)]] = 1.0
        if (np.array_equal(c[1:], c[:0:-1]) and c[self.cols - self.rows].all()
                and 2 * self.edge_count == self.n * np.count_nonzero(c)):
            return c
        return None

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate((self.rows, self.cols)), minlength=self.n)


def _check_ring_params(n: int, k: int, strict_k: bool = False) -> None:
    if int(n) != n or n < 2:
        raise ValueError(f"node count must be an integer >= 2, got {n}")
    k_max = n // 2 - 1 if strict_k else n // 2
    if int(k) != k or not 1 <= k <= k_max:
        raise ValueError(f"neighbor radius k={k} outside [1, {k_max}] for n={n}")


def gen_ring(n: int, k: int) -> AdjacencyMatrix:
    """Ring graph: i ~ j iff the circular distance min(|i-j|, n-|i-j|) is in [1, k].

    Every node has degree 2k, except that for even n and k = n/2 the antipodal
    neighbour is shared between the two directions and the degree is n - 1.
    """
    _check_ring_params(n, k)
    return AdjacencyMatrix(n, *_ring_edges(n, k), kind="ring", params={"k": int(k)})


def _ring_edges(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The i < j edge arrays of gen_ring(n, k), in lexicographic order.

    i < j are neighbours iff j - i is at most k or at least n - k, so node i
    meets i + o for the offsets o < n - i, ascending. Nodes k..n-k-1 keep
    exactly the offsets 1..k and are filled as one block.
    """
    offsets = np.concatenate((np.arange(1, k + 1), np.arange(max(k + 1, n - k), n)))
    counts = np.searchsorted(offsets, n - np.arange(n))
    rows = np.repeat(np.arange(n), counts)
    ends = np.cumsum(counts)
    cols = rows.copy()
    if k < n - k:
        block = cols[ends[k - 1]:ends[n - k - 1]].reshape(n - 2 * k, k)
        block += offsets[:k]
    for i in [*range(min(k, n - k)), *range(max(k, n - k), n)]:
        cols[ends[i] - counts[i]:ends[i]] += offsets[:counts[i]]
    return rows, cols


def gen_complete(n: int) -> AdjacencyMatrix:
    """Complete graph K_n, identical to gen_ring(n, floor(n/2))."""
    if int(n) != n or n < 2:
        raise ValueError(f"node count must be an integer >= 2, got {n}")
    return AdjacencyMatrix(n, *np.triu_indices(n, k=1), kind="complete", params={})


def gen_erdos_renyi(n: int, p: float, seed: int) -> AdjacencyMatrix:
    """Each unordered pair {i, j} is an edge independently with probability p.

    Pairs are decided in lexicographic (i, j) order from one dedicated RNG
    stream, so the output is reproducible for identical (n, p, seed).
    """
    if int(n) != n or n < 2:
        raise ValueError(f"node count must be an integer >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = rng_for(seed, "erdos_renyi")
    # pair (i, j > i) is number row_start[i] + j - i - 1 in that order; a block
    # of _ER_BLOCK_PAIRS draws at a time: numpy's generator yields the same
    # stream however its draws are split, so memory is O(block + edges)
    nodes = np.arange(n - 1)
    row_start = nodes * (2 * n - 1 - nodes) // 2
    pairs = n * (n - 1) // 2
    rows, cols = [], []
    for first in range(0, pairs, _ER_BLOCK_PAIRS):
        hits = np.flatnonzero(rng.random(min(_ER_BLOCK_PAIRS, pairs - first)) < p) + first
        i = np.searchsorted(row_start, hits, side="right") - 1
        rows.append(i)
        cols.append(hits - row_start[i] + i + 1)
    return AdjacencyMatrix(n, np.concatenate(rows), np.concatenate(cols), kind="erdos_renyi",
                           params={"p": float(p), "seed": int(seed)})


def gen_watts_strogatz(n: int, k: int, q: float, seed: int) -> AdjacencyMatrix:
    """Ring graph with each edge rewired with probability q.

    Visits the original ring edges once, in lexicographic (node, offset)
    order. A rewired edge (i, j) keeps its near endpoint i and reattaches the
    far endpoint to a node drawn uniformly, in ascending order, among those
    that create neither a self-loop nor a duplicate edge; j is one of them,
    so the edge may stay. Edge count n*k is conserved exactly.
    """
    # k < n/2 strictly, so every node has non-neighbours to rewire to
    _check_ring_params(n, k, strict_k=True)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"rewiring probability must lie in [0, 1], got {q}")
    rng = rng_for(seed, "watts_strogatz")
    neighbours = [{(i + d) % n for d in range(-k, k + 1) if d} for i in range(n)]
    for i in range(n):
        for off in range(1, k + 1):
            if rng.random() >= q:
                continue
            j = (i + off) % n
            neighbours[i].remove(j)
            neighbours[j].remove(i)
            # the m-th node, counted from 0, that is neither i nor a neighbour
            m = int(rng.integers(n - 1 - len(neighbours[i])))
            for skip in sorted(neighbours[i] | {i}):
                if skip > m:
                    break
                m += 1
            neighbours[i].add(m)
            neighbours[m].add(i)
    rows, cols = np.array([(i, j) for i in range(n) for j in neighbours[i] if i < j]).T
    return AdjacencyMatrix(n, rows, cols, kind="watts_strogatz",
                           params={"k": int(k), "q": float(q), "seed": int(seed)})


def ring_generating_vector(n: int, k: int) -> np.ndarray:
    """First row of the ring adjacency matrix, as floats: c[0] = 0, c[j] = 1
    iff the circular distance of offset j from node 0 lies in [1, k]."""
    _check_ring_params(n, k)
    offsets = np.arange(n)
    d = np.minimum(offsets, n - offsets)
    return ((d >= 1) & (d <= k)).astype(float)


def circulant(c: np.ndarray) -> np.ndarray:
    """Materialize the circulant matrix of a generating vector.

    Entry (i, j) holds c[(i - j) mod n]. For the symmetric vectors produced
    by ring_generating_vector this coincides with placing c in the first row,
    and it is the orientation diagonalized by the Fourier matrix in spectral.
    """
    vec = np.asarray(c, dtype=float)
    n = vec.size
    idx = np.arange(n)
    return vec[(idx[:, None] - idx[None, :]) % n]


def write_edge_list(a: AdjacencyMatrix, path: str | Path) -> None:
    """Plain-text edge list: first line "n m", then m lines "i j" with i < j, sorted."""
    write_table(path, f"{a.n} {a.edge_count}", np.column_stack((a.rows, a.cols)), sep=" ")


def read_edge_list(path: str | Path) -> AdjacencyMatrix:
    """Read an edge list in the format of write_edge_list, edges in any order.

    Blank lines are skipped. A malformed file raises ValueError: for a wrong
    header or edge count, or naming the first line, in file order, that is
    not two integers, lies outside 0 <= i < j < n, or repeats an earlier edge.
    np.loadtxt parses the header and the edges as one (m + 1, 2) table; a
    file it rejects is read again line by line, to find what is at fault.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file, named by the scan
            table = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2, encoding="ascii")
    except (ValueError, OverflowError):
        table = None
    if table is None or table.shape[1:] != (2,) or table[0, 0] < 1 \
            or table[0, 1] != len(table) - 1:  # the header's n < 1, or its m not the count
        table = _scan_edge_list(path)
    return AdjacencyMatrix(int(table[0, 0]), table[1:, 0], table[1:, 1], kind="custom",
                           params={"source": str(path)})


def _scan_edge_list(path: str | Path) -> np.ndarray:
    """read_edge_list's table, line by line, raising at the first fault."""
    with Path(path).open(encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty edge-list file: {path}")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"malformed edge-list header {lines[0]!r}") from exc
    if n < 1 or m < 0 or len(lines) - 1 != m:
        raise ValueError(f"edge-list header promises {m} edges, file has {len(lines) - 1}")
    table = np.full((m + 1, 2), (n, m), dtype=np.int64)  # the header row, then the edges
    for e in range(1, m + 1):
        try:
            i, j = lines[e].split()
            table[e] = int(i), int(j)
        except (ValueError, OverflowError):
            AdjacencyMatrix(n, table[1:e, 0], table[1:e, 1])  # the edges before it raise first
            raise ValueError(f"malformed edge line {lines[e]!r}") from None
    return table
