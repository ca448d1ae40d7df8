"""Weighted undirected graph snapshots, dynamic series, SBM generation and edge-list I/O."""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dyngem.errors import ConfigError, ParseError

SNAPSHOT_GLOB = "snapshot_*.edges"
SNAPSHOT_FMT = "snapshot_{:04d}.edges"


class _InvalidEdge(ValueError):
    """An invalid edge, with its position in the input."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


def _canonical_edges(n, edges):
    """``(heads, tails, weights)`` arrays of a ``{(i, j): w}`` dict, an
    iterable of ``(i, j, w)`` or an (m, 3) array of them, each pair stored
    as ``i < j`` and sorted by ``(i, j)``.

    Raises ``_InvalidEdge`` at the first edge in input order that is a
    self-loop, leaves 0..n-1, has a weight that is not positive and finite,
    or repeats an earlier undirected pair.
    """
    if hasattr(edges, "items"):
        edges = [(i, j, w) for (i, j), w in edges.items()]
    if not isinstance(edges, np.ndarray):  # an array goes in whole, not as m row objects
        edges = list(edges) or np.empty((0, 3))
    triples = np.asarray(edges, dtype=np.float64)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError("edges must be (i, j, w) triples")
    i, j, w = triples[:, 0].astype(np.intp), triples[:, 1].astype(np.intp), triples[:, 2]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((hi, lo))
    repeat = np.zeros(i.size, dtype=bool)
    repeat[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    checks = (
        (i == j, "self-loop on node {i} is not allowed"),
        ((i < 0) | (i >= n) | (j < 0) | (j >= n), "edge ({i}, {j}) out of range for node_count {n}"),
        (~(w > 0.0) | ~np.isfinite(w), "edge ({i}, {j}) must have a positive finite weight, got {w}"),
        (repeat, "duplicate undirected edge ({lo}, {hi})"),
    )
    bad = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
    if bad.size:
        k = int(bad[0])
        message = next(text for mask, text in checks if mask[k])
        raise _InvalidEdge(k, message.format(i=i[k], j=j[k], n=n, w=float(w[k]), lo=lo[k], hi=hi[k]))
    return lo[order], hi[order], w[order]


class GraphSnapshot:
    """One weighted undirected graph over dense node ids 0..node_count-1.

    The edges are stored once, in the ``heads``, ``tails`` and ``weights``
    arrays: one entry per undirected pair ``(i, j)`` with ``i < j``, sorted
    by ``(i, j)``.  A symmetric CSR view built from them extracts rows of
    the adjacency matrix cheaply.  ``edges`` accepts a ``{(i, j): w}`` dict,
    an iterable of ``(i, j, w)`` or an (m, 3) array.  Instances and their
    arrays are treated as immutable after construction.
    """

    def __init__(self, node_count, edges=()):
        if not isinstance(node_count, (int, np.integer)) or node_count < 0:
            raise ValueError(f"node_count must be a non-negative integer, got {node_count!r}")
        self._n = int(node_count)
        self.heads, self.tails, self.weights = _canonical_edges(self._n, edges)
        self._build_csr()

    def _build_csr(self):
        rows = np.concatenate([self.heads, self.tails])
        cols = np.concatenate([self.tails, self.heads])
        order = np.lexsort((cols, rows))
        self._indices = cols[order]
        self._data = np.concatenate([self.weights, self.weights])[order]
        counts = np.bincount(rows, minlength=self._n)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)

    @property
    def node_count(self):
        return self._n

    @property
    def edge_count(self):
        return self.heads.size

    def edges(self):
        """Canonical edge list, sorted tuples ``(i, j, w)`` with ``i < j``."""
        return list(zip(self.heads.tolist(), self.tails.tolist(), self.weights.tolist()))

    def csr_rows(self, nodes):
        """Adjacency rows for an array of node ids in CSR form:
        ``(indptr, indices, data)``, each row's columns sorted."""
        nodes = np.asarray(nodes, dtype=np.intp)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._n):
            raise IndexError("node id out of range")
        starts = self._indptr[nodes]
        counts = self._indptr[nodes + 1] - starts
        indptr = np.zeros(nodes.size + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        src = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return indptr, self._indices[src], self._data[src]

    def dense_rows(self, nodes):
        """Dense adjacency rows for an array of node ids, shape (len(nodes), n)."""
        indptr, indices, data = self.csr_rows(nodes)
        out = np.zeros((indptr.size - 1, self._n), dtype=np.float64)
        out[np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), indices] = data
        return out

    def __eq__(self, other):
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self.heads, other.heads)
            and np.array_equal(self.tails, other.tails)
            and np.array_equal(self.weights, other.weights)
        )

    __hash__ = None

    def __repr__(self):
        return f"GraphSnapshot(node_count={self._n}, edge_count={self.edge_count})"


@dataclass(frozen=True)
class DynamicGraph:
    """An ordered series of snapshots with a non-decreasing node set."""

    snapshots: tuple

    def __init__(self, snapshots):
        snaps = tuple(snapshots)
        if not snaps:
            raise ValueError("a dynamic graph needs at least one snapshot")
        for prev, cur in zip(snaps, snaps[1:]):
            if cur.node_count < prev.node_count:
                raise ValueError("node counts must be non-decreasing across snapshots")
        object.__setattr__(self, "snapshots", snaps)

    def __len__(self):
        return len(self.snapshots)

    def __getitem__(self, t):
        return self.snapshots[t]

    def __iter__(self):
        return iter(self.snapshots)

    @property
    def node_counts(self):
        return [s.node_count for s in self.snapshots]


@dataclass(frozen=True)
class SbmConfig:
    """Stochastic block model series: equal-size communities plus node migration.

    Every step after the first moves ``migrate_per_step`` uniformly chosen
    nodes to a different community and re-samples only the edges incident to
    the moved nodes; all other edges carry over unchanged.
    """

    node_count: int
    p_in: float
    p_out: float
    steps: int
    communities: int = 3
    migrate_per_step: int = 0
    edge_weight: float = 1.0

    def __post_init__(self):
        if self.node_count < 1:
            raise ConfigError("node_count must be at least 1")
        if self.communities < 1:
            raise ConfigError("communities must be at least 1")
        if self.communities > self.node_count:
            raise ConfigError("communities cannot exceed node_count")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ConfigError("need 0 <= p_out <= p_in <= 1")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if not (0 <= self.migrate_per_step < self.node_count):
            raise ConfigError("migrate_per_step must be in [0, node_count)")
        if not (self.edge_weight > 0):
            raise ConfigError("edge_weight must be positive")


def _sample_block_edges(rng, labels, config):
    n = labels.size
    w = config.edge_weight
    edges = {}
    for i in range(n - 1):
        draws = rng.random(n - 1 - i)
        p = np.where(labels[i + 1 :] == labels[i], config.p_in, config.p_out)
        for j in np.nonzero(draws < p)[0]:
            edges[(i, i + 1 + int(j))] = w
    return edges


def _resample_incident(rng, edges, labels, movers, config):
    mset = set(int(m) for m in movers)
    out = {e: w for e, w in edges.items() if e[0] not in mset and e[1] not in mset}
    n = labels.size
    w = config.edge_weight
    for m in movers:
        m = int(m)
        draws = rng.random(n)
        p = np.where(labels == labels[m], config.p_in, config.p_out)
        for j in np.nonzero(draws < p)[0]:
            j = int(j)
            if j == m:
                continue
            if j in mset and j < m:
                continue  # pair already re-sampled when j was processed
            out[(m, j) if m < j else (j, m)] = w
    return out


def generate_sbm_series(config, seed):
    """Generate a DynamicGraph plus the per-step community label matrix.

    Returns ``(graph, labels)`` where ``labels`` has shape (steps, node_count).
    Byte-identical output for identical ``(config, seed)``.
    """
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    n, k = config.node_count, config.communities
    sizes = [n // k + (1 if c < n % k else 0) for c in range(k)]
    labels = np.repeat(np.arange(k), sizes)
    edges = _sample_block_edges(rng, labels, config)
    snaps = [GraphSnapshot(n, edges)]
    label_steps = [labels.copy()]
    for _ in range(1, config.steps):
        labels = labels.copy()
        if config.migrate_per_step:
            movers = np.sort(rng.choice(n, size=config.migrate_per_step, replace=False))
            if k > 1:
                for m in movers:
                    others = np.delete(np.arange(k), labels[m])
                    labels[m] = rng.choice(others)
            edges = _resample_incident(rng, edges, labels, movers, config)
        snaps.append(GraphSnapshot(n, edges))
        label_steps.append(labels.copy())
    return DynamicGraph(snaps), np.array(label_steps)


def _parse_snapshot_text(text):
    """The snapshot in an edge-list file's text, converted from its token list
    at once (lines split as the file iterator splits them).  Ids convert as
    ``int()`` and weights as ``float()`` do; raises ValueError or OverflowError
    on all that the line loop of :func:`load_snapshot` rejects, and on ids
    beyond intp."""
    if "#" in text:
        text = "\n".join(line for line in text.split("\n") if not line.lstrip().startswith("#"))
    # fields per significant line, counted without keeping each line's list
    counts = list(filter(None, map(len, map(str.split, text.split("\n")))))
    tokens = text.split()
    if not counts or counts[0] != 2 or tokens[0] != "n" or set(counts[1:]) - {3}:
        raise ValueError("no 'n <node_count>' header, or an edge line without three fields")
    node_count = int(tokens[1])
    ids = [np.array(tokens[k::3], dtype=np.intp) for k in (2, 3)]
    edges = np.column_stack((*ids, np.array(tokens[4::3], dtype=np.float64)))
    del text, tokens, ids  # freed before the snapshot's sorts: the peak stays the line loop's
    # GraphSnapshot rejects a negative node count and ids out of range
    return GraphSnapshot(node_count, edges)


def load_snapshot(path):
    """Parse one edge-list file.

    Format: UTF-8 text, lines starting with ``#`` and blank lines ignored,
    first significant line ``n <node_count>``, then one ``<i> <j> <w>`` line
    per undirected edge with ``i != j`` and ``w > 0``; each pair may appear
    at most once.  A file the one-pass parse rejects is parsed again line by
    line, so the ParseError names the first bad line.
    """
    path = Path(path)
    # a UnicodeDecodeError and an _InvalidEdge are ValueErrors too
    with suppress(ValueError, OverflowError), open(path, encoding="utf-8") as fh:
        return _parse_snapshot_text(fh.read())
    node_count = None
    triples, linenos = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if node_count is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ParseError(f"{path}:{lineno}: expected header 'n <node_count>'")
                try:
                    node_count = int(parts[1])
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: node count {parts[1]!r} is not an integer") from None
                if node_count < 0:
                    raise ParseError(f"{path}:{lineno}: node count must be non-negative")
                continue
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected '<i> <j> <w>'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: node ids must be integers") from None
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: weight {parts[2]!r} is not a number") from None
            # checked here because ids beyond intp would not survive the array conversion
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ParseError(f"{path}:{lineno}: node id out of range for n {node_count}")
            triples.append((i, j, w))
            linenos.append(lineno)
    if node_count is None:
        raise ParseError(f"{path}: missing 'n <node_count>' header")
    try:
        return GraphSnapshot(node_count, triples)
    except _InvalidEdge as exc:
        raise ParseError(f"{path}:{linenos[exc.index]}: {exc}") from None


def save_snapshot(snapshot, path):
    """Write one snapshot in the edge-list format; load/save round-trips exactly."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {snapshot.node_count}\n")
        for i, j, w in snapshot.edges():
            fh.write(f"{i} {j} {w!r}\n")
    return path


def series_files(dirpath):
    """The ``snapshot_<t>.edges`` files of a directory in order of the
    integer step ``t``, so unpadded names come in step order too."""
    dirpath = Path(dirpath)
    files = {}
    for path in sorted(dirpath.glob(SNAPSHOT_GLOB)):
        match = re.fullmatch(r"snapshot_([0-9]+)\.edges", path.name)
        if match is None:
            raise ConfigError(f"{path}: snapshot file name has no integer step")
        step = int(match.group(1))
        if step in files:
            raise ConfigError(f"{files[step]} and {path} both hold step {step}")
        files[step] = path
    if not files:
        raise ConfigError(f"no {SNAPSHOT_GLOB} files found in {dirpath}")
    return [files[t] for t in sorted(files)]


def load_series(dirpath):
    """Load the snapshot files of a directory in step order (``series_files``)."""
    return DynamicGraph([load_snapshot(path) for path in series_files(dirpath)])


def save_series(graph, dirpath):
    """Write every snapshot of a series into a directory."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    paths = []
    for t, snap in enumerate(graph):
        paths.append(save_snapshot(snap, dirpath / SNAPSHOT_FMT.format(t)))
    return paths


def hide_edges(snapshot, fraction, seed):
    """Remove ``round(fraction * edge_count)`` uniformly chosen edges.

    Returns ``(train_snapshot, hidden)`` where ``hidden`` is the sorted list
    of removed ``(i, j, w)`` tuples; the node count is unchanged so isolated
    nodes may remain.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    m = snapshot.edge_count
    if m == 0:
        raise ValueError("cannot hide edges of an empty graph")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(m, size=int(round(fraction * m)), replace=False)
    mask = np.zeros(m, dtype=bool)
    mask[chosen] = True
    parts = (snapshot.heads, snapshot.tails, snapshot.weights)
    hidden = list(zip(*(a[mask].tolist() for a in parts)))
    kept = zip(*(a[~mask] for a in parts))
    return GraphSnapshot(snapshot.node_count, kept), hidden
