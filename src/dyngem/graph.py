"""Weighted undirected graph snapshots, dynamic series, SBM generation and edge-list I/O."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dyngem.errors import ConfigError, ParseError

SNAPSHOT_GLOB = "snapshot_*.edges"
SNAPSHOT_FMT = "snapshot_{:04d}.edges"


class GraphSnapshot:
    """One weighted undirected graph over dense node ids 0..node_count-1.

    Each edge is stored once under its canonical key ``(i, j)`` with
    ``i < j``; a symmetric CSR view is built eagerly so that rows of the
    adjacency matrix can be extracted cheaply.  Instances are treated as
    immutable after construction.
    """

    def __init__(self, node_count, edges=()):
        if not isinstance(node_count, (int, np.integer)) or node_count < 0:
            raise ValueError(f"node_count must be a non-negative integer, got {node_count!r}")
        self._n = int(node_count)
        canonical = {}
        items = edges.items() if hasattr(edges, "items") else edges
        for entry in items:
            if hasattr(edges, "items"):
                (i, j), w = entry
            else:
                i, j, w = entry
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError(f"self-loop on node {i} is not allowed")
            if not (0 <= i < self._n and 0 <= j < self._n):
                raise ValueError(f"edge ({i}, {j}) out of range for node_count {self._n}")
            if not (w > 0.0) or not np.isfinite(w):
                raise ValueError(f"edge ({i}, {j}) must have a positive finite weight, got {w}")
            key = (i, j) if i < j else (j, i)
            if key in canonical:
                raise ValueError(f"duplicate undirected edge ({key[0]}, {key[1]})")
            canonical[key] = w
        self._edges = canonical
        self._edge_list = sorted((i, j, w) for (i, j), w in canonical.items())
        self._build_csr()

    def _build_csr(self):
        n, m = self._n, len(self._edges)
        if m:
            heads = np.fromiter((e[0] for e in self._edge_list), dtype=np.intp, count=m)
            tails = np.fromiter((e[1] for e in self._edge_list), dtype=np.intp, count=m)
            wts = np.fromiter((e[2] for e in self._edge_list), dtype=np.float64, count=m)
            rows = np.concatenate([heads, tails])
            cols = np.concatenate([tails, heads])
            data = np.concatenate([wts, wts])
            order = np.lexsort((cols, rows))
            self._indices = cols[order]
            self._data = data[order]
            counts = np.bincount(rows, minlength=n)
        else:
            self._indices = np.empty(0, dtype=np.intp)
            self._data = np.empty(0, dtype=np.float64)
            counts = np.zeros(n, dtype=np.intp)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)

    @property
    def node_count(self):
        return self._n

    @property
    def edge_count(self):
        return len(self._edges)

    def edges(self):
        """Canonical edge list, sorted tuples ``(i, j, w)`` with ``i < j``."""
        return list(self._edge_list)

    def weight(self, i, j):
        """Weight of the undirected edge between i and j, or 0.0 if absent."""
        key = (i, j) if i < j else (j, i)
        return self._edges.get(key, 0.0)

    def neighbors(self, node):
        """Sorted neighbor ids and their weights for one node (views)."""
        if not (0 <= node < self._n):
            raise IndexError(f"node {node} out of range for node_count {self._n}")
        lo, hi = self._indptr[node], self._indptr[node + 1]
        return self._indices[lo:hi], self._data[lo:hi]

    def neighbor_vector(self, node):
        """Dense adjacency row s_i as a float64 vector of length node_count."""
        idx, wts = self.neighbors(node)
        vec = np.zeros(self._n, dtype=np.float64)
        vec[idx] = wts
        return vec

    def dense_rows(self, nodes):
        """Dense adjacency rows for an array of node ids, shape (len(nodes), n)."""
        nodes = np.asarray(nodes, dtype=np.intp)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._n):
            raise IndexError("node id out of range")
        out = np.zeros((nodes.size, self._n), dtype=np.float64)
        starts = self._indptr[nodes]
        counts = self._indptr[nodes + 1] - starts
        total = int(counts.sum())
        if total:
            rows = np.repeat(np.arange(nodes.size), counts)
            offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            src = np.repeat(starts, counts) + offsets
            out[rows, self._indices[src]] = self._data[src]
        return out

    def induced_adjacency(self, node_set):
        """Dense symmetric adjacency over a sorted node subset.

        ``node_set`` must be strictly increasing and within range; the result
        has a zero diagonal and shape (len(node_set), len(node_set)).
        """
        ns = np.asarray(node_set, dtype=np.intp)
        if ns.size:
            if np.any(np.diff(ns) <= 0):
                raise ValueError("node_set must be sorted and free of duplicates")
            if ns[0] < 0 or ns[-1] >= self._n:
                raise IndexError("node_set contains ids out of range")
        pos = np.full(self._n, -1, dtype=np.intp)
        pos[ns] = np.arange(ns.size)
        out = np.zeros((ns.size, ns.size), dtype=np.float64)
        for local, node in enumerate(ns):
            idx, wts = self.neighbors(int(node))
            mapped = pos[idx]
            keep = mapped >= 0
            out[local, mapped[keep]] = wts[keep]
        return out

    def __eq__(self, other):
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

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


def load_snapshot(path):
    """Parse one edge-list file.

    Format: UTF-8 text, lines starting with ``#`` and blank lines ignored,
    first significant line ``n <node_count>``, then one ``<i> <j> <w>`` line
    per undirected edge with ``i != j`` and ``w > 0``; each pair may appear
    at most once.
    """
    path = Path(path)
    node_count = None
    edges = {}
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
            if i == j:
                raise ParseError(f"{path}:{lineno}: self-loop on node {i}")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ParseError(f"{path}:{lineno}: node id out of range for n {node_count}")
            if not (w > 0.0) or not np.isfinite(w):
                raise ParseError(f"{path}:{lineno}: weight must be positive and finite")
            key = (i, j) if i < j else (j, i)
            if key in edges:
                raise ParseError(f"{path}:{lineno}: duplicate undirected edge ({key[0]}, {key[1]})")
            edges[key] = w
    if node_count is None:
        raise ParseError(f"{path}: missing 'n <node_count>' header")
    return GraphSnapshot(node_count, edges)


def save_snapshot(snapshot, path):
    """Write one snapshot in the edge-list format; load/save round-trips exactly."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {snapshot.node_count}\n")
        for i, j, w in snapshot.edges():
            fh.write(f"{i} {j} {w!r}\n")
    return path


def load_series(dirpath):
    """Load ``snapshot_<t>.edges`` files from a directory in order of the
    integer step ``t``, so unpadded names load in step order too."""
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
    return DynamicGraph([load_snapshot(files[t]) for t in sorted(files)])


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
    if snapshot.edge_count == 0:
        raise ValueError("cannot hide edges of an empty graph")
    edges = snapshot.edges()
    k = int(round(fraction * len(edges)))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(edges), size=k, replace=False)
    mask = np.zeros(len(edges), dtype=bool)
    mask[chosen] = True
    hidden = [e for e, hide in zip(edges, mask) if hide]
    kept = [e for e, hide in zip(edges, mask) if not hide]
    return GraphSnapshot(snapshot.node_count, kept), hidden


def grow_to(snapshot, node_count):
    """Return a copy with extra isolated nodes appended."""
    if node_count < snapshot.node_count:
        raise ValueError("cannot shrink a snapshot")
    if node_count == snapshot.node_count:
        return snapshot
    return GraphSnapshot(node_count, snapshot.edges())
