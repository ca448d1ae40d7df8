"""Shared test utilities: independent oracles and synthetic series builders.

The oracles here are deliberately written from the definitions (plain loops,
no shared code with the package) so the tests compare two routes.
"""

from __future__ import annotations

import numpy as np

from dyngem import nn
from dyngem.graph import DynamicGraph, GraphSnapshot, SbmConfig, generate_sbm_series
from dyngem.model import Hyperparameters, build_autoencoder, loss_net_batch, make_batch


def exhaustive_ap(scores_row, candidates, truth):
    """Average precision straight from the definition, O(c^2) loops.

    Candidates are ranked by descending score with ties broken by ascending
    id; returns None when truth is empty.
    """
    truth = set(truth)
    if not truth:
        return None
    ranked = sorted(candidates, key=lambda c: (-scores_row[c], c))
    hits = 0
    total = 0.0
    for rank, c in enumerate(ranked, 1):
        if c in truth:
            hits += 1
            total += hits / rank
    return total / len(truth)


def neighbors(snapshot, node):
    """Sorted neighbour ids and their weights for one node."""
    _, ids, weights = snapshot.csr_rows([node])
    return ids, weights


def ap_from_row(scores_row, candidates, truth_idx):
    """Average precision of one node's ranking, by sorting its candidates by
    descending score with ties broken by ascending id."""
    order = np.lexsort((candidates, -scores_row[candidates]))
    ranked = candidates[order]
    hits = np.isin(ranked, truth_idx)
    if not hits.any():
        return 0.0
    prec = np.cumsum(hits) / np.arange(1, ranked.size + 1)
    return float(prec[hits].sum() / truth_idx.size)


def map_oracle(scores, candidates_of, truth_of):
    """Mean of :func:`ap_from_row` over the nodes in ``truth_of`` (sorted),
    one sort per node."""
    return float(np.mean([ap_from_row(scores[i], candidates_of(i), truth_of[i]) for i in sorted(truth_of)]))


def induced_adjacency(snapshot, n):
    """Dense symmetric adjacency of the snapshot over the nodes 0..n-1."""
    out = np.zeros((n, n))
    for i, j, w in snapshot.edges():
        if j < n:
            out[i, j] = out[j, i] = w
    return out


def stability_oracle(embeddings, graphs):
    """Per-transition ``(s_abs, s_rel)`` lists from dense induced adjacencies
    over each transition's common nodes V_t, None where a denominator is 0.

    S_abs = ||dF|| / ||dS|| and S_rel = (||dF|| / ||F_t||) / (||dS|| / ||S_t||),
    with dF = F_{t+1}(V_t) - F_t and dS = S_{t+1}(V_t) - S_t.
    """
    s_abs, s_rel = [], []
    for t in range(len(graphs) - 1):
        n = graphs[t].node_count
        df = np.linalg.norm(embeddings[t + 1][:n] - embeddings[t])
        nf = np.linalg.norm(embeddings[t])
        s_curr = induced_adjacency(graphs[t], n)
        ds = np.linalg.norm(induced_adjacency(graphs[t + 1], n) - s_curr)
        ns = np.linalg.norm(s_curr)
        s_abs.append(None if ds == 0 else float(df / ds))
        s_rel.append(None if 0 in (nf, ns, ds) else float((df / nf) / (ds / ns)))
    return s_abs, s_rel


def penalized_step_oracle(layers, grads, velocities, lr, mu, nu1, nu2):
    """The penalty and Nesterov passes as whole-array numpy operations, the
    oracle for the passes in ``nn``, which run one kernel per array.

    The L1/L2 penalty gradient of every weight matrix is formed on its own
    and added into the weight gradient, then every weight and bias takes one
    Nesterov step.  ``grads`` and ``velocities`` hold one ``(weights, bias)``
    pair per layer, and are updated in place with the layers; returns
    ``(l1, l2)``.
    """
    l1 = 0.0
    l2 = 0.0
    for layer, (gw, _) in zip(layers, grads):
        w = layer.weights
        grad = np.sign(w)
        flat = w.ravel("K")
        l1 += float(np.vdot(grad.ravel("K"), flat))
        l2 += float(np.vdot(flat, flat))
        grad *= nu1
        grad += 2.0 * nu2 * w
        gw += grad
    for layer, pair, vel in zip(layers, grads, velocities):
        for p, g, v in zip((layer.weights, layer.bias), pair, vel):
            step = lr * g
            v *= mu
            v -= step
            p += mu * v
            p -= step
    return l1, l2


def loss_net_batch_oracle(params, snapshot, batch, hyper):
    """The objective and gradients of ``model.loss_net_batch`` with no row
    dedup: the 2m endpoint rows (heads over tails) come from
    ``snapshot.dense_rows`` and each runs through the autoencoder."""
    m = batch.heads.shape[0]
    x = snapshot.dense_rows(np.concatenate([batch.heads, batch.tails]))
    acts_enc = nn.forward(params.encoder, x)
    y = acts_enc[-1]
    acts_dec = nn.forward(params.decoder, y)

    nonzero = np.flatnonzero(x)
    diff = acts_dec[-1].copy()
    flat = diff.reshape(-1)
    flat[nonzero] = (flat[nonzero] - x.reshape(-1)[nonzero]) * hyper.beta
    l_glob = float(np.vdot(diff, diff))
    g_xhat = diff
    g_xhat *= 2.0
    g_xhat.reshape(-1)[nonzero] *= hyper.beta

    pair_diff = y[:m] - y[m:]
    sq = np.einsum("ij,ij->i", pair_diff, pair_diff)
    l_loc = float(batch.weights @ sq)
    g_loc = (2.0 * hyper.alpha) * batch.weights[:, None] * pair_diff

    dec_grads, g_y = nn.backward(params.decoder, acts_dec, g_xhat)
    g_y[:m] += g_loc
    g_y[m:] -= g_loc
    enc_grads, _ = nn.backward(params.encoder, acts_enc, g_y, input_grad=False)

    weight_grads = [gw for gw, _ in enc_grads + dec_grads]
    l1, l2 = nn.regularizer_value_and_grads(params.layers(), weight_grads, hyper.nu1, hyper.nu2)

    total = l_glob + hyper.alpha * l_loc + hyper.nu1 * l1 + hyper.nu2 * l2
    parts = {"global": l_glob, "local": l_loc, "l1": l1, "l2": l2}
    return total, parts, (enc_grads, dec_grads)


def loss_global(x, x_hat, b):
    """Weighted reconstruction error sum(((x_hat - x) * b)^2)."""
    x, x_hat, b = (np.asarray(a, dtype=np.float64) for a in (x, x_hat, b))
    if x.shape != x_hat.shape or x.shape != b.shape:
        raise ValueError("x, x_hat and b must share one shape")
    diff = (x_hat - x) * b
    return float(np.sum(diff * diff))


def loss_local(y_i, y_j, s_ij):
    """First-order proximity term s_ij * ||y_i - y_j||^2."""
    y_i, y_j = np.asarray(y_i, dtype=np.float64), np.asarray(y_j, dtype=np.float64)
    if y_i.shape != y_j.shape:
        raise ValueError("embeddings must share one shape")
    d = y_i - y_j
    return float(s_ij) * float(np.sum(d * d))


def sparse_rows(x):
    """``nn.SparseRows`` holding the non-zeros of the dense matrix x."""
    rows, cols = np.nonzero(x)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=x.shape[0]))])
    return nn.SparseRows(indptr, cols, x[rows, cols], x.shape)


def dense_matrix(x):
    """The dense matrix that ``nn.SparseRows`` x stands for."""
    out = np.zeros(x.shape)
    out[np.repeat(np.arange(x.shape[0]), np.diff(x.indptr)), x.indices] = x.values
    return out


def random_snapshot(rng, n, p=0.3, max_weight=2.0):
    """Random undirected weighted graph, guaranteed at least one edge."""
    while True:
        edges = {}
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges[(i, j)] = float(rng.uniform(0.5, max_weight))
        if edges:
            return GraphSnapshot(n, edges)


def random_symmetric_scores(rng, n):
    r = rng.standard_normal((n, n))
    return (r + r.T) / 2.0


def _min_preactivation(params, x):
    """Smallest |pre-activation| over all layers of both stacks."""
    worst = np.inf
    a = np.asarray(x, dtype=np.float64)
    for layer in params.encoder + params.decoder:
        z = a @ layer.weights.T + layer.bias
        worst = min(worst, float(np.min(np.abs(z))))
        a = nn.relu(z)
    return worst


def random_edges(snap, rng, count):
    """``count`` distinct edges of the snapshot, in random order, as
    ``(heads, tails, weights)``."""
    idx = rng.choice(snap.edge_count, size=min(count, snap.edge_count), replace=False)
    return snap.heads[idx], snap.tails[idx], snap.weights[idx]


def hub_edges(snap):
    """Indices of every edge at the highest-degree node."""
    hub = np.argmax(np.bincount(np.concatenate([snap.heads, snap.tails]), minlength=snap.node_count))
    return np.flatnonzero((snap.heads == hub) | (snap.tails == hub))


def star_edges(snap, rng, count):
    """Up to ``count`` edges that all share the highest-degree node."""
    idx = hub_edges(snap)[:count]
    return snap.heads[idx], snap.tails[idx], snap.weights[idx]


def jittered_case(seed, n=12, hidden=(8, 5), d=3, batch_edges=6, pick=random_edges):
    """A small model, snapshot and batch kept away from the ReLU and |W| kinks.

    Finite differences with step h misbehave when some pre-activation or
    weight sits within h of a kink, so candidates are resampled until every
    |pre-activation| > 1e-3 and every |w| > 1e-4.  ``pick(snap, rng,
    batch_edges)`` chooses the batch's edges.  Returns
    ``(params, snapshot, batch)``.
    """
    for attempt in range(200):
        rng = np.random.default_rng((seed, attempt))
        params = build_autoencoder(n, hidden, d, seed=int(rng.integers(2**31)))
        # small bias jitter moves pre-activations off 0 without changing scale
        for layer in params.encoder + params.decoder:
            layer.bias += rng.uniform(0.05, 0.3, layer.bias.shape) * rng.choice([-1.0, 1.0], layer.bias.shape)
        snap = random_snapshot(rng, n)
        heads, tails, weights = pick(snap, rng, batch_edges)
        batch = make_batch(snap, heads, tails, weights)
        rows = snap.dense_rows(np.concatenate([heads, tails]))
        min_w = min(float(np.min(np.abs(l.weights))) for l in params.encoder + params.decoder)
        if _min_preactivation(params, rows) > 1e-3 and min_w > 1e-4:
            return params, snap, batch
    raise AssertionError("could not find a kink-free model/batch pair")


def jittered_model_and_batch(seed, **kwargs):
    """The model and batch of :func:`jittered_case`."""
    params, _, batch = jittered_case(seed, **kwargs)
    return params, batch


def finite_difference_max_rel_error(params, batch, hyper, h=1e-5):
    """Worst norm-relative error between analytic and central-difference
    gradients, taken over every weight matrix and bias vector.

    Norm-relative (per array, not per entry) because individual entries can
    have near-zero gradients from cancellation, where the difference quotient
    is pure roundoff.
    """

    def value():
        return loss_net_batch(params, batch, hyper)[0]

    _, _, (enc_grads, dec_grads) = loss_net_batch(params, batch, hyper)
    analytic = []
    for gw, gb in enc_grads + dec_grads:
        analytic.append(gw)
        analytic.append(gb)
    arrays = []
    for layer in params.encoder + params.decoder:
        arrays.append(layer.weights)
        arrays.append(layer.bias)

    worst = 0.0
    for arr, grad in zip(arrays, analytic):
        flat = arr.reshape(-1)
        fd = np.empty_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = value()
            flat[k] = orig - h
            down = value()
            flat[k] = orig
            fd[k] = (up - down) / (2.0 * h)
        gflat = grad.reshape(-1)
        denom = max(float(np.linalg.norm(fd)), float(np.linalg.norm(gflat)), 1e-10)
        worst = max(worst, float(np.linalg.norm(fd - gflat)) / denom)
    return worst


def toy_hyper(**overrides):
    """Hyperparameters where every loss term carries visible weight."""
    base = dict(alpha=0.2, beta=3.0, nu1=1e-3, nu2=1e-3, d=3, base_lr=1e-4, seed=0)
    base.update(overrides)
    return Hyperparameters(**base)


def merge_series(n=300, merge_at=8, steps=12, p_in=0.2, p_out=0.01, seed=0):
    """Constant 3-community SBM; from ``merge_at`` on, communities 0 and 1
    behave as one block (their cross pairs resampled at p_in)."""
    cfg = SbmConfig(node_count=n, p_in=p_in, p_out=p_out, steps=1, communities=3)
    graphs, labels = generate_sbm_series(cfg, seed)
    base = graphs[0]
    lab = labels[0]
    rng = np.random.default_rng(seed + 7777)
    a = np.nonzero(lab == 0)[0]
    b = np.nonzero(lab == 1)[0]
    edges = {}
    for i, j, w in base.edges():
        cross = (lab[i] == 0 and lab[j] == 1) or (lab[i] == 1 and lab[j] == 0)
        if not cross:
            edges[(i, j)] = w
    for i in a:
        draws = rng.random(b.size) < p_in
        for j in b[draws]:
            key = (int(i), int(j)) if i < j else (int(j), int(i))
            edges[key] = 1.0
    merged = GraphSnapshot(n, edges)
    return DynamicGraph([base] * merge_at + [merged] * (steps - merge_at))


def growing_series(n_start=100, n_end=200, steps=10, p_in=0.2, p_out=0.02, seed=0):
    """Node-growing series: prefix-induced subgraphs of one fixed SBM."""
    cfg = SbmConfig(node_count=n_end, p_in=p_in, p_out=p_out, steps=1, communities=3)
    graphs, _ = generate_sbm_series(cfg, seed)
    full = graphs[0]
    counts = np.linspace(n_start, n_end, steps).round().astype(int)
    snaps = []
    for m in counts:
        kept = [(i, j, w) for i, j, w in full.edges() if j < m]
        snaps.append(GraphSnapshot(int(m), kept))
    return DynamicGraph(snaps)
