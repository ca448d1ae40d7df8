"""Function-preserving model growth: width planning for growing graphs plus
the layer transforms that widen, deepen, and extend the autoencoder.  The
transforms edit the model they are given: to keep it, grow a copy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dyngem.model import AutoencoderParams
from dyngem.nn import LayerParams


@dataclass(frozen=True)
class GrowthPlan:
    """Target layer sizes plus the transform sequence that reaches them.

    ``widen_ops`` entries are ``(side, layer, old_width, new_width)`` with a
    1-based layer index into the final (post-deepen) stack of that side;
    ``deepen_ops`` entries are ``(side, insert_index, width)`` with 0-based
    list positions valid at their point in the application order.
    """

    encoder_sizes: tuple
    decoder_sizes: tuple
    widen_ops: tuple = ()
    deepen_ops: tuple = ()

    def to_dict(self):
        return {
            "encoder_sizes": list(self.encoder_sizes),
            "decoder_sizes": list(self.decoder_sizes),
            "widen_ops": [list(op) for op in self.widen_ops],
            "deepen_ops": [list(op) for op in self.deepen_ops],
        }


def propsize_plan(current_encoder_sizes, new_n, rho, d):
    """Plan minimal layer growth so consecutive widths satisfy the rule
    ``size(layer k+1) >= rho * size(layer k)`` from the input inward.

    ``current_encoder_sizes`` lists the input width and hidden widths (the
    embedding width ``d`` is fixed and passed separately).  Hidden layers are
    raised to exactly ``ceil(rho * previous)`` when the rule fails, and new
    layers of width ``ceil(rho * previous)`` are inserted next to the
    embedding until ``d >= rho * previous`` holds.  The decoder plan is the
    exact mirror.
    """
    sizes = [int(s) for s in current_encoder_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("current_encoder_sizes must be positive widths")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie strictly between 0 and 1")
    if d < 1:
        raise ValueError("d must be at least 1")
    if new_n < sizes[0]:
        raise ValueError("new_n cannot be smaller than the current input width")

    old_hidden = sizes[1:]
    chain = [int(new_n)]
    for h in old_hidden:
        need = math.ceil(rho * chain[-1])
        chain.append(max(h, need))

    inserted = []
    prev = chain[-1]
    while d < rho * prev:
        w = math.ceil(rho * prev)
        if w >= prev:
            # ceil(rho*prev) stalls at prev for tiny widths; inserting can
            # then never reach d, which stays the fixed chain endpoint
            break
        inserted.append(w)
        prev = w

    k = len(old_hidden)
    m = len(inserted)
    widen_ops = []
    for i in range(1, k + 1):
        if chain[i] > old_hidden[i - 1]:
            widen_ops.append(("enc", i, old_hidden[i - 1], chain[i]))
            widen_ops.append(("dec", m + (k - i + 1), old_hidden[i - 1], chain[i]))
    deepen_ops = []
    for j, w in enumerate(inserted):
        deepen_ops.append(("enc", k + j, w))
        deepen_ops.append(("dec", 0, w))

    encoder_sizes = tuple(chain + inserted + [int(d)])
    return GrowthPlan(
        encoder_sizes=encoder_sizes,
        decoder_sizes=tuple(reversed(encoder_sizes)),
        widen_ops=tuple(widen_ops),
        deepen_ops=tuple(deepen_ops),
    )


def _side_layers(params, side):
    if side == "enc":
        return params.encoder
    if side == "dec":
        return params.decoder
    raise ValueError(f"side must be 'enc' or 'dec', got {side!r}")


def net2wider(params, side, layer, new_width, noise_scale=0.0, seed=0):
    """Widen one hidden layer in place by unit replication, keeping the function.

    New units copy a random existing unit's incoming weights and bias; every
    outgoing weight of a replicated unit is divided by its replication count,
    so with ``noise_scale == 0`` the network output is unchanged.  Noise, if
    any, perturbs only the copied incoming weights.  The side's last layer
    (the embedding, or the reconstruction output) cannot be widened.
    Returns ``mapping``: new unit ``old_width + u`` copies unit ``mapping[u]``.
    Only the widened layer and the next one are replaced.
    """
    layers = _side_layers(params, side)
    if not (1 <= layer <= len(layers) - 1):
        raise ValueError(
            f"layer must name a hidden layer of the {side} stack (1..{len(layers) - 1})"
        )
    target = layers[layer - 1]
    old_width = target.out_dim
    if new_width < old_width:
        raise ValueError("net2wider cannot shrink a layer")
    rng = np.random.default_rng(seed)
    mapping = rng.integers(0, old_width, size=new_width - old_width)
    if new_width == old_width:
        return mapping
    new_rows = target.weights[mapping]
    if noise_scale:
        new_rows = new_rows + rng.uniform(-noise_scale, noise_scale, new_rows.shape)
    widened = LayerParams(
        np.vstack([target.weights, new_rows]),
        np.concatenate([target.bias, target.bias[mapping]]),
    )

    group_of = np.concatenate([np.arange(old_width), mapping])
    counts = np.bincount(group_of, minlength=old_width)
    nxt = layers[layer]
    # take, unlike [:, group_of], keeps the weights row-major like every
    # other layer, so a copy or a checkpoint trains to the same bits
    scaled = nxt.weights.take(group_of, axis=1) / counts[group_of]
    layers[layer - 1] = widened
    layers[layer] = LayerParams(scaled, nxt.bias)
    return mapping


def net2deeper(params, side, position):
    """Insert an identity layer (W = I, b = 0) in place at a 0-based position.

    Inputs to the inserted layer are post-ReLU and therefore non-negative,
    so relu(I x) = x and the function is preserved exactly.  Inserting at
    the encoder input side (position 0) is rejected.
    """
    layers = _side_layers(params, side)
    lo = 1 if side == "enc" else 0
    if not (lo <= position <= len(layers) - 1):
        raise ValueError(f"position must lie in [{lo}, {len(layers) - 1}] for side {side!r}")
    width = layers[position].in_dim
    layers.insert(position, LayerParams(np.eye(width), np.zeros(width)))


def expand_input_output(params, new_n, seed=0):
    """Grow the input and output widths in place to ``new_n`` (more nodes).

    The first encoder layer gains input columns and the last decoder layer
    gains output rows and bias entries, all drawn uniformly from ``[-b, b]``
    with b the fan-scaled bound used at initialization.  Outputs restricted
    to the old coordinates only change through the new input coordinates, so
    rows that are zero there embed exactly as before.
    """
    if new_n < params.n:
        raise ValueError("cannot shrink the input width")
    if new_n == params.n:
        return
    rng = np.random.default_rng(seed)
    extra = new_n - params.n

    first = params.encoder[0]
    bound_in = np.sqrt(6.0 / (new_n + first.out_dim))
    new_cols = rng.uniform(-bound_in, bound_in, (first.out_dim, extra))
    params.encoder[0] = LayerParams(np.hstack([first.weights, new_cols]), first.bias)

    last = params.decoder[-1]
    bound_out = np.sqrt(6.0 / (last.in_dim + new_n))
    new_rows = rng.uniform(-bound_out, bound_out, (extra, last.in_dim))
    new_bias = rng.uniform(-bound_out, bound_out, extra)
    params.decoder[-1] = LayerParams(
        np.vstack([last.weights, new_rows]), np.concatenate([last.bias, new_bias])
    )


def _push_inserted(params, side, position, width):
    """Insert a narrower-than-incoming layer in place, keeping the function.

    Keeping the displaced layer's weights and feeding them through a narrower
    identity cannot be exact (the identity would need rank above its width),
    so the displaced layer's weights move into the new layer instead, padded
    with dead zero rows, and the displaced layer becomes a truncated identity
    reading them back.  Its ReLU is idempotent on the already rectified
    values, so outputs are unchanged.  Requires ``width`` at or above the
    displaced layer's output width; below that no exact construction exists.
    """
    layers = _side_layers(params, side)
    nxt = layers[position]
    if width < nxt.out_dim:
        raise ValueError("inserted width below the downstream output width")
    pad = width - nxt.out_dim
    layers[position] = LayerParams(
        np.vstack([nxt.weights, np.zeros((pad, nxt.in_dim))]),
        np.concatenate([nxt.bias, np.zeros(pad)]),
    )
    layers.insert(position + 1, LayerParams(np.eye(width)[: nxt.out_dim], np.zeros(nxt.out_dim)))


def _op_seed(seed, counter):
    return int(np.random.SeedSequence([int(seed), int(counter)]).generate_state(1)[0])


def apply_plan(params, plan, noise_scale=0.0, seed=0):
    """Apply a growth plan in place: input/output expansion, deepen, widen.

    Deepen ops at or above the incoming width insert a square identity and
    widen it to the planned width; below the incoming width the displaced
    layer's weights are pushed into the insert.  Either way the outputs on
    old coordinates are unchanged, and layers no op touches keep their arrays.
    Returns ``(params, report)``, ``params`` itself plus every applied op with
    its replication mapping, ready for serialization.  A plan that does not
    fit raises ``ValueError`` and may leave ``params`` partly grown.
    """
    report = []
    counter = 0
    new_n = plan.encoder_sizes[0]
    if new_n > params.n:
        report.append({"op": "expand", "old_n": params.n, "new_n": int(new_n)})
        expand_input_output(params, new_n, seed=_op_seed(seed, counter))
        counter += 1

    for side, position, width in plan.deepen_ops:
        incoming = _side_layers(params, side)[position].in_dim
        if width >= incoming:
            net2deeper(params, side, position)
            construction = "identity"
            if width > incoming:
                net2wider(params, side, position + 1, width, noise_scale, _op_seed(seed, counter))
                construction = "identity_then_widen"
        else:
            _push_inserted(params, side, position, width)
            construction = "weight_push"
        report.append(
            {
                "op": "deepen",
                "side": side,
                "index": int(position),
                "width": int(width),
                "construction": construction,
            }
        )
        counter += 1

    for side, layer, old_width, new_width in plan.widen_ops:
        mapping = net2wider(params, side, layer, new_width, noise_scale, _op_seed(seed, counter))
        report.append(
            {
                "op": "widen",
                "side": side,
                "layer": int(layer),
                "old_width": int(old_width),
                "new_width": int(new_width),
                "mapping": [int(u) for u in mapping],
            }
        )
        counter += 1

    AutoencoderParams(params.encoder, params.decoder)  # validates the grown chain
    if params.encoder_sizes != tuple(plan.encoder_sizes) or params.decoder_sizes != tuple(plan.decoder_sizes):
        raise ValueError("applied sizes do not match the plan")
    return params, report
