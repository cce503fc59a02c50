"""Language-conditioned message passing over the six-node spatial graph.

Each activity timestep is processed independently: pair features couple a
linguistic vector with a node latent, messages combine pair features, and
node updates gate the iteration-0 latents. spatial_graph runs every
iteration for every timestep of a minibatch of videos as one tape node with
a hand-written backward pass. Pair and message maps are affine, so it folds
each pair map into the message map it feeds and never forms a pair
feature: per iteration, the frame side of every message is three matmuls,
by the folded products of the activity latent and of the frame's human and
object latent sums (GraphWeights, built once per forward), plus one
per-frame constant (MessagePassing); a node's message adds one matmul by
its kind's own folded products. The per-frame numpy oracle that spells the
pair features out lives in tests/reference_impls.py. Includes all ablation
variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import SortedSegments, Tensor
from .errors import ConfigError, DimensionError
from .init import glorot, zeros

VARIANTS = ("full", "no_graph", "no_node_types", "no_human_node", "no_object_node", "single_query")


def check_variant(name: str) -> str:
    if name not in VARIANTS:
        raise ConfigError(f"unknown graph variant '{name}' (expected one of {', '.join(VARIANTS)})")
    return name


@dataclass
class PairMap:
    """Weight and bias of an affine map x @ w + b. A pair map's x is
    [linguistic ; observation], so spatial_graph splits its w by rows."""

    w: Tensor
    b: Tensor

    @classmethod
    def create(cls, rng, d_in: int, d_out: int, registry: dict, name: str) -> "PairMap":
        p = cls(w=glorot(rng, d_in, d_out), b=zeros((1, d_out)))
        registry[f"{name}.w"] = p.w
        registry[f"{name}.b"] = p.b
        return p


# Each graph variant's blocks, in creation (rng draw) order under its
# registry prefix, with the slots each block fills. The three message maps
# are shared between the two directions of each linguistic edge
# (activity<->human, activity<->object, human<->object); single_query ties
# each node kind's two pair maps to one query-pair map, and runs the full
# message passing with sv = sn = vn = q.
FULL_BLOCKS = ("graph", {slot: (slot,) for slot in (
    "phi_sno", "phi_vno", "phi_sva", "phi_vna", "phi_snh", "phi_svh", "msg_sv", "msg_vn", "msg_sn", "m_o", "m_a", "m_h"
)})
SINGLE_QUERY_BLOCKS = ("qgraph", {
    "phi_qa": ("phi_sva", "phi_vna"), "phi_qo": ("phi_sno", "phi_vno"), "phi_qh": ("phi_snh", "phi_svh"),
    "msg_ah": ("msg_sv",), "msg_ao": ("msg_vn",), "msg_ho": ("msg_sn",), "m_o": ("m_o",), "m_a": ("m_a",), "m_h": ("m_h",),
})


def create_graph(rng, blocks, d_lang: int, latent: int, registry: dict) -> dict[str, PairMap]:
    """The graph's parameters, one PairMap per slot, from a block table:
    a slot string from SLOTS reads params[slot], and a block tied into
    several slots is one object in each. A block's input width follows from
    its kind: a pair map reads [linguistic ; latent], a message map two
    latents, an update one."""
    prefix, table = blocks
    widths = {"phi": d_lang + latent, "msg": 2 * latent, "m": latent}
    params = {}
    for name, slots in table.items():
        block = PairMap.create(rng, widths[name.split("_")[0]], latent, registry, f"{prefix}.{name}")
        params.update(dict.fromkeys(slots, block))
    return params


# each pair map and the linguistic view it reads
PAIRS = {"phi_sva": "sv", "phi_vna": "vn", "phi_sno": "sn", "phi_vno": "vn", "phi_snh": "sn", "phi_svh": "sv"}
MAPS = ("msg_sv", "msg_vn", "msg_sn", "m_a", "m_o", "m_h")
SLOTS = (*PAIRS, *MAPS)
# the blocks the last iteration reads: it updates the activity latent only
LAST_SLOTS = ("phi_sva", "phi_vna", "phi_vno", "phi_svh", "msg_sv", "msg_vn", "m_a")
# The frame side of an iteration: six latent-sized rows of one 6 x latent x
# frames array, the frame-level part of six messages. Per row: its message
# map and, per half, the pair map it takes and that map's input, the
# activity latent a, a node kind h / o itself, or that kind's per-frame sum
# sum_h / sum_o. A row whose first half reads a node kind is that kind's
# frame term, gathered to its nodes.
ROWS = (
    ("msg_sn", ("phi_snh", "h"), ("phi_sno", "sum_o")),  # a human's [snh ; Σ sno]
    ("msg_sv", ("phi_svh", "h"), ("phi_sva", "a")),  # a human's [svh ; sva]
    ("msg_sv", ("phi_sva", "a"), ("phi_svh", "sum_h")),  # the activity's [sva ; Σ svh]
    ("msg_vn", ("phi_vna", "a"), ("phi_vno", "sum_o")),  # the activity's [vna ; Σ vno]
    ("msg_vn", ("phi_vno", "o"), ("phi_vna", "a")),  # an object's [vno ; vna]
    ("msg_sn", ("phi_sno", "o"), ("phi_snh", "sum_h")),  # an object's [sno ; Σ snh]
)
# per input, its (row, pair slot, message slot, half) entries in ROWS order,
# whose products (W_x·m_half)^T GraphWeights stacks into one matrix
FOLDS = {
    x: tuple((row, pair, msg, half) for row, (msg, *halves) in enumerate(ROWS) for half, (pair, y) in enumerate(halves) if y == x)
    for x in ("a", "sum_h", "sum_o", "h", "o")
}
# each input's rows are evenly spaced, so they are one slice of the frame array
TAKES = {x: slice(e[0][0], e[-1][0] + 1, e[1][0] - e[0][0]) for x, e in FOLDS.items()}
# the activity's two messages: the rows whose first half reads a
A_MESSAGES = slice(2, 4)
UPDATES = {"a": "m_a", "h": "m_h", "o": "m_o"}


def _gate(left, right, m: PairMap, x0, keep: bool):
    """sigmoid(m(left ⊙ right) ⊙ x0) on latent x rows arrays, the update of
    one node kind, and its cache (None unless keep): left, right, the
    pre-activation and the output; the backward forms left ⊙ right again."""
    pre = m.w.data.T @ (left * right)
    pre += m.b.data.T
    # the sigmoid in one buffer: where the step's memory peaks, a temporary per op would add node arrays
    new = pre * x0
    np.negative(new, out=new)
    np.exp(new, out=new)
    new += 1.0
    np.divide(1.0, new, out=new)
    return new, (left, right, pre, new) if keep else None


def _gate_backward(g, cache, m: PairMap, x0, grad):
    """The gradients of [left ; right], stacked, and of x0 from that of the
    gate's output; m's accumulate into grad."""
    left, right, pre, new = cache
    # in place where a temporary allows: each fresh node-sized array costs page faults
    d_z = 1.0 - new
    d_z *= new
    d_z *= g
    d_pre = d_z * x0
    grad[0] += (left * right) @ d_pre.T
    grad[1] += d_pre.sum(axis=1)
    d_prod = m.w.data @ d_pre
    n = left.shape[0]
    d_msgs = np.empty((2 * n, left.shape[1]))
    np.multiply(d_prod, right, out=d_msgs[:n])
    np.multiply(d_prod, left, out=d_msgs[n:])
    d_z *= pre
    return d_msgs, d_z


class GraphWeights:
    """The parameter-only products MessagePassing reads, shared by every call
    over the same parameter values: each pair map's W_x rows, each message
    map as (m_1, m_2, b_m^T), and per input of FOLDS its stacked folded
    products (W_x·m_half)^T, in ROWS order: the activity latent's
    4·latent x latent (sva·sv2 for the humans' frame term, sva·sv1 and
    vna·vn1 for the activity's messages, vna·vn2 for the objects'), each
    node sum's 2·latent x latent (svh·sv2, snh·sn2 and sno·sn2, vno·vn2),
    and each node kind's own (snh·sn1, svh·sv1 and vno·vn1, sno·sn1). An
    update of the parameters leaves it stale, so it is built per forward."""

    def __init__(self, params: dict[str, PairMap]):
        self.params = params
        self.n = n = params["m_a"].w.data.shape[0]
        self.d_lang = d = params["phi_sva"].w.data.shape[0] - n
        self.w_x = {slot: params[slot].w.data[d:] for slot in PAIRS}
        self.msg = {}
        for slot in ("msg_sv", "msg_vn", "msg_sn"):
            m = params[slot]
            self.msg[slot] = (m.w.data[:n], m.w.data[n:], m.b.data.T)
        self.fold = {
            x: np.concatenate([(self.w_x[pair] @ self.msg[msg][half]).T for _, pair, msg, half in entries])
            for x, entries in FOLDS.items()
        }


class MessagePassing:
    """The fixed inputs of one spatial_graph call, in the form its iterations read.

    Arrays are kept latent x rows, the transpose of the op's tensors, so each
    per-frame sum over node columns reads contiguous memory. step and
    backward take and give the op's rows x latent arrays.

    Every pair map splits as phi([l ; x]) = L + x·W_x with L = l·W_l + b,
    computed once per sample from its row of sv, sn or vn. A message map
    splits the same way over its two inputs, m([u ; y]) = u·m_1 + y·m_2 + b_m.
    Both maps are affine, so no pair feature is formed: a frame's sum of phi
    over its n nodes is n·L + (Σ x)·W_x, and each of the six ROWS is
    Σ x·(W_x·m_half) over its halves' inputs x, plus a constant. That
    constant, one 6 x latent x frames array built here per call, holds per
    frame each row's b_m, the m_half^T·L of each half that reads a or a node
    kind, and the n·m_2^T·L of each half that reads a node sum, n being the
    frame's count of that kind. So an iteration forms all six rows as three
    matmuls by GraphWeights.fold (a, sum_h, sum_o) plus the constant, and a
    node kind's messages as one matmul by its own fold plus its kind's two
    rows gathered to its nodes. The last iteration forms every row too, but
    no node message. The backward accumulates each fold's and the
    constant's gradient over the iterations and passes them to the blocks
    once.
    frames maps frames to samples and humans / objects map nodes to frames:
    the caller's autodiff.SortedSegments, reduced along the last axis.
    """

    def __init__(self, weights: GraphWeights, a0, h0, o0, sv, sn, vn, frames, humans, objects):
        t, n = a0.shape
        shapes = [(m.rows, m.counts.size) for m in (frames, humans, objects)]
        if shapes != [(t, sv.shape[0]), (h0.shape[0], t), (o0.shape[0], t)] or sv.shape[1] != weights.d_lang:
            raise DimensionError(
                f"spatial graph: maps of (rows, segments) {shapes} for {t} frames of {sv.shape[0]} samples, "
                f"{h0.shape[0]} humans and {o0.shape[0]} objects, views {sv.shape[1]} wide for {weights.d_lang}"
            )
        self.params, self.n, self.d_lang = weights.params, weights.n, weights.d_lang
        self.w_x, self.msg, self.fold = weights.w_x, weights.msg, weights.fold
        self.x0 = {"a": a0.T.copy(), "h": h0.T.copy(), "o": o0.T.copy()}
        self.views = {"sv": sv, "sn": sn, "vn": vn}
        self.samples, self.nodes = frames, {"h": humans, "o": objects}
        self.counts = {"sum_h": humans.counts, "sum_o": objects.counts}
        # per pair map, L = l·W_l + b per sample (latent x samples)
        self.lang = {}
        for slot, view in PAIRS.items():
            pm = self.params[slot]
            self.lang[slot] = pm.w.data[: self.d_lang].T @ self.views[view].T + pm.b.data.T
        self.const = np.empty((len(ROWS), n, t))
        for row, (msg, (first, _), (second, y)) in zip(self.const, ROWS):
            m_1, m_2, b_m = self.msg[msg]
            row[:] = frames.expand(m_1.T @ self.lang[first] + b_m, 1)
            row += frames.expand(m_2.T @ self.lang[second], 1) * self.counts.get(y, 1.0)

    def step(self, a, h, o, last: bool = False, keep: bool = True):
        """One message-passing iteration: the updated (a, h, o) and the cache
        step_backward reads, or None unless keep, so an untaped step holds
        no gate's inputs past the gate. The last iteration updates a only,
        so h and o come back as None and the node messages are not formed;
        it still forms every frame row, so its a is a non-last step's."""
        n = self.n
        x = {kind: np.ascontiguousarray(rows.T) for kind, rows in zip("aho", (a, h, o))}
        for kind, seg in self.nodes.items():
            x["sum_" + kind] = seg.sum(x[kind], 1)
        z = self.const.copy()
        for inp in ("a", "sum_h", "sum_o"):
            z[TAKES[inp]] += (self.fold[inp] @ x[inp]).reshape(-1, n, z.shape[2])
        a_new, gate = _gate(*z[A_MESSAGES], self.params["m_a"], self.x0["a"], keep)
        cache = {"x": x, "gate_a": gate} if keep else None
        if last:
            return a_new.T, None, None, cache
        new = {}
        for kind, seg in self.nodes.items():
            msgs = self.fold[kind] @ x[kind]
            msgs += seg.expand(z[TAKES[kind]].reshape(2 * n, -1), 1)
            update = self.params[UPDATES[kind]]
            new[kind], gate = _gate(msgs[:n], msgs[n:], update, self.x0[kind], keep)
            del msgs  # untaped, freed before the next kind's messages are formed
            if keep:
                cache["gate_" + kind] = gate
        return a_new.T, new["h"].T, new["o"].T, cache

    def step_backward(self, cache, ga, gh, go, grads):
        """The gradients of a step's inputs (a, h, o) from those of its
        outputs, all latent x rows; gh and go are None for the last step.
        Update-block and x0 gradients, each fold's and the constant's
        accumulate into grads."""
        n, p, x = self.n, self.params, cache["x"]
        d_z = np.zeros_like(self.const)
        d_a, d_x0 = _gate_backward(ga, cache["gate_a"], p["m_a"], self.x0["a"], grads["m_a"])
        grads["a0"] += d_x0
        d_z[A_MESSAGES] = d_a.reshape(2, n, -1)
        d_msgs = {}
        if gh is not None:
            for kind, g in (("h", gh), ("o", go)):
                slot = UPDATES[kind]
                d_msgs[kind], d_x0 = _gate_backward(g, cache["gate_" + kind], p[slot], self.x0[kind], grads[slot])
                grads[kind + "0"] += d_x0
                # a frame term gathered to nodes takes their gradient summed per frame
                d_z[TAKES[kind]] = self.nodes[kind].sum(d_msgs[kind], 1).reshape(2, n, -1)
        grads["const"] += d_z
        frame = {inp: d_z[TAKES[inp]].reshape(-1, d_z.shape[2]) for inp in ("a", "sum_h", "sum_o")}
        dx = {}
        for inp, d in (*frame.items(), *d_msgs.items()):
            grads["fold_" + inp] += d @ x[inp].T
            dx[inp] = self.fold[inp].T @ d
        d_h, d_o = (seg.expand(dx["sum_" + kind], 1) for kind, seg in self.nodes.items())
        if d_msgs:
            d_h += dx["h"]
            d_o += dx["o"]
        return dx["a"], d_h, d_o

    def backward(self, caches, g):
        """Replay the cached iterations in reverse from the gradient g of the
        final a. Returns the gradients of a0, h0, o0 and of the views, and
        (w, b) per block slot, for the slots and views the iterations read."""
        n = self.n
        slots = SLOTS if len(caches) > 1 else LAST_SLOTS
        grads = {kind + "0": np.zeros_like(x0) for kind, x0 in self.x0.items()}
        grads["const"] = np.zeros_like(self.const)
        grads.update({"fold_" + inp: np.zeros_like(k) for inp, k in self.fold.items()})
        for slot in MAPS:
            pm = self.params[slot]
            grads[slot] = [np.zeros_like(pm.w.data), np.zeros_like(pm.b.data)]
        ga, gh, go = np.ascontiguousarray(g.T), None, None
        for cache in reversed(caches):
            ga, gh, go = self.step_backward(cache, ga, gh, go, grads)
        inputs = {}
        for kind, d in zip("aho", (ga, gh, go)):
            grads[kind + "0"] += d
            inputs[kind + "0"] = grads[kind + "0"].T
        # each folded (W_x·m_half)^T passes its gradient to W_x and to m_half
        d_wx = {slot: np.zeros_like(w_x) for slot, w_x in self.w_x.items()}
        for inp, entries in FOLDS.items():
            for i, (_, pair, msg, half) in enumerate(entries):
                d_m = grads["fold_" + inp][i * n : (i + 1) * n].T
                d_wx[pair] += d_m @ self.msg[msg][half].T
                grads[msg][0][half * n : (half + 1) * n] += self.w_x[pair].T @ d_m
        # the constant passes its gradient to each row's b_m and, per half, to m_half and that pair map's L per sample
        d_lang = dict.fromkeys(PAIRS, 0.0)
        for d, (msg, *halves) in zip(grads["const"], ROWS):
            grads[msg][1] += d.sum(axis=1)
            for half, (pair, y) in enumerate(halves):
                d_l = self.samples.sum(d * self.counts.get(y, 1.0), 1)
                d_lang[pair] = d_lang[pair] + self.msg[msg][half] @ d_l
                grads[msg][0][half * n : (half + 1) * n] += self.lang[pair] @ d_l.T
        blocks = {slot: tuple(grads[slot]) for slot in MAPS if slot in slots}
        for slot, view in PAIRS.items():
            if slot in slots:
                pm = self.params[slot]
                inputs[view] = inputs.get(view, 0.0) + (pm.w.data[: self.d_lang] @ d_lang[slot]).T
                w_l = self.views[view].T @ d_lang[slot].T
                blocks[slot] = (np.concatenate([w_l, d_wx[slot]]), d_lang[slot].sum(axis=1)[None, :])
        return inputs, blocks


def spatial_graph(
    a0: Tensor,
    h0: Tensor,
    o0: Tensor,
    sv: Tensor,
    sn: Tensor,
    vn: Tensor,
    frames: SortedSegments,
    humans: SortedSegments,
    objects: SortedSegments,
    weights: GraphWeights,
    n_iters: int,
) -> Tensor:
    """The activity latents after n_iters rounds of message passing, as one tape node.

    a0 stacks the frames of a minibatch and frames maps each frame to its
    sample; h0 / o0 stack every frame's human / object latents, and humans
    / objects map each row to its frame. sv / sn / vn hold one linguistic
    row per sample. A map that does not fit the inputs is a DimensionError.
    Frames never exchange information, so each gets exactly its per-frame
    update. An empty human (object) set is a 0-row matrix on the same path
    whose segment sums are exact zero rows. With n_iters = 0 the result is
    a0 itself.

    The node's inputs are a0, h0, o0, the three views and the blocks of
    weights.params, the graph's parameters; a query or block tied into
    several slots (single_query) collects every slot's gradient. The
    iterations' caches are kept only while a tape records the node, and the
    hand-written backward replays them in reverse. A block the iterations do not read (the h and o side of a
    one-iteration graph) gets no gradient.
    """
    if n_iters == 0:
        return a0
    params = weights.params
    mp = MessagePassing(weights, a0.data, h0.data, o0.data, sv.data, sn.data, vn.data, frames, humans, objects)
    # the views in the order PAIRS first reads them, and the slots in PAIRS
    # order, so a tied query or pair map sums its slots' gradients in that order
    tensors = {"a0": a0, "h0": h0, "o0": o0, "sv": sv, "vn": vn, "sn": sn}
    inputs = (*tensors.values(), *(t for slot in SLOTS for t in (params[slot].w, params[slot].b)))
    recording = ad.recording(inputs)
    # rows x latent views of MessagePassing's latent x rows copies
    a, h, o = mp.x0["a"].T, mp.x0["h"].T, mp.x0["o"].T
    caches = []
    for i in range(n_iters):
        a, h, o, cache = mp.step(a, h, o, last=i == n_iters - 1, keep=recording)
        caches.append(cache)

    def backward(g):
        grads, blocks = mp.backward(caches, g)
        return [grads.get(name) for name in tensors] + [d for slot in SLOTS for d in blocks.get(slot, (None, None))]

    return ad.record(np.ascontiguousarray(a), inputs, backward)


def project(x: np.ndarray, m: PairMap) -> Tensor:
    """no_graph's map of [activity ; mean-pooled detections] rows to the
    latent: x·w + b as one tape node with inputs (w, b): the rows of x are
    constants. An x that is not w's input width is a DimensionError."""
    if x.ndim != 2 or x.shape[1] != m.w.data.shape[0]:
        raise DimensionError(f"no_graph: features of shape {x.shape}, the map takes {m.w.data.shape[0]} columns")

    def backward(g):
        return x.T @ g, g.sum(axis=0, keepdims=True)

    return ad.record(x @ m.w.data + m.b.data, (m.w, m.b), backward)
