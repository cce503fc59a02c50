"""Language-conditioned message passing over the six-node spatial graph.

Each activity timestep is processed independently: pair features couple a
linguistic vector with a node latent, messages combine pair features, and
node updates gate the iteration-0 latents. spatial_graph runs every
iteration for every timestep of a minibatch of videos as one tape node with
a hand-written backward pass. It folds each pair map into the message map it
feeds (see MessagePassing), so it sums node latents per frame and never forms
a per-node pair feature; the per-frame numpy oracle that spells the pair
features out lives in tests/reference_impls.py. Includes all ablation
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


# each pair map, the linguistic view it reads and the node kind it pairs with
PAIRS = (
    ("phi_sva", "sv", "a"),
    ("phi_vna", "vn", "a"),
    ("phi_sno", "sn", "o"),
    ("phi_vno", "vn", "o"),
    ("phi_snh", "sn", "h"),
    ("phi_svh", "sv", "h"),
)
MAPS = ("msg_sv", "msg_vn", "msg_sn", "m_a", "m_o", "m_h")
SLOTS = tuple(slot for slot, _, _ in PAIRS) + MAPS
# the blocks the last iteration reads: it updates the activity latent only
LAST_SLOTS = ("phi_sva", "phi_vna", "phi_vno", "phi_svh", "msg_sv", "msg_vn", "m_a")
# each node kind's pair maps, stacked into one matmul; the activity message
# reads the first of a human or object pair, so the last iteration takes only it
STACKS = {"a": ("phi_sva", "phi_vna"), "h": ("phi_svh", "phi_snh"), "o": ("phi_vno", "phi_sno")}
# the (pair map, message map) products folded into each node kind's two messages;
# each message's second input is a frame-level row: for objects the humans' snh
# sum and the activity's vna, for humans the objects' sno sum and sva
FOLDS = {"o": (("phi_sno", "msg_sn"), ("phi_vno", "msg_vn")), "h": (("phi_snh", "msg_sn"), ("phi_svh", "msg_sv"))}
UPDATES = {"h": "m_h", "o": "m_o"}


def _gate(left, right, m: PairMap, x0, keep: bool):
    """sigmoid(m(left ⊙ right) ⊙ x0) on latent x rows arrays, the update of
    one node kind, and its cache (None unless keep): left, right, the
    pre-activation and the output; the backward forms left ⊙ right again."""
    pre = m.w.data.T @ (left * right) + m.b.data.T
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
    map as (m_1, m_2, b_m^T), and per node kind its stacked W_x^T and its
    folded (W_x·m_1)^T. An update of the parameters leaves it stale, so it
    is built per forward."""

    def __init__(self, params: dict[str, PairMap]):
        self.params = params
        self.n = n = params["m_a"].w.data.shape[0]
        self.d_lang = d = params["phi_sva"].w.data.shape[0] - n
        self.w_x = {slot: params[slot].w.data[d:] for slot, _, _ in PAIRS}
        self.msg = {}
        for slot in ("msg_sv", "msg_vn", "msg_sn"):
            m = params[slot]
            self.msg[slot] = (m.w.data[:n], m.w.data[n:], m.b.data.T)
        self.pair = {kind: np.concatenate([self.w_x[slot].T for slot in slots]) for kind, slots in STACKS.items()}
        self.fold = {
            kind: np.concatenate([(self.w_x[slot] @ self.msg[msg][0]).T for slot, msg in folds])
            for kind, folds in FOLDS.items()
        }


class MessagePassing:
    """The fixed inputs of one spatial_graph call, in the form its iterations read.

    Arrays are kept latent x rows, the transpose of the op's tensors, so each
    per-frame sum over node columns reads contiguous memory. step and
    backward take and give the op's rows x latent arrays.

    Every pair map splits as phi([l ; x]) = L + x·W_x with L = l·W_l + b,
    computed once per sample from its row of sv, sn or vn and expanded to its
    frames where a frame needs it, never to nodes. A message map splits the
    same way over its two inputs, m([u ; y]) = u·m_1 + y·m_2 + b_m. Both maps
    are affine, so no per-node pair feature is formed:
      - a frame's sum of phi over its n nodes is n·L + (Σ x)·W_x, from one
        segment sum of the node latents;
      - a node message m([phi(x) ; y]) is x·(W_x·m_1) + (L·m_1 + y·m_2 + b_m),
        one matmul by the folded product W_x·m_1 plus a frame-level term
        gathered to the nodes.
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
        self.w_x, self.msg, self.pair, self.fold = weights.w_x, weights.msg, weights.pair, weights.fold
        self.x0 = {"a": a0.T.copy(), "h": h0.T.copy(), "o": o0.T.copy()}
        self.views = {"sv": sv, "sn": sn, "vn": vn}
        self.samples, self.nodes = frames, {"h": humans, "o": objects}
        self.counts = {"a": 1.0, "h": humans.counts, "o": objects.counts}
        # per pair map, L = l·W_l + b per sample (latent x samples)
        self.lang = {}
        for slot, view, _ in PAIRS:
            pm = self.params[slot]
            self.lang[slot] = pm.w.data[: self.d_lang].T @ self.views[view].T + pm.b.data.T
        # per node kind: its stacked L, per sample for the activity and per frame as n·L for a node sum
        self.pair_lang = {}
        for kind, slots in STACKS.items():
            lang = np.concatenate([self.lang[slot] for slot in slots])
            self.pair_lang[kind] = lang if kind == "a" else self.samples.expand(lang, 1) * self.counts[kind]
        # per node kind, per sample: the constant L·m_1 + b_m of its frame terms
        self.frame = {
            kind: np.concatenate([self.msg[msg][0].T @ self.lang[slot] + self.msg[msg][2] for slot, msg in folds])
            for kind, folds in FOLDS.items()
        }

    def step(self, a, h, o, last: bool = False, keep: bool = True):
        """One message-passing iteration: the updated (a, h, o) and the cache
        step_backward reads, or None unless keep, so an untaped step holds
        no gate's inputs past the gate. The last iteration updates a only,
        so h and o come back as None and what feeds only them is not
        computed."""
        n = self.n
        x = {kind: np.ascontiguousarray(rows.T) for kind, rows in zip("aho", (a, h, o))}
        sv1, sv2, b_sv = self.msg["msg_sv"]
        vn1, vn2, b_vn = self.msg["msg_vn"]
        sn2 = self.msg["msg_sn"][1]
        pa = self.samples.expand(self.pair_lang["a"], 1)  # [sva ; vna]
        pa += self.pair["a"] @ x["a"]
        s = {kind: seg.sum(x[kind], 1) for kind, seg in self.nodes.items()}
        # per frame, [Σ svh, Σ snh] and [Σ vno, Σ sno]; the last iteration reads only the first
        halves = (slice(0, n),) if last else (slice(0, n), slice(n, 2 * n))
        sums = {kind: [self.pair[kind][i] @ s[kind] + self.pair_lang[kind][i] for i in halves] for kind in s}
        h_sv_a = sv1.T @ pa[:n] + sv2.T @ sums["h"][0] + b_sv
        o_vn_a = vn1.T @ pa[n:] + vn2.T @ sums["o"][0] + b_vn
        a_new, gate = _gate(h_sv_a, o_vn_a, self.params["m_a"], self.x0["a"], keep)
        cache = {"x": x, "pa": pa, "s": s, "sums": sums, "gate_a": gate} if keep else None
        if last:
            return a_new.T, None, None, cache
        # each node message's second input with its m_2
        seconds = {"o": ((sn2, sums["h"][1]), (vn2, pa[n:])), "h": ((sn2, sums["o"][1]), (sv2, pa[:n]))}
        new = {}
        for kind, seg in self.nodes.items():
            frame = np.concatenate([m_2.T @ y for m_2, y in seconds[kind]])
            frame += self.samples.expand(self.frame[kind], 1)
            msgs = self.fold[kind] @ x[kind]
            msgs += seg.expand(frame, 1)
            del frame  # freed before the gate, where the step's memory peaks
            update = self.params[UPDATES[kind]]
            new[kind], gate = _gate(msgs[:n], msgs[n:], update, self.x0[kind], keep)
            del msgs  # untaped, freed before the next kind's messages are formed
            if keep:
                cache["gate_" + kind] = gate
        return a_new.T, new["h"].T, new["o"].T, cache

    def _pair_backward(self, kind, x, d, grads):
        """x's gradient through pair[kind] @ x for the d.shape[0] // n stacked
        maps d covers; their W_x gradients accumulate into grads."""
        n, dw = self.n, x @ d.T
        for i, slot in enumerate(STACKS[kind][: d.shape[0] // n]):
            grads[slot] += dw[:, i * n : (i + 1) * n]
        return self.pair[kind][: d.shape[0]].T @ d

    def _fold_backward(self, kind, x, d, grads):
        """x's gradient through fold[kind] @ x; each folded W_x·m_1 passes its
        gradient to W_x and to m_1."""
        n, d_fold = self.n, d @ x.T
        for i, (slot, msg) in enumerate(FOLDS[kind]):
            d_m = d_fold[i * n : (i + 1) * n].T
            grads[slot] += d_m @ self.msg[msg][0].T
            grads[msg][0][:n] += self.w_x[slot].T @ d_m
        return self.fold[kind].T @ d

    def step_backward(self, cache, ga, gh, go, grads):
        """The gradients of a step's inputs (a, h, o) from those of its
        outputs, all latent x rows; gh and go are None for the last step.
        Block, x0 and frame-constant gradients accumulate into grads."""
        n, p = self.n, self.params
        x, pa, s, sums = cache["x"], cache["pa"], cache["s"], cache["sums"]
        sv1, sv2, _ = self.msg["msg_sv"]
        vn1, vn2, _ = self.msg["msg_vn"]
        sn2 = self.msg["msg_sn"][1]
        d_a, d_x0 = _gate_backward(ga, cache["gate_a"], p["m_a"], self.x0["a"], grads["m_a"])
        grads["a0"] += d_x0
        # the activity's messages read [sva ; Σ svh] and [vna ; Σ vno]
        for msg, first, second, d in (
            ("msg_sv", pa[:n], sums["h"][0], d_a[:n]),
            ("msg_vn", pa[n:], sums["o"][0], d_a[n:]),
        ):
            grads[msg][0][:n] += first @ d.T
            grads[msg][0][n:] += second @ d.T
            grads[msg][1] += d.sum(axis=1)
        d_pa = np.concatenate([sv1 @ d_a[:n], vn1 @ d_a[n:]])
        d_sums = {"h": [sv2 @ d_a[:n]], "o": [vn2 @ d_a[n:]]}
        d_msgs = {}
        if gh is not None:
            for kind, g in (("h", gh), ("o", go)):
                slot = UPDATES[kind]
                d_msgs[kind], d_x0 = _gate_backward(g, cache["gate_" + kind], p[slot], self.x0[kind], grads[slot])
                grads[kind + "0"] += d_x0
            # a frame term gathered to nodes takes their gradient summed per frame
            f_h, f_o = (self.nodes[kind].sum(d_msgs[kind], 1) for kind in ("h", "o"))
            grads["frame_h"] += f_h
            grads["frame_o"] += f_o
            # the second inputs: objects read Σ snh and vna, humans Σ sno and sva
            grads["msg_sn"][0][n:] += sums["h"][1] @ f_o[:n].T + sums["o"][1] @ f_h[:n].T
            grads["msg_vn"][0][n:] += pa[n:] @ f_o[n:].T
            grads["msg_sv"][0][n:] += pa[:n] @ f_h[n:].T
            d_sums["h"].append(sn2 @ f_o[:n])
            d_sums["o"].append(sn2 @ f_h[:n])
            d_pa += np.concatenate([sv2 @ f_h[n:], vn2 @ f_o[n:]])
        dx = {}
        for kind, seg in self.nodes.items():
            d = np.concatenate(d_sums[kind])
            grads["lang_" + kind][: d.shape[0]] += d
            dx[kind] = seg.expand(self._pair_backward(kind, s[kind], d, grads), 1)
            if kind in d_msgs:
                dx[kind] += self._fold_backward(kind, x[kind], d_msgs[kind], grads)
        grads["lang_a"] += d_pa
        return self._pair_backward("a", x["a"], d_pa, grads), dx["h"], dx["o"]

    def backward(self, caches, g):
        """Replay the cached iterations in reverse from the gradient g of the
        final a. Returns the gradients of a0, h0, o0 and of the views, and
        (w, b) per block slot, for the slots and views the iterations read."""
        n = self.n
        slots = SLOTS if len(caches) > 1 else LAST_SLOTS
        grads = {kind + "0": np.zeros_like(x0) for kind, x0 in self.x0.items()}
        # a pair map's W_x rows, the per-frame constants' rows, the other blocks' (w, b)
        grads.update({slot: np.zeros_like(w_x) for slot, w_x in self.w_x.items()})
        frames = self.x0["a"].shape[1]
        grads.update({"lang_" + kind: np.zeros((2 * n, frames)) for kind in STACKS})
        grads.update({"frame_" + kind: np.zeros((2 * n, frames)) for kind in FOLDS})
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
        # each pair map's L per sample feeds its stacked rows (n·L in a node sum) and its frame term
        d_lang = {}
        for kind, stack in STACKS.items():
            d = self.samples.sum(grads["lang_" + kind] * self.counts[kind], 1)
            for i, slot in enumerate(stack):
                d_lang[slot] = d[i * n : (i + 1) * n]
        for kind, folds in FOLDS.items():
            f = self.samples.sum(grads["frame_" + kind], 1)
            for i, (slot, msg) in enumerate(folds):
                f_i = f[i * n : (i + 1) * n]
                d_lang[slot] = d_lang[slot] + self.msg[msg][0] @ f_i
                grads[msg][0][:n] += self.lang[slot] @ f_i.T
                grads[msg][1] += f_i.sum(axis=1)
        blocks = {slot: tuple(grads[slot]) for slot in MAPS if slot in slots}
        for slot, view, _ in PAIRS:
            if slot in slots:
                pm = self.params[slot]
                inputs[view] = inputs.get(view, 0.0) + (pm.w.data[: self.d_lang] @ d_lang[slot]).T
                w_l = self.views[view].T @ d_lang[slot].T
                blocks[slot] = (np.concatenate([w_l, grads[slot]]), d_lang[slot].sum(axis=1)[None, :])
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
