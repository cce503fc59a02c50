"""Language-conditioned message passing over the six-node spatial graph.

Each activity timestep is processed independently: pair features couple a
linguistic vector with a node latent, messages combine pair features, and
node updates gate the iteration-0 latents. spatial_graph runs every
iteration for every timestep of a minibatch of videos as one tape node with
a hand-written backward pass; the per-frame numpy oracle lives in
tests/reference_impls.py. Includes all ablation variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError
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


@dataclass
class SpatialGraphParams:
    """Pair functions, shared message maps and node update maps.

    The three message maps are shared between the two directions of each
    linguistic edge (activity<->human, activity<->object, human<->object),
    so mutating one block changes both message families.
    """

    phi_sno: PairMap
    phi_vno: PairMap
    phi_sva: PairMap
    phi_vna: PairMap
    phi_snh: PairMap
    phi_svh: PairMap
    msg_sv: PairMap  # shared by the A->H and H->A messages
    msg_vn: PairMap  # shared by the A->O and O->A messages
    msg_sn: PairMap  # shared by the H->O and O->H messages
    m_o: PairMap
    m_a: PairMap
    m_h: PairMap

    @classmethod
    def create(cls, rng, d_lang: int, latent: int, registry: dict, prefix: str = "graph") -> "SpatialGraphParams":
        pair = d_lang + latent
        return cls(
            phi_sno=PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_sno"),
            phi_vno=PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_vno"),
            phi_sva=PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_sva"),
            phi_vna=PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_vna"),
            phi_snh=PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_snh"),
            phi_svh=PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_svh"),
            msg_sv=PairMap.create(rng, 2 * latent, latent, registry, f"{prefix}.msg_sv"),
            msg_vn=PairMap.create(rng, 2 * latent, latent, registry, f"{prefix}.msg_vn"),
            msg_sn=PairMap.create(rng, 2 * latent, latent, registry, f"{prefix}.msg_sn"),
            m_o=PairMap.create(rng, latent, latent, registry, f"{prefix}.m_o"),
            m_a=PairMap.create(rng, latent, latent, registry, f"{prefix}.m_a"),
            m_h=PairMap.create(rng, latent, latent, registry, f"{prefix}.m_h"),
        )


class SortedSegments:
    """A sorted row -> segment map, summed with np.add.reduceat.

    The starts of the non-empty segments are found once, so each sum is one
    CSR-style reduction over contiguous rows; an empty segment is an exact
    zero row. Unsorted or out-of-range ids are a ContractError.
    """

    def __init__(self, ids, n_segments: int, what: str):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids[0] < 0 or ids[-1] >= n_segments or (ids[1:] < ids[:-1]).any()):
            raise ContractError(f"{what}: segment ids must be sorted and in [0, {n_segments})")
        counts = np.bincount(ids, minlength=n_segments)
        self.ids = ids
        self.n = n_segments
        self.present = np.flatnonzero(counts)
        self.starts = (np.cumsum(counts) - counts)[self.present]

    def sum(self, x: np.ndarray) -> np.ndarray:
        if self.present.size == self.n:
            return np.add.reduceat(x, self.starts, axis=0)
        out = np.zeros((self.n, x.shape[1]))
        if self.present.size:
            out[self.present] = np.add.reduceat(x, self.starts, axis=0)
        return out


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


def _gate(left, right, m: PairMap, x0):
    """sigmoid(m(left ⊙ right) ⊙ x0), the update of one node kind, and its cache."""
    prod = left * right
    pre = prod @ m.w.data + m.b.data
    new = 1.0 / (1.0 + np.exp(-(pre * x0)))
    return new, (left, right, prod, pre, new)


def _gate_backward(g, cache, m: PairMap, x0, grad):
    """Gradients of left, right and x0 from that of the gate's output; m's accumulate into grad."""
    left, right, prod, pre, new = cache
    d_z = g * new * (1.0 - new)
    d_pre = d_z * x0
    grad[0] += prod.T @ d_pre
    grad[1] += d_pre.sum(axis=0, keepdims=True)
    d_prod = d_pre @ m.w.data.T
    return d_prod * right, d_prod * left, d_z * pre


def _msg_grads(grad, first, second, d, d_second=None):
    """Accumulate the gradient of a message map m([first ; second]) with output gradient d.
    A second input gathered per node passes its frame-level rows and d summed per frame."""
    n = first.shape[1]
    grad[0][:n] += first.T @ d
    grad[0][n:] += second.T @ (d if d_second is None else d_second)
    grad[1] += d.sum(axis=0, keepdims=True)


class MessagePassing:
    """The fixed inputs of one spatial_graph call, in the form its iterations read.

    Every pair map splits as phi([l ; x]) = l·W_l + x·W_x + b. The
    linguistic half l·W_l + b is computed once per sample, from the sample's
    row of sv, sn or vn, and gathered to that sample's frames or nodes, so an
    iteration adds only x·W_x. A message map splits the same way over its
    two inputs. frame_sample maps frames to samples and h_seg / o_seg map
    nodes to frames; all three are SortedSegments.
    """

    def __init__(self, params: SpatialGraphParams, a0, h0, o0, sv, sn, vn, frame_sample, h_seg, o_seg):
        t, n = a0.shape
        if (len(frame_sample), len(h_seg), len(o_seg)) != (t, h0.shape[0], o0.shape[0]):
            raise DimensionError(
                f"spatial graph: {len(frame_sample)} frame ids for {t} frames, {len(h_seg)} for "
                f"{h0.shape[0]} humans, {len(o_seg)} for {o0.shape[0]} objects"
            )
        self.params = params
        self.x0 = {"a": a0, "h": h0, "o": o0}
        self.views = {"sv": sv, "sn": sn, "vn": vn}
        self.samples = SortedSegments(frame_sample, sv.shape[0], "frame_sample")
        self.humans = SortedSegments(h_seg, t, "h_seg")
        self.objects = SortedSegments(o_seg, t, "o_seg")
        frame_sample = self.samples.ids
        sample_of = {"a": frame_sample, "h": frame_sample[self.humans.ids], "o": frame_sample[self.objects.ids]}
        self.d_lang = d = sv.shape[1]
        self.w_x, self.lang = {}, {}
        for slot, view, kind in PAIRS:
            pm = getattr(params, slot)
            self.w_x[slot] = pm.w.data[d:]
            self.lang[slot] = (self.views[view] @ pm.w.data[:d] + pm.b.data)[sample_of[kind]]
        self.msg = [(m.w.data[:n], m.w.data[n:]) for m in (params.msg_sv, params.msg_vn, params.msg_sn)]

    def _pair(self, slot, x):
        return self.lang[slot] + x @ self.w_x[slot]

    def step(self, a, h, o, last: bool = False):
        """One message-passing iteration: the updated (a, h, o) and the cache
        step_backward reads. The last iteration updates a only, so h and o
        come back as None and what feeds only them is not computed."""
        p, hs, os_ = self.params, self.humans, self.objects
        (sv1, sv2), (vn1, vn2), (sn1, sn2) = self.msg
        sva, vna = self._pair("phi_sva", a), self._pair("phi_vna", a)
        vno, svh = self._pair("phi_vno", o), self._pair("phi_svh", h)
        sum_vno, sum_svh = os_.sum(vno), hs.sum(svh)
        h_sv_a = sva @ sv1 + sum_svh @ sv2 + p.msg_sv.b.data
        o_vn_a = vna @ vn1 + sum_vno @ vn2 + p.msg_vn.b.data
        a_new, gate_a = _gate(h_sv_a, o_vn_a, p.m_a, self.x0["a"])
        cache = [a, h, o, sva, vna, vno, svh, sum_vno, sum_svh, gate_a]
        if last:
            return a_new, None, None, cache
        sno, snh = self._pair("phi_sno", o), self._pair("phi_snh", h)
        sum_sno, sum_snh = os_.sum(sno), hs.sum(snh)
        h_sn_o = sno @ sn1 + (sum_snh @ sn2)[os_.ids] + p.msg_sn.b.data
        a_vn_o = vno @ vn1 + (vna @ vn2)[os_.ids] + p.msg_vn.b.data
        o_sn_h = snh @ sn1 + (sum_sno @ sn2)[hs.ids] + p.msg_sn.b.data
        a_sv_h = svh @ sv1 + (sva @ sv2)[hs.ids] + p.msg_sv.b.data
        o_new, gate_o = _gate(h_sn_o, a_vn_o, p.m_o, self.x0["o"])
        h_new, gate_h = _gate(o_sn_h, a_sv_h, p.m_h, self.x0["h"])
        return a_new, h_new, o_new, cache + [sno, snh, sum_sno, sum_snh, gate_o, gate_h]

    def step_backward(self, cache, ga, gh, go, grads):
        """The gradients of a step's inputs (a, h, o) from those of its
        outputs; gh and go are None for the last step. Block, x0 and
        linguistic-row gradients accumulate into grads."""
        p, hs, os_ = self.params, self.humans, self.objects
        (sv1, sv2), (vn1, vn2), (sn1, sn2) = self.msg
        a, h, o, sva, vna, vno, svh, sum_vno, sum_svh, gate_a = cache[:10]
        d_h_sv_a, d_o_vn_a, d_x0 = _gate_backward(ga, gate_a, p.m_a, self.x0["a"], grads["m_a"])
        grads["a0"] += d_x0
        _msg_grads(grads["msg_sv"], sva, sum_svh, d_h_sv_a)
        _msg_grads(grads["msg_vn"], vna, sum_vno, d_o_vn_a)
        d = {
            "phi_sva": d_h_sv_a @ sv1.T,
            "phi_vna": d_o_vn_a @ vn1.T,
            "phi_vno": (d_o_vn_a @ vn2.T)[os_.ids],
            "phi_svh": (d_h_sv_a @ sv2.T)[hs.ids],
        }
        if gh is not None:
            sno, snh, sum_sno, sum_snh, gate_o, gate_h = cache[10:]
            d_h_sn_o, d_a_vn_o, d_x0 = _gate_backward(go, gate_o, p.m_o, self.x0["o"], grads["m_o"])
            grads["o0"] += d_x0
            d_o_sn_h, d_a_sv_h, d_x0 = _gate_backward(gh, gate_h, p.m_h, self.x0["h"], grads["m_h"])
            grads["h0"] += d_x0
            # each node message reads one frame-level input gathered per node,
            # whose gradient is the message's gradient summed per frame
            f_snh, f_vna = os_.sum(d_h_sn_o), os_.sum(d_a_vn_o)
            f_sno, f_sva = hs.sum(d_o_sn_h), hs.sum(d_a_sv_h)
            _msg_grads(grads["msg_sn"], sno, sum_snh, d_h_sn_o, f_snh)
            _msg_grads(grads["msg_vn"], vno, vna, d_a_vn_o, f_vna)
            _msg_grads(grads["msg_sn"], snh, sum_sno, d_o_sn_h, f_sno)
            _msg_grads(grads["msg_sv"], svh, sva, d_a_sv_h, f_sva)
            d["phi_sva"] += f_sva @ sv2.T
            d["phi_vna"] += f_vna @ vn2.T
            d["phi_vno"] += d_a_vn_o @ vn1.T
            d["phi_svh"] += d_a_sv_h @ sv1.T
            d["phi_sno"] = d_h_sn_o @ sn1.T + (f_sno @ sn2.T)[os_.ids]
            d["phi_snh"] = d_o_sn_h @ sn1.T + (f_snh @ sn2.T)[hs.ids]
        x = {"a": a, "h": h, "o": o}
        dx = {"a": 0.0, "h": 0.0, "o": 0.0}
        for slot, _, kind in PAIRS:
            if slot in d:
                dx[kind] = dx[kind] + d[slot] @ self.w_x[slot].T
                grads[slot] += x[kind].T @ d[slot]
                grads["lang." + slot] += d[slot]
        return dx["a"], dx["h"], dx["o"]

    def backward(self, caches, g):
        """Replay the cached iterations in reverse from the gradient g of the
        final a. Returns the gradients of a0, h0, o0 and of the views, and
        (w, b) per block slot, for the slots and views the iterations read."""
        slots = SLOTS if len(caches) > 1 else LAST_SLOTS
        grads = {kind + "0": np.zeros_like(x0) for kind, x0 in self.x0.items()}
        # a pair map's W_x rows and its gathered linguistic rows; the other blocks' (w, b)
        grads.update({slot: np.zeros_like(w_x) for slot, w_x in self.w_x.items()})
        grads.update({"lang." + slot: np.zeros_like(rows) for slot, rows in self.lang.items()})
        for slot in MAPS:
            pm = getattr(self.params, slot)
            grads[slot] = [np.zeros_like(pm.w.data), np.zeros_like(pm.b.data)]
        ga, gh, go = g, None, None
        for cache in reversed(caches):
            ga, gh, go = self.step_backward(cache, ga, gh, go, grads)
        inputs = {"a0": grads["a0"] + ga, "h0": grads["h0"] + gh, "o0": grads["o0"] + go}
        to_frames = {"a": lambda x: x, "h": self.humans.sum, "o": self.objects.sum}
        blocks = {slot: tuple(grads[slot]) for slot in MAPS if slot in slots}
        for slot, view, kind in PAIRS:
            if slot in slots:
                pm = getattr(self.params, slot)
                per_sample = self.samples.sum(to_frames[kind](grads["lang." + slot]))
                inputs[view] = inputs.get(view, 0.0) + per_sample @ pm.w.data[: self.d_lang].T
                w_l = self.views[view].T @ per_sample
                blocks[slot] = (np.vstack([w_l, grads[slot]]), per_sample.sum(axis=0, keepdims=True))
        return inputs, blocks


def spatial_graph(
    a0: Tensor,
    h0: Tensor,
    o0: Tensor,
    sv: Tensor,
    sn: Tensor,
    vn: Tensor,
    frame_sample,
    h_seg,
    o_seg,
    params: SpatialGraphParams,
    n_iters: int,
) -> Tensor:
    """The activity latents after n_iters rounds of message passing, as one tape node.

    a0 stacks the frames of a minibatch and frame_sample maps each frame to
    its sample; h0 / o0 stack every frame's human / object latents, and
    h_seg / o_seg map each row to its frame. sv / sn / vn hold one
    linguistic row per sample. All three maps must be sorted. Frames never
    exchange information, so each gets exactly its per-frame update. An
    empty human (object) set is a 0-row matrix on the same path whose
    segment sums are exact zero rows. With n_iters = 0 the result is a0
    itself.

    The node's inputs are a0, h0, o0, sv, sn, vn and the graph's blocks; a
    block tied into several slots (single_query) collects every slot's
    gradient. The iterations' caches are kept only while a tape records the
    node, and the hand-written backward replays them in reverse. A block
    the iterations do not read (the h and o side of a one-iteration graph)
    gets no gradient.
    """
    if n_iters == 0:
        return a0
    mp = MessagePassing(params, a0.data, h0.data, o0.data, sv.data, sn.data, vn.data, frame_sample, h_seg, o_seg)
    tensors = {"a0": a0, "h0": h0, "o0": o0, "sv": sv, "sn": sn, "vn": vn}
    inputs = (*tensors.values(), *(t for slot in SLOTS for t in (getattr(params, slot).w, getattr(params, slot).b)))
    recording = ad.active_tape() is not None and any(t.requires_grad for t in inputs)
    a, h, o = a0.data, h0.data, o0.data
    caches = []
    for i in range(n_iters):
        a, h, o, cache = mp.step(a, h, o, last=i == n_iters - 1)
        if recording:
            caches.append(cache)
        del cache  # untaped, an iteration's cache is freed before the next one runs

    def backward(g):
        grads, blocks = mp.backward(caches, g)
        for name, grad in grads.items():
            ad._accumulate(tensors[name], grad)
        for slot, (w, b) in blocks.items():
            pm = getattr(params, slot)
            ad._accumulate(pm.w, w)
            ad._accumulate(pm.b, b)

    return ad._make(a, inputs, backward)


def create_single_query_params(
    rng, d_lang: int, latent: int, registry: dict, prefix: str = "qgraph"
) -> SpatialGraphParams:
    """Single-query-node parameterization: one pair map per visual node kind.

    The returned view ties each linguistic-pair slot to its query-pair map,
    so the full message-passing pipeline runs unchanged with sv = sn = vn = q.
    """
    pair = d_lang + latent
    phi_qa = PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_qa")
    phi_qo = PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_qo")
    phi_qh = PairMap.create(rng, pair, latent, registry, f"{prefix}.phi_qh")
    return SpatialGraphParams(
        phi_sno=phi_qo,
        phi_vno=phi_qo,
        phi_sva=phi_qa,
        phi_vna=phi_qa,
        phi_snh=phi_qh,
        phi_svh=phi_qh,
        msg_sv=PairMap.create(rng, 2 * latent, latent, registry, f"{prefix}.msg_ah"),
        msg_vn=PairMap.create(rng, 2 * latent, latent, registry, f"{prefix}.msg_ao"),
        msg_sn=PairMap.create(rng, 2 * latent, latent, registry, f"{prefix}.msg_ho"),
        m_o=PairMap.create(rng, latent, latent, registry, f"{prefix}.m_o"),
        m_a=PairMap.create(rng, latent, latent, registry, f"{prefix}.m_a"),
        m_h=PairMap.create(rng, latent, latent, registry, f"{prefix}.m_h"),
    )


@dataclass
class NoGraphParams:
    """Baseline map: [activity ; mean-pooled detections] -> latent."""

    w: Tensor
    b: Tensor

    @classmethod
    def create(cls, rng, d_v: int, d_o: int, latent: int, registry: dict) -> "NoGraphParams":
        p = cls(w=glorot(rng, d_v + d_o, latent), b=zeros((1, latent)))
        registry["nograph.w"] = p.w
        registry["nograph.b"] = p.b
        return p

