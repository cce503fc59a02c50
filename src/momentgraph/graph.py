"""Language-conditioned message passing over the six-node spatial graph.

Each activity timestep is processed independently: pair features couple a
linguistic vector with a node latent, messages combine pair features, and
node updates gate the iteration-0 latents. run_message_passing_sequence
runs every timestep of a minibatch of videos as one batch of tape ops; the
per-frame numpy oracle lives in tests/reference_impls.py. Includes all
ablation variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .init import glorot, zeros

VARIANTS = ("full", "no_graph", "no_node_types", "no_human_node", "no_object_node", "single_query")


def check_variant(name: str) -> str:
    if name not in VARIANTS:
        raise ConfigError(f"unknown graph variant '{name}' (expected one of {', '.join(VARIANTS)})")
    return name


@dataclass
class PairMap:
    """Affine map over [linguistic ; observation] concatenations."""

    w: Tensor
    b: Tensor

    @classmethod
    def create(cls, rng, d_in: int, d_out: int, registry: dict, name: str) -> "PairMap":
        p = cls(w=glorot(rng, d_in, d_out), b=zeros((1, d_out)))
        registry[f"{name}.w"] = p.w
        registry[f"{name}.b"] = p.b
        return p

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b


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


def run_message_passing_sequence(
    a0: Tensor,
    h0: Tensor,
    o0: Tensor,
    h_seg: np.ndarray,
    o_seg: np.ndarray,
    sv: Tensor,
    sn: Tensor,
    vn: Tensor,
    params: SpatialGraphParams,
    n_iters: int,
) -> tuple[Tensor, Tensor, Tensor]:
    """All timesteps in a single batch of tape ops.

    a0 is t x latent; h0 / o0 stack every frame's human / object latents with
    h_seg / o_seg mapping each row to its timestep. sv / sn / vn hold one
    linguistic row per timestep, so the frames of several videos, each with
    its own query, run as one batch. Timesteps never exchange information,
    so each frame's rows get exactly the per-frame update, just fused into
    shared matrices. An empty human (object) set is a 0-row matrix on the
    same path; its zero-row ops add exact zeros, so a frame with no humans
    (objects) sums to a zero row. Returns the (a, h, o) latents after
    n_iters; with n_iters = 0 these are the input objects themselves.
    """
    t = a0.data.shape[0]
    a, h, o = a0, h0, o0
    if n_iters:
        # each node's linguistic rows, shared by every iteration
        sn_o, vn_o = ad.gather_rows(sn, o_seg), ad.gather_rows(vn, o_seg)
        sn_h, sv_h = ad.gather_rows(sn, h_seg), ad.gather_rows(sv, h_seg)
    for _ in range(n_iters):
        sva = params.phi_sva(ad.concat([sv, a], axis=1))
        vna = params.phi_vna(ad.concat([vn, a], axis=1))
        sno = params.phi_sno(ad.concat([sn_o, o], axis=1))
        vno = params.phi_vno(ad.concat([vn_o, o], axis=1))
        sum_sno = ad.segment_sum(sno, o_seg, t)
        sum_vno = ad.segment_sum(vno, o_seg, t)
        snh = params.phi_snh(ad.concat([sn_h, h], axis=1))
        svh = params.phi_svh(ad.concat([sv_h, h], axis=1))
        sum_snh = ad.segment_sum(snh, h_seg, t)
        sum_svh = ad.segment_sum(svh, h_seg, t)
        h_sv_a = params.msg_sv(ad.concat([sva, sum_svh], axis=1))
        o_vn_a = params.msg_vn(ad.concat([vna, sum_vno], axis=1))
        h_sn_o = params.msg_sn(ad.concat([sno, ad.gather_rows(sum_snh, o_seg)], axis=1))
        a_vn_o = params.msg_vn(ad.concat([vno, ad.gather_rows(vna, o_seg)], axis=1))
        o = ad.sigmoid(ad.mul(params.m_o(ad.mul(h_sn_o, a_vn_o)), o0))
        o_sn_h = params.msg_sn(ad.concat([snh, ad.gather_rows(sum_sno, h_seg)], axis=1))
        a_sv_h = params.msg_sv(ad.concat([svh, ad.gather_rows(sva, h_seg)], axis=1))
        h = ad.sigmoid(ad.mul(params.m_h(ad.mul(o_sn_h, a_sv_h)), h0))
        a = ad.sigmoid(ad.mul(params.m_a(ad.mul(h_sv_a, o_vn_a)), a0))
    return a, h, o


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

