"""Query encoding: embeddings, bidirectional GRU, mean pooling and the
attention heads that produce the linguistic node vectors, for a minibatch
of queries at once.

Every stage after the embedding lookup is a fused autodiff op with a
hand-written backward: `bigru_forward` (one tape node per BiGRU layer, both
directions over a ragged batch of stacked sequences; the temporal head runs
its two layers through it too), `pool_query` (one node) and `attend_heads`
(one node per head).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, InputError
from .init import glorot, zeros

UNK = "<unk>"
PAD = "<pad>"

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token -> contiguous index map with <unk>/<pad> specials."""

    def __init__(self, tokens=()):
        self._index = {UNK: 0, PAD: 1}
        for tok in tokens:
            if tok not in self._index:
                self._index[tok] = len(self._index)

    def __len__(self):
        return len(self._index)

    def index(self, tok: str) -> int:
        return self._index.get(tok, self._index[UNK])

    def tokens(self) -> list[str]:
        return sorted(self._index, key=self._index.get)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        """Vocabulary(tokens); kept only for benchmarks/workload.py, which calls it."""
        return cls(tokens)


@dataclass
class GruParams:
    """Single-direction GRU parameters with the gates side by side in
    [z | r | h] column order: w is d_in x 3*hidden, u is hidden x 3*hidden
    and b is 1 x 3*hidden."""

    w: Tensor
    u: Tensor
    b: Tensor

    @classmethod
    def create(cls, rng, d_in: int, hidden: int, registry: dict, prefix: str) -> "GruParams":
        # drawn gate by gate, input block before recurrent block, then stacked
        draws = [(glorot(rng, d_in, hidden).data, glorot(rng, hidden, hidden).data) for _ in "zrh"]
        w, u = (Tensor(np.hstack(blocks), requires_grad=True) for blocks in zip(*draws))
        p = cls(w=w, u=u, b=zeros((1, 3 * hidden)))
        for name in ("w", "u", "b"):
            registry[f"{prefix}.{name}"] = getattr(p, name)
        return p


def bigru_forward(x: Tensor, fwd: GruParams, bwd: GruParams, segments: ad.SortedSegments | None = None) -> Tensor:
    """Run a bidirectional GRU over B sequences stacked in the rows of an
    N x d_in tensor: N x 2*hidden, forward and backward states side by side.

    segments maps the rows to consecutive sequences (None: all rows are one);
    in each direction every sequence starts from a zero hidden state, the
    backward one at the sequence's own last row. Row i holds its sequence's
    states after row i. The layer is one tape node whose inputs are x, w, u
    and b of each direction, the backward one first. A map of another row
    count is a DimensionError, an empty sequence an InputError.

    Each direction reads x in the map's packed step order, so one loop
    advances a 2 x B x hidden state. The input projections, bias included,
    are one stacked matmul before the loop; each step does one stacked
    recurrent matmul for z and r and one for the candidate, and updates the
    gates and the state in place. Taped, the forward caches only the [z | r]
    gates and the candidate of every step. The backward is hand-written
    backpropagation through time over the same packed steps; it gathers the
    input from x and rebuilds each step's previous state from the output,
    which the tape holds. It first forms every factor that does not depend
    on the hidden-state gradient, for all steps at once, so each step carries
    only that gradient. The factors overwrite the z and candidate caches, so
    the backward runs once, as autodiff.backward guarantees. Untaped, the
    layer keeps no caches and frees the projection before the output.
    """
    n = x.data.shape[0]
    if segments is None:
        segments = ad.SortedSegments.from_counts([n], "bigru_forward")
    if segments.rows != n:
        raise DimensionError(f"bigru_forward: the map has {segments.rows} rows, x has {n}")
    perm, bounds = segments.packed
    hidden = fwd.u.data.shape[0]
    # x is an input of each direction, the backward one first, so it sums their gradients in that order
    directions = ((1, bwd), (0, fwd))
    inputs = tuple(t for _, p in directions for t in (x, p.w, p.u, p.b))
    taped = ad.recording(inputs)

    w, u, b = (np.stack([getattr(fwd, k).data, getattr(bwd, k).data]) for k in "wub")
    proj = x.data[perm] @ w
    proj += b
    # each block splits into its z and r columns and its candidate columns
    (x_zr, x_c), (u_zr, u_c) = (np.split(a, [2 * hidden], axis=2) for a in (proj, u))
    out = np.empty((2, n, hidden))
    if taped:
        cands, zrs = np.empty((2, n, hidden)), np.empty((2, n, 2 * hidden))
    h = np.zeros((2, segments.counts.size, hidden))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sl, hk = slice(lo, hi), h[:, : hi - lo]
        zr = hk @ u_zr
        zr += x_zr[:, sl]
        np.negative(zr, out=zr)
        np.exp(zr, out=zr)
        zr += 1.0
        np.reciprocal(zr, out=zr)
        z = zr[..., :hidden]
        cand = (zr[..., hidden:] * hk) @ u_c
        cand += x_c[:, sl]
        np.tanh(cand, out=cand)
        if taped:
            zrs[:, sl], cands[:, sl] = zr, cand
        # h + z (cand - h): the new state
        cand -= hk
        cand *= z
        hk += cand
        out[:, sl] = hk
    # nothing reads the projection after the loop; freed here, it is not live at the scatter below
    del proj, x_zr, x_c
    result = np.empty((n, 2, hidden))
    result[perm[0], 0], result[perm[1], 1] = out
    if not taped:
        return Tensor(result.reshape(n, 2 * hidden))

    def backward(g):
        gs = np.stack([g[perm[0], :hidden], g[perm[1], hidden:]])
        # packed row r of step k >= 1 follows row r - width(k - 1); step 0 starts from zero
        prev = np.arange(bounds[1], n) - np.repeat(np.diff(bounds[:-1]), np.diff(bounds[1:]))
        h_prev = np.concatenate([np.zeros((2, bounds[1], hidden)), result[perm[:, prev], [[0], [1]]]], axis=1)
        zs, rs = zrs[..., :hidden], zrs[..., hidden:]
        # the factors that do not depend on dh, for every step at once
        f_r = cands - h_prev  # c - h_prev, until f_z has read it
        f_z = 1.0 - zs
        f_z *= zs
        f_z *= f_r  # (c - h_prev) z (1 - z)
        np.subtract(1.0, rs, out=f_r)
        f_r *= rs
        f_r *= h_prev  # h_prev r (1 - r)
        f_c = cands  # z (1 - c²), over the dead candidates
        f_c *= f_c
        np.subtract(1.0, f_c, out=f_c)
        f_c *= zs
        keep = zs  # 1 - z, over the dead z gates
        np.subtract(1.0, keep, out=keep)
        # pre-activation gradients of the three gates, filled step by step
        da = np.empty((2, n, 3 * hidden))
        d_az, d_ar, d_ac = np.split(da, 3, axis=2)
        d_azr = da[..., : 2 * hidden]
        u_zr_t, u_c_t = u_zr.transpose(0, 2, 1), u_c.transpose(0, 2, 1)
        dh = np.zeros((2, segments.counts.size, hidden))
        for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
            sl, dhk = slice(lo, hi), dh[:, : hi - lo]
            dhk += gs[:, sl]
            np.multiply(dhk, f_c[:, sl], out=d_ac[:, sl])
            np.multiply(dhk, f_z[:, sl], out=d_az[:, sl])
            d_rh = d_ac[:, sl] @ u_c_t
            np.multiply(d_rh, f_r[:, sl], out=d_ar[:, sl])
            # dh (1 - z) + d_rh r + d_azr u_zr^T: the previous state's gradient
            dhk *= keep[:, sl]
            d_rh *= rs[:, sl]
            dhk += d_rh
            dhk += d_azr[:, sl] @ u_zr_t
        grads = []
        for d, p in directions:
            dx = np.empty_like(x.data)
            dx[perm[d]] = da[d] @ p.w.data.T
            du = np.hstack([h_prev[d].T @ d_azr[d], (rs[d] * h_prev[d]).T @ d_ac[d]])
            grads += [dx, x.data[perm[d]].T @ da[d], du, da[d].sum(axis=0, keepdims=True)]
        return grads

    return ad.record(result.reshape(n, 2 * hidden), inputs, backward)


def pool_query(contexts: Tensor, words: ad.SortedSegments) -> Tensor:
    """Mean over each query's words: N x d stacked words -> B x d, one row per
    query; one tape node. words maps the stacked words to their queries; a
    map of another row count is a DimensionError."""
    if words.rows != contexts.data.shape[0]:
        raise DimensionError(f"pool_query: {words.rows} ids for {contexts.data.shape[0]} rows")
    inv = 1.0 / words.counts[:, None]

    def backward(g):
        return (words.expand(g * inv, 0),)

    return ad.record(words.sum(contexts.data, 0) * inv, (contexts,), backward)


def attend_heads(
    q: Tensor, embeddings: Tensor, contexts: Tensor, heads: list[Tensor], words: ad.SortedSegments
) -> tuple[list[Tensor], np.ndarray]:
    """softmax(q k^T) v per head and query: keys from raw embeddings, values from contexts.

    A head is its d_w x d_q key matrix: a key bias would add the same
    q·b to every word of a query, which the softmax cancels. q is B x d_q,
    one row per query; embeddings and contexts stack the queries' words,
    which words maps to their queries. Returns one B x d_ctx tensor per head
    and the heads x words weights. Each head is one tape node with inputs
    (q, embeddings, contexts, head). A head that is not embeddings-wide by
    q-wide, or a map of another row count, is a DimensionError.
    """
    e, c = embeddings.data, contexts.data
    if not words.rows == e.shape[0] == c.shape[0]:
        raise DimensionError(f"attend_heads: {words.rows} ids for {e.shape[0]} embeddings and {c.shape[0]} contexts")
    q_rows = words.expand(q.data, 0)  # each word's query
    outputs = []
    weights = []
    for head in heads:
        if head.data.shape != (e.shape[1], q.data.shape[1]):
            raise DimensionError(
                f"attend_heads: a key matrix is {head.data.shape[0]} x {head.data.shape[1]}, "
                f"the embeddings are {e.shape[1]} wide and the queries {q.data.shape[1]}"
            )
        keys = e @ head.data  # words x d_q
        w = words.softmax((q_rows * keys).sum(axis=1, keepdims=True))  # words x 1

        def backward(g, head=head, keys=keys, w=w):
            g_rows = words.expand(g, 0)  # each word's share of its query's output gradient
            g_logits = words.softmax_backward(w, (g_rows * c).sum(axis=1, keepdims=True))
            g_keys = g_logits * q_rows
            return words.sum(g_logits * keys, 0), g_keys @ head.data.T, g_rows * w, e.T @ g_keys

        outputs.append(ad.record(words.sum(w * c, 0), (q, embeddings, contexts, head), backward))
        weights.append(w[:, 0])
    return outputs, np.stack(weights)


# the linguistic views the attention heads produce, in encode_query's order
HEADS = ("sv", "sn", "vn")


@dataclass
class TextEncoderParams:
    embedding: Tensor
    gru_fwd: GruParams
    gru_bwd: GruParams
    heads: list[Tensor]  # one d_w x 2*hidden key matrix per entry of the heads argument

    @classmethod
    def create(cls, rng, vocab_size: int, d_w: int, hidden: int, registry: dict, heads=HEADS) -> "TextEncoderParams":
        embedding = Tensor(rng.normal(0.0, 0.1, size=(vocab_size, d_w)), requires_grad=True)
        registry["text.embedding"] = embedding
        gru_fwd = GruParams.create(rng, d_w, hidden, registry, "text.gru_fwd")
        gru_bwd = GruParams.create(rng, d_w, hidden, registry, "text.gru_bwd")
        keys = [glorot(rng, d_w, 2 * hidden) for _ in heads]
        registry.update({f"text.head_{name}.wk": key for name, key in zip(heads, keys)})
        return cls(embedding=embedding, gru_fwd=gru_fwd, gru_bwd=gru_bwd, heads=keys)


def encode_query(word_ids: list[np.ndarray], params: TextEncoderParams) -> list[Tensor]:
    """Full linguistic pipeline for a batch of queries, each an array of vocabulary ids:
    embed -> BiGRU -> pool -> the attention heads, each one op over all queries' words.
    Returns the views in HEADS order, one row per query; an encoder without
    heads gives its pooled query as every view."""
    lengths = [len(ids) for ids in word_ids]
    if 0 in lengths:
        raise InputError("empty query")
    # the word -> query map, shared by the BiGRU, pooling and the heads
    words = ad.SortedSegments.from_counts(lengths, "encode_query")
    embeddings = ad.gather_rows(params.embedding, np.concatenate(word_ids))
    contexts = bigru_forward(embeddings, params.gru_fwd, params.gru_bwd, words)
    q = pool_query(contexts, words)
    return attend_heads(q, embeddings, contexts, params.heads, words)[0] if params.heads else [q] * len(HEADS)
