"""Query encoding: embeddings, bidirectional GRU, mean pooling and the
three attention heads that produce the linguistic node vectors.

The GRU is a fused autodiff op: `gru_sequence` runs one direction over all
rows of a matrix as a single tape node with a hand-written backward pass
(backpropagation through time), and `bigru_forward` joins two of them. The
temporal head in temporal.py runs its two BiGRU layers through the same op.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, InputError
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

    def __contains__(self, tok):
        return tok in self._index

    def index(self, tok: str) -> int:
        return self._index.get(tok, self._index[UNK])

    def tokens(self) -> list[str]:
        return sorted(self._index, key=self._index.get)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        return cls(tokens)


def load_embedding_file(path: str, vocab: Vocabulary, d_w: int, rng: np.random.Generator) -> Tensor:
    """Load word vectors in the text format: token then d_w decimals per line.

    Tokens absent from the file keep a random row.
    """
    table = rng.normal(0.0, 0.1, size=(len(vocab), d_w))
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != d_w + 1:
                raise DataError(f"{path}:{lineno}: expected token + {d_w} values, got {len(parts)} fields")
            tok = parts[0]
            if tok in vocab:
                table[vocab.index(tok)] = [float(v) for v in parts[1:]]
    return Tensor(table, requires_grad=True)


@dataclass
class GruParams:
    """Single-direction GRU gate parameters."""

    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor

    @classmethod
    def create(cls, rng, d_in: int, hidden: int, registry: dict, prefix: str) -> "GruParams":
        fields = {}
        for gate in ("z", "r", "h"):
            fields[f"w{gate}"] = glorot(rng, d_in, hidden)
            fields[f"u{gate}"] = glorot(rng, hidden, hidden)
            fields[f"b{gate}"] = zeros((1, hidden))
        for name, t in fields.items():
            registry[f"{prefix}.{name}"] = t
        return cls(**fields)


def gru_sequence(x: Tensor, p: GruParams, reverse: bool = False) -> Tensor:
    """Run a GRU over the rows of an m x d_in tensor; zero initial hidden state.

    Returns the m x hidden matrix of hidden states, row i holding the state
    after row i, as one tape node whose inputs are x and the nine gate
    blocks. The forward pass is a numpy loop that caches z, r, the candidate
    and the previous hidden state per step; the backward pass is
    hand-written backpropagation through time that carries only the
    hidden-state gradient across steps.
    """
    m = x.data.shape[0]
    if m < 1:
        raise InputError("gru_sequence needs at least one row")
    hidden = p.uz.data.shape[0]
    order = range(m - 1, -1, -1) if reverse else range(m)
    xz, xr, xh = x.data @ p.wz.data, x.data @ p.wr.data, x.data @ p.wh.data
    uz, ur, uh = p.uz.data, p.ur.data, p.uh.data
    bz, br, bh = p.bz.data, p.br.data, p.bh.data
    out = np.empty((m, hidden))
    h_prev = np.empty((m, hidden))
    zs, rs, cands = np.empty((m, hidden)), np.empty((m, hidden)), np.empty((m, hidden))
    h = np.zeros((1, hidden))
    for i in order:
        row = slice(i, i + 1)
        z = 1.0 / (1.0 + np.exp(-(xz[row] + h @ uz + bz)))
        r = 1.0 / (1.0 + np.exp(-(xr[row] + h @ ur + br)))
        cand = np.tanh(xh[row] + (r * h) @ uh + bh)
        h_prev[row], zs[row], rs[row], cands[row] = h, z, r, cand
        h = (1.0 - z) * h + z * cand
        out[row] = h

    def backward(g):
        # pre-activation gradients of the three gates, filled step by step
        d_az, d_ar, d_ac = np.empty((m, hidden)), np.empty((m, hidden)), np.empty((m, hidden))
        dh = np.zeros((1, hidden))
        for i in reversed(order):
            row = slice(i, i + 1)
            z, r, cand, hp = zs[row], rs[row], cands[row], h_prev[row]
            dh = dh + g[row]
            dac = dh * z * (1.0 - cand * cand)
            d_rh = dac @ uh.T
            dar = d_rh * hp * r * (1.0 - r)
            daz = dh * (cand - hp) * z * (1.0 - z)
            d_az[row], d_ar[row], d_ac[row] = daz, dar, dac
            dh = dh * (1.0 - z) + d_rh * r + daz @ uz.T + dar @ ur.T
        ad._accumulate(x, d_az @ p.wz.data.T + d_ar @ p.wr.data.T + d_ac @ p.wh.data.T)
        for w, u, b, da, h_in in (
            (p.wz, p.uz, p.bz, d_az, h_prev),
            (p.wr, p.ur, p.br, d_ar, h_prev),
            (p.wh, p.uh, p.bh, d_ac, rs * h_prev),
        ):
            ad._accumulate(w, x.data.T @ da)
            ad._accumulate(u, h_in.T @ da)
            ad._accumulate(b, da.sum(axis=0, keepdims=True))

    inputs = (x, p.wz, p.uz, p.bz, p.wr, p.ur, p.br, p.wh, p.uh, p.bh)
    return ad._make(out, inputs, backward)


def bigru_forward(x: Tensor, fwd: GruParams, bwd: GruParams) -> Tensor:
    """m x d_in -> m x 2*hidden: forward and backward hidden states side by side.

    Each direction is one fused gru_sequence node, so the whole layer adds
    three nodes to the tape: the two directions and their concat.
    """
    return ad.concat([gru_sequence(x, fwd), gru_sequence(x, bwd, reverse=True)], axis=1)


def pool_query(contexts: Tensor) -> Tensor:
    """Mean over words: m x d -> 1 x d."""
    return ad.mean_axis(contexts, axis=0, keepdims=True)


@dataclass
class AttentionHeadParams:
    wk: Tensor
    bk: Tensor

    @classmethod
    def create(cls, rng, d_w: int, d_q: int, registry: dict, prefix: str) -> "AttentionHeadParams":
        wk = glorot(rng, d_w, d_q)
        bk = zeros((1, d_q))
        registry[f"{prefix}.wk"] = wk
        registry[f"{prefix}.bk"] = bk
        return cls(wk, bk)


@dataclass
class QueryEncoding:
    """Pooled query vector plus the three linguistic node vectors."""

    q: Tensor
    sv: Tensor
    sn: Tensor
    vn: Tensor
    attention_weights: np.ndarray  # 3 x m, rows sum to 1


def attend_heads(
    q: Tensor, embeddings: Tensor, contexts: Tensor, heads: list[AttentionHeadParams]
) -> tuple[list[Tensor], np.ndarray]:
    """softmax(q k^T) v per head: keys from raw embeddings, values from contexts."""
    outputs = []
    weights = []
    for head in heads:
        keys = embeddings @ head.wk + head.bk  # m x d_q
        w = ad.softmax(_qk_logits(q, keys), axis=1)  # 1 x m
        outputs.append(w @ contexts)
        weights.append(w.data[0].copy())
    return outputs, np.stack(weights)


def _qk_logits(q: Tensor, keys: Tensor) -> Tensor:
    """q (1 x d) against keys (m x d) -> 1 x m, via a transpose-free matmul."""
    # (m x d) @ (d x 1) -> m x 1, reshaped to 1 x m keeps gradients exact
    col = ad.matmul(keys, ad.reshape(q, (q.data.shape[1], 1)))
    return ad.reshape(col, (1, keys.data.shape[0]))


@dataclass
class TextEncoderParams:
    embedding: Tensor
    gru_fwd: GruParams
    gru_bwd: GruParams
    head_sv: AttentionHeadParams
    head_sn: AttentionHeadParams
    head_vn: AttentionHeadParams

    @classmethod
    def create(cls, rng, vocab_size: int, d_w: int, hidden: int, registry: dict) -> "TextEncoderParams":
        embedding = Tensor(rng.normal(0.0, 0.1, size=(vocab_size, d_w)), requires_grad=True)
        registry["text.embedding"] = embedding
        return cls(
            embedding=embedding,
            gru_fwd=GruParams.create(rng, d_w, hidden, registry, "text.gru_fwd"),
            gru_bwd=GruParams.create(rng, d_w, hidden, registry, "text.gru_bwd"),
            head_sv=AttentionHeadParams.create(rng, d_w, 2 * hidden, registry, "text.head_sv"),
            head_sn=AttentionHeadParams.create(rng, d_w, 2 * hidden, registry, "text.head_sn"),
            head_vn=AttentionHeadParams.create(rng, d_w, 2 * hidden, registry, "text.head_vn"),
        )


def embed_query(tokens: list[str], vocab: Vocabulary, table: Tensor) -> Tensor:
    """Look up token embeddings; unknown tokens map to the <unk> row."""
    if not tokens:
        raise InputError("empty query")
    return ad.gather_rows(table, [vocab.index(tok) for tok in tokens])


def encode_query(tokens: list[str], vocab: Vocabulary, params: TextEncoderParams) -> QueryEncoding:
    """Full linguistic pipeline: embed -> BiGRU -> pool -> three heads."""
    embeddings = embed_query(tokens, vocab, params.embedding)
    contexts = bigru_forward(embeddings, params.gru_fwd, params.gru_bwd)
    q = pool_query(contexts)
    (sv, sn, vn), weights = attend_heads(
        q, embeddings, contexts, [params.head_sv, params.head_sn, params.head_vn]
    )
    return QueryEncoding(q=q, sv=sv, sn=sn, vn=vn, attention_weights=weights)
