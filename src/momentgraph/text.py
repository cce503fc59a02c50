"""Query encoding: embeddings, bidirectional GRU, mean pooling and the
three attention heads that produce the linguistic node vectors.
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


def gru_step(x: Tensor, h: Tensor, p: GruParams) -> Tensor:
    """One GRU cell step: z and r gates, candidate, convex update."""
    z = ad.sigmoid(x @ p.wz + h @ p.uz + p.bz)
    r = ad.sigmoid(x @ p.wr + h @ p.ur + p.br)
    cand = ad.tanh(x @ p.wh + ad.mul(r, h) @ p.uh + p.bh)
    return ad.add(ad.mul(1.0 - z, h), ad.mul(z, cand))


def gru_sequence(rows: list[Tensor], p: GruParams, hidden: int, reverse: bool = False) -> list[Tensor]:
    """Run a GRU over a list of 1 x d rows; zero initial hidden state."""
    order = range(len(rows) - 1, -1, -1) if reverse else range(len(rows))
    h = Tensor(np.zeros((1, hidden)))
    out: list[Tensor | None] = [None] * len(rows)
    for i in order:
        h = gru_step(rows[i], h, p)
        out[i] = h
    return out  # type: ignore[return-value]


def bigru_forward(x: Tensor, fwd: GruParams, bwd: GruParams, hidden: int) -> Tensor:
    """m x d_in -> m x 2*hidden: concatenated forward/backward hidden states."""
    m = x.data.shape[0]
    rows = [ad.take_row(x, i) for i in range(m)]
    hf = gru_sequence(rows, fwd, hidden)
    hb = gru_sequence(rows, bwd, hidden, reverse=True)
    return ad.concat([ad.concat(hf, axis=0), ad.concat(hb, axis=0)], axis=1)


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
    hidden: int

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
            hidden=hidden,
        )


def embed_query(tokens: list[str], vocab: Vocabulary, table: Tensor) -> Tensor:
    """Look up token embeddings; unknown tokens map to the <unk> row."""
    if not tokens:
        raise InputError("empty query")
    rows = [ad.take_row(table, vocab.index(tok)) for tok in tokens]
    return ad.concat(rows, axis=0)


def encode_query(tokens: list[str], vocab: Vocabulary, params: TextEncoderParams) -> QueryEncoding:
    """Full linguistic pipeline: embed -> BiGRU -> pool -> three heads."""
    embeddings = embed_query(tokens, vocab, params.embedding)
    contexts = bigru_forward(embeddings, params.gru_fwd, params.gru_bwd, params.hidden)
    q = pool_query(contexts)
    (sv, sn, vn), weights = attend_heads(
        q, embeddings, contexts, [params.head_sv, params.head_sn, params.head_vn]
    )
    return QueryEncoding(q=q, sv=sv, sn=sn, vn=vn, attention_weights=weights)
