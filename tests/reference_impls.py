"""Straight-line numpy re-implementations used as oracles.

Everything here is written with explicit loops over plain arrays and shares
no code with the package, so agreement is evidence of correctness rather
than of consistency.
"""

import json
import struct

import numpy as np


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def fd_grad(f, x, eps=1e-5):
    """Central finite differences of a scalar function of one array, perturbed in place."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return g


def ref_segment_softmax(x, segment_ids, n_segments):
    """x: length-n vector; softmax over the entries of each segment, by explicit loops."""
    out = np.zeros(len(x))
    for s in range(n_segments):
        members = [i for i in range(len(x)) if segment_ids[i] == s]
        if not members:
            continue
        peak = max(x[i] for i in members)
        total = sum(np.exp(x[i] - peak) for i in members)
        for i in members:
            out[i] = np.exp(x[i] - peak) / total
    return out


def ref_softmax_head_grad(x, w, segment_ids, n_segments, g):
    """Gradients of sum(g * softmax_head(x, w)) in x (n x d) and w (d x k),
    column by column in closed form: column c's logit in row i is
    l_i = x_i·w_c, the softmax runs within each segment, and with p the
    segment softmax of l and a_i = p_i (g_ic - sum_{j in i's segment} p_j g_jc),
    column c adds a_i w_c^T to dx_i, and dw_c = sum_i a_i x_i."""
    n = x.shape[0]
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for c in range(w.shape[1]):
        logits = np.array([float(x[i] @ w[:, c]) for i in range(n)])
        p = ref_segment_softmax(logits, segment_ids, n_segments)
        for i in range(n):
            mean_g = sum(p[j] * g[j, c] for j in range(n) if segment_ids[j] == segment_ids[i])
            a = p[i] * (g[i, c] - mean_g)
            dx[i] += a * w[:, c]
            dw[:, c] += a * x[i]
    return dx, dw


def ref_nograph_grad(x, g):
    """Gradients of sum(g * (x·w + b)) in w (d x latent) and b (1 x latent):
    dw = sum_r x_r g_r^T and db = sum_r g_r, row by row."""
    dw = np.zeros((x.shape[1], g.shape[1]))
    db = np.zeros((1, g.shape[1]))
    for r in range(x.shape[0]):
        dw += np.outer(x[r], g[r])
        db[0] += g[r]
    return dw, db


def ref_gru_sequence(x, p, reverse=False):
    """x: m x d_in; p: dict of wz,uz,bz,wr,ur,br,wh,uh,bh arrays. Returns m x hidden."""
    m = x.shape[0]
    hidden = p["uz"].shape[0]
    h = np.zeros(hidden)
    out = np.zeros((m, hidden))
    order = range(m - 1, -1, -1) if reverse else range(m)
    for i in order:
        xi = x[i]
        z = _sig(xi @ p["wz"] + h @ p["uz"] + p["bz"][0])
        r = _sig(xi @ p["wr"] + h @ p["ur"] + p["br"][0])
        cand = np.tanh(xi @ p["wh"] + (r * h) @ p["uh"] + p["bh"][0])
        h = (1.0 - z) * h + z * cand
        out[i] = h
    return out


def ref_bigru(x, p_fwd, p_bwd):
    return np.concatenate([ref_gru_sequence(x, p_fwd), ref_gru_sequence(x, p_bwd, reverse=True)], axis=1)


def _ref_gru_sequence_grad(x, p, g, reverse):
    """Gradients of sum(g * ref_gru_sequence(x, p, reverse)) in x and in the
    nine per-gate arrays of p, by backpropagation through time one step at a
    time: the forward pass of ref_gru_sequence keeping each step's state and
    gates, then the chain rule through h = (1 - z) h_prev + z c,
    c = tanh(x wh + (r h_prev) uh + bh) and the two sigmoid gates."""
    hidden = p["uz"].shape[0]
    h = np.zeros(hidden)
    steps = []
    for i in range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0]):
        z = _sig(x[i] @ p["wz"] + h @ p["uz"] + p["bz"][0])
        r = _sig(x[i] @ p["wr"] + h @ p["ur"] + p["br"][0])
        cand = np.tanh(x[i] @ p["wh"] + (r * h) @ p["uh"] + p["bh"][0])
        steps.append((i, h, z, r, cand))
        h = (1.0 - z) * h + z * cand
    dx = np.zeros_like(x)
    grads = {name: np.zeros_like(a) for name, a in p.items()}
    dh = np.zeros(hidden)
    for i, h_prev, z, r, cand in reversed(steps):
        dh = dh + g[i]
        # pre-activation gradients of the candidate, then of the two gates
        d_ac = dh * z * (1.0 - cand * cand)
        d_rh = d_ac @ p["uh"].T  # gradient of r * h_prev
        d_ar = d_rh * h_prev * r * (1.0 - r)
        d_az = dh * (cand - h_prev) * z * (1.0 - z)
        for gate, d_a, h_in in (("z", d_az, h_prev), ("r", d_ar, h_prev), ("h", d_ac, r * h_prev)):
            grads[f"w{gate}"] += np.outer(x[i], d_a)
            grads[f"u{gate}"] += np.outer(h_in, d_a)
            grads[f"b{gate}"][0] += d_a
            dx[i] += d_a @ p[f"w{gate}"].T
        dh = dh * (1.0 - z) + d_rh * r + d_az @ p["uz"].T + d_ar @ p["ur"].T
    return dx, grads


def ref_bigru_grad(x, lengths, p_fwd, p_bwd, g):
    """Gradients of sum(g * out), where out holds each sequence's ref_bigru
    and the sequences of these lengths are stacked in x's rows: per direction,
    x's share (the gradient the layer hands x for that direction) and w, u
    and b stacked in [z | r | h] column order, keyed "fwd.x", "fwd.w", ...,
    "bwd.b". Every sequence runs on its own, one step at a time."""
    hidden = p_fwd["uz"].shape[0]
    out = {}
    for name, p, reverse, cols in (("fwd", p_fwd, False, slice(0, hidden)), ("bwd", p_bwd, True, slice(hidden, None))):
        dx = np.zeros_like(x)
        grads = {k: np.zeros_like(a) for k, a in p.items()}
        start = 0
        for m in lengths:
            rows = slice(start, start + m)
            dx[rows], seq_grads = _ref_gru_sequence_grad(x[rows], p, g[rows, cols], reverse)
            for k, a in seq_grads.items():
                grads[k] += a
            start += m
        out[f"{name}.x"] = dx
        for kind in "wub":
            out[f"{name}.{kind}"] = np.hstack([grads[f"{kind}{gate}"] for gate in "zrh"])
    return out


def ref_attention(q, embeddings, contexts, wk):
    """q: 1 x d_q; returns (1 x d_ctx output, weight vector of length m)."""
    m = embeddings.shape[0]
    logits = np.zeros(m)
    for i in range(m):
        key = embeddings[i] @ wk
        logits[i] = float(q[0] @ key)
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    out = np.zeros((1, contexts.shape[1]))
    for i in range(m):
        out[0] += w[i] * contexts[i]
    return out, w


def ref_attention_grad(q, embeddings, contexts, wk, g):
    """Gradients of sum(g * ref_attention(q, embeddings, contexts, wk)[0]) in
    q (1 x d_q), embeddings (m x d_w), contexts (m x d_ctx) and wk (d_w x d_q),
    in closed form: with s_i = g·c_i and a_i = w_i (s_i - sum_j w_j s_j), the
    logit gradients, dq = sum_i a_i k_i, de_i = a_i wk q, dc_i = w_i g and
    dwk = sum_i a_i e_i q^T."""
    _, w = ref_attention(q, embeddings, contexts, wk)
    m = embeddings.shape[0]
    s = [float(g[0] @ contexts[i]) for i in range(m)]
    mean_s = sum(w[j] * s[j] for j in range(m))
    dq = np.zeros_like(q)
    de = np.zeros_like(embeddings)
    dc = np.zeros_like(contexts)
    dwk = np.zeros_like(wk)
    for i in range(m):
        a = w[i] * (s[i] - mean_s)
        dq[0] += a * (embeddings[i] @ wk)
        de[i] = a * (wk @ q[0])
        dc[i] = w[i] * g[0]
        dwk += a * np.outer(embeddings[i], q[0])
    return dq, de, dc, dwk


def ref_graph_iteration(a, h, o, a0, h0, o0, sv, sn, vn, p):
    """One message-passing round for a single timestep.

    a/a0: 1 x latent; h/h0: K x latent; o/o0: J x latent; sv/sn/vn: 1 x d_lang.
    p maps block names (phi_sno.w, msg_sv.b, m_a.w, ...) to arrays.
    Returns updated (a, h, o).
    """
    K = h.shape[0]
    J = o.shape[0]
    latent = a.shape[1]

    def aff(name, x):
        return x @ p[f"{name}.w"] + p[f"{name}.b"][0]

    phi_sva = aff("phi_sva", np.concatenate([sv[0], a[0]]))
    phi_vna = aff("phi_vna", np.concatenate([vn[0], a[0]]))
    phi_sno = np.zeros((J, latent))
    phi_vno = np.zeros((J, latent))
    for j in range(J):
        phi_sno[j] = aff("phi_sno", np.concatenate([sn[0], o[j]]))
        phi_vno[j] = aff("phi_vno", np.concatenate([vn[0], o[j]]))
    phi_snh = np.zeros((K, latent))
    phi_svh = np.zeros((K, latent))
    for k in range(K):
        phi_snh[k] = aff("phi_snh", np.concatenate([sn[0], h[k]]))
        phi_svh[k] = aff("phi_svh", np.concatenate([sv[0], h[k]]))

    sum_sno = phi_sno.sum(axis=0) if J else np.zeros(latent)
    sum_vno = phi_vno.sum(axis=0) if J else np.zeros(latent)
    sum_snh = phi_snh.sum(axis=0) if K else np.zeros(latent)
    sum_svh = phi_svh.sum(axis=0) if K else np.zeros(latent)

    msg_h_sv_a = aff("msg_sv", np.concatenate([phi_sva, sum_svh]))
    msg_o_vn_a = aff("msg_vn", np.concatenate([phi_vna, sum_vno]))
    a_new = _sig(aff("m_a", msg_h_sv_a * msg_o_vn_a) * a0[0])[None, :]

    o_new = o.copy()
    for j in range(J):
        msg_h_sn_o = aff("msg_sn", np.concatenate([phi_sno[j], sum_snh]))
        msg_a_vn_o = aff("msg_vn", np.concatenate([phi_vno[j], phi_vna]))
        o_new[j] = _sig(aff("m_o", msg_h_sn_o * msg_a_vn_o) * o0[j])
    h_new = h.copy()
    for k in range(K):
        msg_o_sn_h = aff("msg_sn", np.concatenate([phi_snh[k], sum_sno]))
        msg_a_sv_h = aff("msg_sv", np.concatenate([phi_svh[k], phi_sva]))
        h_new[k] = _sig(aff("m_h", msg_o_sn_h * msg_a_sv_h) * h0[k])
    return a_new, h_new, o_new


def per_gate_arrays(w, u, b):
    """Slice stacked [z | r | h] GRU blocks into the nine per-gate arrays
    wz, uz, bz, wr, ur, br, wh, uh, bh."""
    hidden = u.shape[0]
    out = {}
    for k, gate in enumerate("zrh"):
        cols = slice(k * hidden, (k + 1) * hidden)
        out.update({f"w{gate}": w[:, cols], f"u{gate}": u[:, cols], f"b{gate}": b[:, cols]})
    return out


def gru_param_arrays(p):
    """Pull the nine per-gate arrays out of a GruParams dataclass."""
    return per_gate_arrays(p.w.data, p.u.data, p.b.data)


def per_gate_checkpoint_params(params):
    """name -> array with every GRU's stacked blocks (<prefix>.w/.u/.b, where
    the prefix ends in _fwd or _bwd) split into the nine per-gate records
    (<prefix>.wz, ...) that checkpoints held before the gates were stacked."""
    out = dict(params)
    for prefix in {name.rsplit(".", 1)[0] for name in params if name.endswith(("_fwd.u", "_bwd.u"))}:
        stacked = [out.pop(f"{prefix}.{kind}") for kind in "wub"]
        out.update({f"{prefix}.{name}": a for name, a in per_gate_arrays(*stacked).items()})
    return out


def ref_temporal(a_ctx, params):
    """Two stacked bidirectional GRUs plus the three linear heads (no dropout).

    Returns (start_dist, end_dist, y) as plain length-t vectors.
    """
    h1 = ref_bigru(a_ctx, gru_param_arrays(params.layer1_fwd), gru_param_arrays(params.layer1_bwd))
    h2 = ref_bigru(h1, gru_param_arrays(params.layer2_fwd), gru_param_arrays(params.layer2_bwd))
    t = a_ctx.shape[0]
    start = np.zeros(t)
    end = np.zeros(t)
    score = np.zeros(t)
    for i in range(t):
        start[i] = float(h2[i] @ params.w_start.data[:, 0])
        end[i] = float(h2[i] @ params.w_end.data[:, 0])
        score[i] = float(a_ctx[i] @ params.w_score.data[:, 0])

    def smax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    return smax(start), smax(end), smax(score)


def ref_kl_grad(p, q, eps=1e-12):
    """Gradient of sum_i p_i (log max(p_i, eps) - log max(q_i, eps)) in p, entry by entry.

    Where p_i <= eps the log is the constant log(eps), so only the outer
    p_i contributes: the log ratio itself. Elsewhere d/dp (p log p) adds 1.
    """
    flat_p = np.asarray(p, dtype=np.float64).reshape(-1)
    flat_q = np.asarray(q, dtype=np.float64).reshape(-1)
    g = np.zeros(flat_p.size)
    for i in range(flat_p.size):
        ratio = np.log(max(flat_p[i], eps)) - np.log(max(flat_q[i], eps))
        g[i] = ratio + 1.0 if flat_p[i] > eps else ratio
    return g.reshape(np.shape(p))


def ref_spatial_grad(y, starts, ends, eps=1e-12):
    """Gradient of -sum log max(1 - y_i, eps) over the entries outside every [start, end] window.

    Each outside entry gets 1 / (1 - y_i), or 0 where 1 - y_i <= eps.
    """
    flat = np.asarray(y, dtype=np.float64).reshape(-1)
    g = np.zeros(flat.size)
    for i in range(flat.size):
        inside = any(s <= i <= e for s, e in zip(starts, ends))
        if not inside and 1.0 - flat[i] > eps:
            g[i] = 1.0 / (1.0 - flat[i])
    return g.reshape(np.shape(y))


def ref_route_detections(frames, categories, top_n, d_o):
    """frames: per-frame lists of detections (label, confidence, feature);
    categories: label -> "human" or "object", a missing label is an object.

    Frame by frame: order the detections by confidence, highest first, with
    ties in input order; keep the first top_n; then file each kept one as a
    human or an object row, with the frame's index beside it.
    """
    humans, human_ids, objects, object_ids = [], [], [], []
    for i, dets in enumerate(frames):
        order = []
        for j in range(len(dets)):
            pos = len(order)
            while pos > 0 and dets[order[pos - 1]].confidence < dets[j].confidence:
                pos -= 1
            order.insert(pos, j)
        for j in order[:top_n]:
            if categories.get(dets[j].label, "object") == "human":
                humans.append(dets[j].feature)
                human_ids.append(i)
            else:
                objects.append(dets[j].feature)
                object_ids.append(i)

    def rows(feats):
        out = np.zeros((len(feats), d_o))
        for k, f in enumerate(feats):
            out[k] = f
        return out

    return rows(humans), np.array(human_ids, dtype=np.intp), rows(objects), np.array(object_ids, dtype=np.intp)


def dori_record(name, dims, payload=b""):
    """One checkpoint record as bytes: name length, UTF-8 name, rank, dims, payload."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<Q{len(encoded)}sQ{len(dims)}Q", len(encoded), encoded, len(dims), *dims) + payload



def feat_blob(features, stride=1.0, duration=None, video_id="v"):
    """A feature file as bytes: "FEAT", version 1, the video id, t and d_v,
    the stride and the duration (t x stride unless given), then the rows as
    <f8, whatever their values."""
    features = np.asarray(features, dtype="<f8")
    t, d_v = features.shape
    vid = video_id.encode("utf-8")
    duration = t * stride if duration is None else duration
    return b"FEAT" + struct.pack("<IQ", 1, len(vid)) + vid + struct.pack("<QQdd", t, d_v, stride, duration) + features.tobytes()


def dets_blob(frame, label_id, confidence, features, labels=("cup",), **header):
    """A detection file as bytes: "DETS", version 1, the JSON header (video
    "v", the labels, and rows and width from the columns unless header
    overrides them), then each column's bytes as given. A list column is
    written as <i8 (frame, label id) or <f8 (confidence, features)."""
    columns = [
        c if isinstance(c, np.ndarray) else np.asarray(c, dtype=dtype)
        for c, dtype in ((frame, "<i8"), (label_id, "<i8"), (confidence, "<f8"), (features, "<f8"))
    ]
    shape = np.shape(features)
    head = {"video_id": "v", "labels": list(labels), "rows": shape[0], "width": shape[1] if len(shape) == 2 else 0}
    encoded = json.dumps({**head, **header}).encode("utf-8")
    return b"DETS" + struct.pack("<IQ", 1, len(encoded)) + encoded + b"".join(c.tobytes() for c in columns)
