"""Independent straight-loop reference implementations.

Everything here is deliberately written with plain Python loops and the math
module only (no numpy, no imports from the package's numerical code) so
these functions stay an independent route against which the library is
checked. The one exception is ``adam_out_of_place``: the out-of-place numpy
Adam formula, the byte-level reference for the in-place optimizer.
"""

import math

import numpy as np


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = 0.0
            for k in range(inner):
                s += a[i][k] * b[k][j]
            out[i][j] = s
    return out


def mat_t(a):
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def softmax_row(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def attention(x_q, x_kv, w_q, w_k, w_v, d_k):
    """Loop-based scaled dot-product cross attention; returns (weights, out)."""
    q = mat_mul(x_q, w_q)
    k = mat_mul(x_kv, w_k)
    v = mat_mul(x_kv, w_v)
    scores = mat_mul(q, mat_t(k))
    scale = 1.0 / math.sqrt(d_k)
    weights = [softmax_row([s * scale for s in row]) for row in scores]
    out = mat_mul(weights, v)
    return weights, out


_CJK = ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF))


def _tokens(text):
    toks = []
    for chunk in text.split():
        if any(any(lo <= ord(c) <= hi for lo, hi in _CJK) for c in chunk):
            toks.extend(c.lower() for c in chunk)
        else:
            toks.append(chunk.lower())
    return toks


def lexicon_tokens(terms):
    out = set()
    for term in terms:
        out.update(_tokens(term))
    return out


def feature_vector(tweets, lexicon, threshold):
    """The six statistics, recomputed by direct loops over (text, datetime,
    has_images, is_original) tuples."""
    n = len(tweets)
    if n == 0:
        return [0.0] * 6

    originals = 0
    late = 0
    images = 0
    negative = 0
    minutes = []
    times = []
    for text, when, has_images, is_original in tweets:
        if is_original:
            originals += 1
        if when.hour * 3600 + when.minute * 60 + when.second < 6 * 3600:
            late += 1
        if has_images:
            images += 1
        toks = _tokens(text)
        score = 0.0
        if toks:
            hits = 0
            for t in toks:
                if t in lexicon:
                    hits += 1
            score = hits / len(toks)
        if score > threshold:
            negative += 1
        minutes.append(when.hour * 60.0 + when.minute + when.second / 60.0)
        times.append(when)

    first = min(times)
    last = max(times)
    span_days = (last - first).total_seconds() / 86400.0
    weeks = max(span_days, 1.0) / 7.0
    per_week = n / weeks

    mean = math.fsum(minutes) / n
    var = math.fsum((m - mean) ** 2 for m in minutes) / n
    sd = math.sqrt(var)

    return [originals / n, late / n, per_week, sd, negative / n, images / n]


def cross_entropy_rows(logits, labels):
    """Per-row -log softmax[label] and their mean."""
    losses = []
    for row, label in zip(logits, labels):
        m = max(row)
        lse = m + math.log(sum(math.exp(v - m) for v in row))
        losses.append(lse - row[label])
    return losses, sum(losses) / len(losses)


def adam_trace(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Hand-rolled scalar Adam with bias correction; returns each new value."""
    p, m, v = p0, 0.0, 0.0
    values = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
        values.append(p)
    return values


def adam_out_of_place(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step on numpy arrays, each result a new array; returns the
    new (p, m, v)."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


def metrics_recount(preds, labels):
    """Per-sample recount of the confusion matrix and the four metrics."""
    tp = tn = fp = fn = 0
    for p, y in zip(preds, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 0 and y == 0:
            tn += 1
        elif p == 1 and y == 0:
            fp += 1
        else:
            fn += 1
    total = tp + tn + fp + fn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return (tp, tn, fp, fn), (accuracy, precision, recall, f1)


def fusion_forward(arrays, ids, stats):
    """Loop-based forward of the default network (tokens-as-queries cross
    attention, no refinement): embedding+positional rows, per-feature affine
    statistic rows, attention, column means, two-layer MLP."""
    emb = arrays["embedding"]
    pos = arrays["positional"]
    tok = [[emb[i][c] + pos[r][c] for c in range(len(emb[0]))] for r, i in enumerate(ids)]
    stat = [
        [arrays["stat_scale"][j][c] * stats[j] + arrays["stat_bias"][j][c]
         for c in range(len(arrays["stat_scale"][0]))]
        for j in range(6)
    ]
    d_k = len(arrays["attn_wq"][0])
    w_v = arrays.get("attn_wv", arrays["attn_wk"])
    _, att = attention(tok, stat, arrays["attn_wq"], arrays["attn_wk"], w_v, d_k)
    fused = [[sum(att[r][c] for r in range(len(att))) / len(att) for c in range(len(att[0]))]]
    hidden = mat_mul(fused, arrays["mlp_w1"])
    hidden = [[max(0.0, h + b) for h, b in zip(hidden[0], arrays["mlp_b1"][0])]]
    out = mat_mul(hidden, arrays["mlp_w2"])
    return [[o + b for o, b in zip(out[0], arrays["mlp_b2"][0])]]
