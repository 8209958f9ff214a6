"""Output checks for the depfuse benchmark.

Every check recomputes what it compares against from the generated records
and the documented formats, with code written apart from the package: a
straight-loop featurizer, a numpy forward pass that reads the checkpoint
JSON directly, a recount of the confusion matrix and a re-implementation of
the documented seeded split. Nothing here imports depfuse, and nothing is
compared with a stored copy of an earlier output.

Each check raises CheckFailed with the reason; the benchmark and its test
share these functions.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

FEATURE_HEADER = (
    "user_id,label,p_original,p_late_night,posts_per_week,posting_time_sd,"
    "p_negative,image_freq"
)
PREDICT_HEADER = "user_id,prob_depressed,prediction"
HISTORY_HEADER = "epoch,train_loss,val_acc,val_f1,seconds"

MIN_ACCURACY = 0.95
# A printed six-decimal value is within 5e-7 of the exact one; the rest
# covers a different summation order in the independent recomputation
# (statistics reach about 1e3, float64 keeps about 1e-13 of that).
SIX_DECIMALS = 5e-7 + 1e-9

_CJK = ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF))
_CLS, _SEP, _UNK = 2, 3, 1


class CheckFailed(Exception):
    """An output of the program disagrees with its independent recomputation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tokens(text: str) -> List[str]:
    """The documented tokenizer: whitespace chunks, CJK chunks per codepoint,
    everything lowercased."""
    out: List[str] = []
    for chunk in text.split():
        if any(any(lo <= ord(c) <= hi for lo, hi in _CJK) for c in chunk):
            out.extend(c.lower() for c in chunk)
        else:
            out.append(chunk.lower())
    return out


def lexicon_tokens(lexicon_text: str) -> set:
    terms = set()
    for raw in lexicon_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            terms.update(tokens(line))
    return terms


def feature_row(record, lexicon: set, threshold: float = 0.5) -> List[float]:
    """The six statistics of one user by direct loops over its tweets."""
    tweets = record.tweets
    n = len(tweets)
    if n == 0:
        return [0.0] * 6
    originals = late = images = negative = 0
    minutes = []
    for t in tweets:
        when = t.posting_time
        originals += t.is_original
        images += t.has_images
        if when.hour * 3600 + when.minute * 60 + when.second < 6 * 3600:
            late += 1
        toks = tokens(t.text)
        if toks and sum(1 for w in toks if w in lexicon) / len(toks) > threshold:
            negative += 1
        minutes.append(when.hour * 60.0 + when.minute + when.second / 60.0)
    times = [t.posting_time for t in tweets]
    span_days = (max(times) - min(times)).total_seconds() / 86400.0
    mean = math.fsum(minutes) / n
    sd = math.sqrt(math.fsum((m - mean) ** 2 for m in minutes) / n)
    return [originals / n, late / n, n / (max(span_days, 1.0) / 7.0), sd, negative / n, images / n]


def _csv_rows(text: str, header: str, what: str) -> List[List[str]]:
    lines = text.split("\n")
    _require(lines[-1] == "", f"{what}: missing final newline")
    lines = lines[:-1]
    _require(bool(lines) and lines[0] == header, f"{what}: bad header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def check_features_csv(text: str, records: Sequence, lexicon: set) -> None:
    """One row per generated user, in file order, whose six statistics equal
    the straight-loop recomputation to the CSV's six decimals."""
    rows = _csv_rows(text, FEATURE_HEADER, "featurize CSV")
    _require(len(rows) == len(records), f"featurize CSV: {len(rows)} rows for {len(records)} users")
    for row, record in zip(rows, records):
        _require(len(row) == 8, f"featurize CSV: row {row[:1]} has {len(row)} fields")
        _require(row[0] == record.user_id, f"featurize CSV: {row[0]} where {record.user_id} was expected")
        _require(row[1] == str(record.label), f"featurize CSV: {row[0]} has label {row[1]}")
        for name, got, want in zip(FEATURE_HEADER.split(",")[2:], row[2:], feature_row(record, lexicon)):
            _require(
                abs(float(got) - want) <= SIX_DECIMALS,
                f"featurize CSV: {row[0]} {name} is {got}, recomputed {want:.9f}",
            )


def check_predictions_csv(text: str, user_ids: Sequence[str]) -> Dict[str, Tuple[float, int]]:
    """One row per user in file order; prediction is 1 exactly when
    prob_depressed > 0.5. A probability printed as 0.500000 may round either
    way, so it admits both predictions. Returns user_id -> (prob, prediction)."""
    rows = _csv_rows(text, PREDICT_HEADER, "predict CSV")
    _require(len(rows) == len(user_ids), f"predict CSV: {len(rows)} rows for {len(user_ids)} users")
    out: Dict[str, Tuple[float, int]] = {}
    for row, user_id in zip(rows, user_ids):
        _require(len(row) == 3 and row[0] == user_id, f"predict CSV: row {row} where {user_id} was expected")
        prob, pred = float(row[1]), row[2]
        _require(0.0 <= prob <= 1.0 and pred in ("0", "1"), f"predict CSV: bad row {row}")
        if prob != 0.5:
            _require(pred == ("1" if prob > 0.5 else "0"), f"predict CSV: {user_id} has prob {row[1]} but prediction {pred}")
        out[user_id] = (prob, int(pred))
    return out


def loop_forward_probability(checkpoint: dict, record, lexicon: set) -> float:
    """P(depressed) for one user under the default cross-attention model,
    read straight from the checkpoint JSON: tokens as queries over the six
    statistic rows, shared key/value projection, no refinement blocks."""
    cfg = checkpoint["config"]
    _require(
        cfg["fusion"] == "cross_attention" and cfg["fusion_query"] == "tokens"
        and cfg["value_projection"] == "shared_with_key" and cfg["refine_layers"] == 0
        and not cfg["outer_relu"],
        f"loop forward covers only the default model, not {cfg}",
    )
    p = {name: np.asarray(e["data"], dtype=np.float64).reshape(e["shape"]) for name, e in checkpoint["params"].items()}
    vocab = checkpoint["vocab"]["tokens"]
    ids = [_CLS] + [vocab.get(w, _UNK) for w in tokens(record.nickname)] + [_SEP]
    ids += [vocab.get(w, _UNK) for w in tokens(record.profile)] + [_SEP]
    for i, tweet in enumerate(record.tweets):
        if i:
            ids.append(_SEP)
        ids += [vocab.get(w, _UNK) for w in tokens(tweet.text)]
    ids = ids[: cfg["max_len"]]
    z = (np.asarray(feature_row(record, lexicon)) - checkpoint["normalizer"]["mean"]) / checkpoint["normalizer"]["std"]
    x_tok = p["embedding"][ids] + p["positional"][: len(ids)]
    x_stat = p["stat_scale"] * z[:, None] + p["stat_bias"]
    q = x_tok @ p["attn_wq"]
    kv = x_stat @ p["attn_wk"]
    scores = q @ kv.T / math.sqrt(cfg["d_k"])
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    fused = (weights @ kv).mean(axis=0)
    hidden = np.maximum(fused @ p["mlp_w1"] + p["mlp_b1"][0], 0.0)
    logits = hidden @ p["mlp_w2"] + p["mlp_b2"][0]
    e = np.exp(logits - logits.max())
    return float(e[1] / e.sum())


def check_probabilities(predictions: Dict[str, Tuple[float, int]], checkpoint: dict,
                        records: Sequence, lexicon: set) -> None:
    for record in records:
        want = loop_forward_probability(checkpoint, record, lexicon)
        got = predictions[record.user_id][0]
        _require(abs(got - want) <= SIX_DECIMALS, f"predict CSV: {record.user_id} prob {got}, loop forward {want:.9f}")


def check_metrics(metrics_text: str, predictions: Dict[str, Tuple[float, int]],
                  validation: Sequence) -> None:
    """metrics.json's confusion counts equal a recount of the predictions
    over the validation users, and the accuracy clears MIN_ACCURACY."""
    report = json.loads(metrics_text)
    counts = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for record in validation:
        pred = predictions[record.user_id][1]
        key = ("t" if pred == record.label else "f") + ("p" if pred == 1 else "n")
        counts[key] += 1
    _require(report["confusion"] == counts, f"metrics.json: confusion {report['confusion']}, recount {counts}")
    accuracy = (counts["tp"] + counts["tn"]) / len(validation)
    _require(abs(report["accuracy"] - accuracy) <= SIX_DECIMALS, f"metrics.json: accuracy {report['accuracy']}, recount {accuracy}")
    _require(accuracy >= MIN_ACCURACY, f"validation accuracy {accuracy:.4f} is below {MIN_ACCURACY}")


def check_train_summary(stdout: str, n_train: int, n_validation: int) -> None:
    """`depfuse train` parsed every user: its split sizes add up to the corpus."""
    want = f"trained on {n_train} users, validated on {n_validation}:"
    _require(want in stdout, f"train summary {stdout.strip()!r} lacks {want!r}")


def check_history(text: str, epochs: int) -> None:
    rows = _csv_rows(text, HISTORY_HEADER, "history.csv")
    _require(len(rows) == epochs, f"history.csv: {len(rows)} epochs, {epochs} requested")
    _require([r[0] for r in rows] == [str(i) for i in range(1, epochs + 1)], "history.csv: epochs out of order")
    losses = [float(r[1]) for r in rows]
    _require(all(math.isfinite(v) for v in losses), f"history.csv: non-finite loss in {losses}")
    _require(epochs == 1 or losses[-1] < losses[0], f"history.csv: loss did not fall, {losses}")


# --- the documented seeded split (README "Reproducibility: the RNG") -------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _shuffle(items: list, seed: int, *tags: int) -> None:
    state = _mix64(seed & _MASK64)
    for tag in tags:
        state = _mix64(state ^ ((tag * _GOLDEN) & _MASK64))
    for i in range(len(items) - 1, 0, -1):
        n = i + 1
        limit = _MASK64 - ((_MASK64 + 1) % n)
        while True:
            state = (state + _GOLDEN) & _MASK64
            u = _mix64(state)
            if u <= limit:
                break
        j = u % n
        items[i], items[j] = items[j], items[i]


def validation_slice(records: Sequence, ratio: float, seed: int) -> list:
    """Each class shuffled by its own stream (tags 1 and the label) and cut
    at floor(ratio * class size); the rest of each class is validation."""
    out = []
    for label in (0, 1):
        group = [r for r in records if r.label == label]
        _shuffle(group, seed, 1, label)
        out.extend(group[int(ratio * len(group)):])
    return out
