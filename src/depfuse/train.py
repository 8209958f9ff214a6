"""Adam optimization with cross-entropy loss, the mini-batch training loop,
and the evaluation driver.

``learning_rate`` defaults to the desk-scale 1e-3, which the toy trainable
encoder needs to converge from random init.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .corpus import UserRecord
from .errors import ConfigError, UsageError
from .features import (
    DEFAULT_NEGATIVITY_THRESHOLD,
    FeatureNormalizer,
    SentimentScorer,
    StatFeatureVector,
    apply_normalizer,
    stat_features,
)
from .metrics import MetricsReport, evaluate_predictions
from .model import FusionModel, ModelConfig, forward
from .rng import STREAM_TRAIN, SplitMix64, derive_seed
from .tensor import Tensor
from .text import TokenSequence, Vocab, build_user_sequence, tokenize

# Elements per block of an Adam update (256 KiB of float64 per array).
_ADAM_BLOCK = 1 << 15

# Adam's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    shuffle_each_epoch: bool = True
    early_stop_patience: int = 0  # 0 disables best-checkpoint tracking

    def validate(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.early_stop_patience < 0:
            raise ConfigError("early_stop_patience must be >= 0")


@dataclass
class AdamState:
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Dict[str, Tensor]) -> "AdamState":
        return cls(
            m={name: np.zeros(p.shape) for name, p in params.items()},
            v={name: np.zeros(p.shape) for name, p in params.items()},
        )


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_f1: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: List[EpochStats] = field(default_factory=list)
    # Validation report of the parameters train returns: the last epoch's,
    # or the restored best epoch's. None when no epoch ran.
    report: Optional[MetricsReport] = None


def cross_entropy_loss(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean of -log softmax(logits)[label], stabilized via log-sum-exp."""
    label_arr = np.asarray(list(labels), dtype=np.int64)
    if label_arr.ndim != 1 or label_arr.shape[0] != logits.shape[0]:
        raise UsageError(
            f"labels ({label_arr.shape}) must match logit rows ({logits.shape[0]})"
        )
    if label_arr.size == 0:
        raise UsageError("cross_entropy_loss needs at least one row")
    if ((label_arr != 0) & (label_arr != 1)).any():
        raise UsageError("labels must be 0 or 1")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    rows = np.arange(label_arr.shape[0])
    losses = lse[:, 0] - z[rows, label_arr]
    softmax = np.exp(z - lse)
    node = logits._node

    def backward(g: np.ndarray) -> None:
        onehot = np.zeros_like(softmax)
        onehot[rows, label_arr] = 1.0
        node.accumulate(g[0, 0] * (softmax - onehot) / label_arr.shape[0], fresh=True)

    return T._node("cross_entropy", np.array([[losses.mean()]]), (logits,), backward)


def adam_step(
    params: Dict[str, Tensor], state: AdamState, config: TrainConfig
) -> None:
    """One Adam update with bias correction. The moments and the parameters
    are updated in place, a block of rows at a time, so that each block's
    arrays stay in cache across the update's dozen passes and the only
    temporaries are two block-sized scratch arrays. Every elementwise op
    keeps the operands and the order of

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    so the values equal that out-of-place formula bit for bit.

    A parameter whose gradient lists its nonzero rows (``Tensor.grad_rows``,
    set by the embedding lookup's backward) and leaves some row out takes
    the row-sparse path: one pass over the table scales every row's m and v
    by b1 and b2, the gradient terms are added on the listed rows alone,
    and the blocked loop runs the bias-corrected update over every row.
    This is still dense Adam, not a lazy variant, and it gives the same
    bits. An unlisted row's gradient is +0.0, so the skipped terms are
    g * (1 - b1) = +0.0 and (g * (1 - b2)) * g = +0.0, and adding +0.0
    changes x only when x is -0.0. m and v never are: they start at +0.0,
    a sum is -0.0 only when both of its terms are, and b1 * m rounds to
    -0.0 only when m is -0.0 (b1 and b2 are above 1/2, so even the smallest
    subnormal keeps its magnitude)."""
    for name, p in params.items():
        if p.grad is None:
            raise UsageError(f"parameter {name} has no gradient; run backward first")
    state.t += 1
    t = state.t
    b1, b2 = BETA1, BETA2
    for name, p in params.items():
        listed = p.grad_rows
        sparse = listed is not None and listed.size < p.shape[0]
        if sparse:
            m, v, g = state.m[name], state.v[name], p.grad[listed]
            m *= b1
            m[listed] += g * (1.0 - b1)
            g_sq = g * (1.0 - b2)
            g_sq *= g
            v *= b2
            v[listed] += g_sq
        rows = max(1, _ADAM_BLOCK // p.shape[1])
        # Each block allocates its own two temporaries. One pair per call,
        # held across it, left the heap top free at its end, and the trims
        # that followed doubled the page faults of the next forward.
        for start in range(0, p.shape[0], rows):
            block = slice(start, start + rows)
            w, m, v = p.data[block], state.m[name][block], state.v[name][block]
            if sparse:
                step = np.divide(m, 1.0 - b1**t)
            else:
                g = p.grad[block]
                step = np.multiply(g, 1.0 - b1)
                m *= b1
                m += step
                np.multiply(g, 1.0 - b2, out=step)
                step *= g
                v *= b2
                v += step
                np.divide(m, 1.0 - b1**t, out=step)
            denom = np.divide(v, 1.0 - b2**t)
            np.sqrt(denom, out=denom)
            denom += EPSILON
            step *= config.learning_rate
            step /= denom
            w -= step


@dataclass(frozen=True)
class PreparedExample:
    user_id: str
    tokens: TokenSequence
    stats: np.ndarray  # normalized 6-vector
    label: int


def read_record(
    record: UserRecord,
    vocab: Vocab,
    scorer: SentimentScorer,
    threshold: float,
    max_len: int,
) -> Tuple[TokenSequence, StatFeatureVector]:
    """A record's token sequence and raw statistics from one tokenization of
    each of its texts: a tweet's tokens feed both its part of the sequence
    and its lexicon score."""
    tweet_tokens = [tokenize(t.text) for t in record.tweets]
    sequence = build_user_sequence(
        tokenize(record.nickname), tokenize(record.profile), tweet_tokens, vocab, max_len
    )
    return sequence, stat_features(record.tweets, tweet_tokens, scorer, threshold)


def normalized_examples(
    records: Sequence[UserRecord],
    read: Sequence[Tuple[TokenSequence, StatFeatureVector]],
    normalizer: FeatureNormalizer,
) -> List[PreparedExample]:
    """Model inputs from records and their ``read_record`` results, in order."""
    return [
        PreparedExample(
            user_id=record.user_id,
            tokens=sequence,
            stats=apply_normalizer(raw, normalizer),
            label=record.label,
        )
        for record, (sequence, raw) in zip(records, read)
    ]


def prepare_examples(
    records: Sequence[UserRecord],
    vocab: Vocab,
    normalizer: FeatureNormalizer,
    scorer: SentimentScorer,
    threshold: float = DEFAULT_NEGATIVITY_THRESHOLD,
    max_len: int = ModelConfig.max_len,
) -> List[PreparedExample]:
    """Turn records into model inputs, tokenizing each text once
    (``read_record``)."""
    read = [read_record(r, vocab, scorer, threshold, max_len) for r in records]
    return normalized_examples(records, read, normalizer)


def predict_logits(model: FusionModel, examples: Sequence[PreparedExample]) -> np.ndarray:
    """Logit matrix for a dataset, computed in fixed-size chunks.

    Scoring runs on untracked views of the live parameters, so no autograd
    graph is recorded and each chunk's intermediates are freed as soon as
    its logits are taken. The forward math is the same as in training. A
    chunk is one stacked forward, so its size bounds the memory it holds:
    eight users keep that to a few MiB at max_len 256."""
    if not examples:
        raise UsageError("cannot run the model on an empty dataset")
    params = {name: Tensor(p.data) for name, p in model.params.items()}
    model = FusionModel(model.config, params, model.vocab, model.normalizer)
    rows: List[np.ndarray] = []
    chunk = 8
    for start in range(0, len(examples), chunk):
        batch = examples[start : start + chunk]
        logits = forward(model, [(e.tokens, e.stats) for e in batch])
        rows.append(logits.data.copy())
    return np.vstack(rows)


def predictions_from_logits(logits: np.ndarray) -> List[int]:
    # Ties go to class 0 (normal): a screening tool defaults to the
    # conservative side, and the rule is deterministic.
    return [1 if row[1] > row[0] else 0 for row in logits]


def probability_depressed(logits: np.ndarray) -> np.ndarray:
    """softmax(logits)[:, 1] computed without overflow."""
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted[:, 1] / shifted.sum(axis=1)


def evaluate(model: FusionModel, dataset: Sequence[PreparedExample]) -> MetricsReport:
    logits = predict_logits(model, dataset)
    preds = predictions_from_logits(logits)
    return evaluate_predictions(preds, [e.label for e in dataset])


def train(
    model: FusionModel,
    train_set: Sequence[PreparedExample],
    val_set: Sequence[PreparedExample],
    config: TrainConfig,
) -> Tuple[FusionModel, TrainHistory]:
    """Seeded mini-batch training. With early_stop_patience > 0 the model is
    rolled back to the best-validation-accuracy epoch; otherwise the final
    parameters are returned. ``history.report`` is the validation report of
    the returned parameters. Fully deterministic for a fixed seed."""
    config.validate()
    if not train_set:
        raise ConfigError("training set is empty")
    if not val_set:
        raise ConfigError("validation set is empty")
    history = TrainHistory()
    if config.epochs == 0:
        return model, history
    rng = SplitMix64(derive_seed(config.seed, STREAM_TRAIN))
    order = list(range(len(train_set)))
    rng.shuffle(order)
    state = AdamState.for_params(model.params)
    best_accuracy = -1.0
    best_params: Optional[Dict[str, np.ndarray]] = None
    best_report: Optional[MetricsReport] = None
    epochs_since_best = 0
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        if config.shuffle_each_epoch and epoch > 1:
            rng.shuffle(order)
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            logits = forward(model, [(e.tokens, e.stats) for e in batch])
            loss = cross_entropy_loss(logits, [e.label for e in batch])
            loss.backward()
            adam_step(model.params, state, config)
            loss_sum += loss.item() * len(batch)
            model.zero_grad()
        report = history.report = evaluate(model, val_set)
        history.epochs.append(
            EpochStats(
                epoch=epoch,
                train_loss=loss_sum / len(train_set),
                val_accuracy=report.accuracy,
                val_f1=report.f1,
                seconds=time.perf_counter() - started,
            )
        )
        if config.early_stop_patience > 0:
            if report.accuracy > best_accuracy:
                best_accuracy = report.accuracy
                best_params = model.copy_params()
                best_report = report
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= config.early_stop_patience:
                    break
    if config.early_stop_patience > 0 and best_params is not None:
        model.set_params(best_params)
        history.report = best_report
    return model, history


def history_to_csv(history: TrainHistory, include_timing: bool = False) -> str:
    """Render per-epoch statistics as CSV.

    The seconds column is written as 0.000000 unless include_timing is set:
    persisted artifacts stay byte-reproducible for a fixed seed, and timing
    remains available on the in-memory history.
    """
    lines = ["epoch,train_loss,val_acc,val_f1,seconds"]
    for row in history.epochs:
        seconds = row.seconds if include_timing else 0.0
        lines.append(
            f"{row.epoch},{row.train_loss:.6f},{row.val_accuracy:.6f},"
            f"{row.val_f1:.6f},{seconds:.6f}"
        )
    return "\n".join(lines) + "\n"
