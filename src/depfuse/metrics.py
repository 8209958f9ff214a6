"""Confusion matrix and the four derived classification metrics.

The positive class is depressed (label 1). Degenerate predictors occur early
in training, so the zero-division conventions return 0 rather than raising:
precision is 0 when tp+fp = 0, recall is 0 when tp+fn = 0, and f1 is 0 when
precision+recall = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import UsageError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: ConfusionMatrix


def compute_confusion(predictions: Sequence[int], labels: Sequence[int]) -> ConfusionMatrix:
    if len(predictions) != len(labels):
        raise UsageError(
            f"predictions ({len(predictions)}) and labels ({len(labels)}) differ in length"
        )
    if not predictions:
        raise UsageError("cannot compute a confusion matrix over zero samples")
    tp = tn = fp = fn = 0
    for pred, label in zip(predictions, labels):
        if pred not in (0, 1) or label not in (0, 1):
            raise UsageError(f"predictions and labels must be 0/1, got ({pred}, {label})")
        if pred == 1 and label == 1:
            tp += 1
        elif pred == 0 and label == 0:
            tn += 1
        elif pred == 1 and label == 0:
            fp += 1
        else:
            fn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    if cm.total <= 0:
        raise UsageError("confusion matrix is empty")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return MetricsReport(
        accuracy=accuracy, precision=precision, recall=recall, f1=f1, confusion=cm
    )


def evaluate_predictions(predictions: Sequence[int], labels: Sequence[int]) -> MetricsReport:
    return metrics_from_confusion(compute_confusion(predictions, labels))


def report_to_json(report: MetricsReport) -> str:
    """Fixed 6-decimal JSON rendering (deterministic bytes)."""
    cm = report.confusion
    return (
        "{"
        f'"accuracy":{report.accuracy:.6f},'
        f'"precision":{report.precision:.6f},'
        f'"recall":{report.recall:.6f},'
        f'"f1":{report.f1:.6f},'
        f'"confusion":{{"tp":{cm.tp},"tn":{cm.tn},"fp":{cm.fp},"fn":{cm.fn}}}'
        "}"
    )
