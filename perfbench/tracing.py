"""Per-layer tracing for the depfuse benchmark.

The tracer rebinds public functions of the package to wrappers for the
length of one traced round and restores them afterwards. A wrapper records
a span (name, start, end, parent) and adds the span's self time, its
duration minus the time of the spans it caused, to the layer's total. A few
wrappers only count calls or read a value off the call's result. Spans stay
in memory until the benchmark writes them out at the end.

A function is rebound in every depfuse module that holds it, so both
``depfuse.text.tokenize`` and the ``tokenize`` name that ``features``
imports are counted.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (span name, module, function). Self time is reported as "<name>_s".
SPANS = (
    ("corpus.parse", "corpus", "parse_corpus"),
    ("text.build_vocab", "text", "build_vocab"),
    ("text.build_user_sequence", "text", "build_user_sequence"),
    ("features.extract", "features", "extract_features"),
    # The binding that `depfuse train` calls; context for the counters below.
    ("train.train", "pipeline", "train"),
    ("train.prepare_examples", "train", "prepare_examples"),
    ("train.adam_step", "train", "adam_step"),
    ("train.evaluate", "train", "evaluate"),
    ("train.predict_logits", "train", "predict_logits"),
    ("model.init_params", "model", "init_params"),
    ("model.forward", "model", "forward"),
    ("model.encode_tokens", "model", "encode_tokens"),
    ("model.cross_attention", "model", "cross_attention"),
    ("model.save_checkpoint", "model", "save_checkpoint"),
    ("model.load_checkpoint", "model", "load_checkpoint"),
)

# Tensor ops that every workload calls get a span; the ops that only the
# refinement blocks call are counted, and their time stays in the self time
# of model.encode_tokens, so that no reported time is zero by construction.
TIMED_OPS = (
    "matmul", "add", "relu", "softmax_rows", "scale", "scale_rows",
    "mean_rows", "stack_rows", "transpose", "slice_rows", "gather_rows",
)
COUNTED_OPS = ("slice_cols", "concat_cols", "layernorm_rows")

_SCORING = "train.predict_logits"
_TRAINING = "train.train"


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    out = [
        ("corpus.parse_s", "s", "lower"),
        ("corpus.users_parsed", "count", "higher"),
        ("text.build_vocab_s", "s", "lower"),
        ("text.build_user_sequence_s", "s", "lower"),
        ("text.tokenize_calls", "count", "lower"),
        ("text.vocab_size", "count", "lower"),
        ("text.truncated_users", "count", "lower"),
        ("features.extract_s", "s", "lower"),
        ("features.extract_calls", "count", "lower"),
        ("train.prepare_examples_s", "s", "lower"),
        ("train.adam_step_s", "s", "lower"),
        ("train.evaluate_s", "s", "lower"),
        ("train.predict_logits_s", "s", "lower"),
        ("train.predict_logits_peak_mib", "MiB", "lower"),
        ("model.init_params_s", "s", "lower"),
        ("model.forward_train_s", "s", "lower"),
        ("model.forward_score_s", "s", "lower"),
        ("model.encode_tokens_s", "s", "lower"),
        ("model.cross_attention_s", "s", "lower"),
        ("model.save_checkpoint_s", "s", "lower"),
        ("model.load_checkpoint_s", "s", "lower"),
        ("model.checkpoint_bytes", "bytes", "lower"),
        ("tensor.backward_s", "s", "lower"),
        ("tensor.nodes_per_train_user", "count", "lower"),
    ]
    for op in TIMED_OPS:
        out.append((f"tensor.{op}.calls", "count", "lower"))
        out.append((f"tensor.{op}_s", "s", "lower"))
    for op in COUNTED_OPS:
        out.append((f"tensor.{op}.calls", "count", "lower"))
    out.append(("trace.overhead", "ratio", "lower"))
    return out


class Tracer:
    """Wrappers, spans and per-round totals for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self._bindings: List[Tuple[object, str, object]] = []
        self._round = -1
        self._stack: List[List[float]] = []
        self._active: Dict[str, int] = defaultdict(int)
        self.begin_round()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from depfuse import tensor

        for name, module, attr in SPANS:
            self._rebind(module, attr, lambda fn, n=name: self._span(n, fn))
        for op in TIMED_OPS:
            self._rebind("tensor", op, lambda fn, n=f"tensor.{op}": self._span(n, fn))
        for op in COUNTED_OPS:
            self._rebind("tensor", op, lambda fn, n=f"tensor.{op}": self._count(n, fn))
        self._rebind("text", "tokenize", lambda fn: self._count("text.tokenize", fn))
        original = tensor.Tensor.backward
        self._bindings.append((tensor.Tensor, "backward", original))
        tensor.Tensor.backward = self._span("tensor.backward", original)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._bindings):
            setattr(holder, attr, original)
        self._bindings.clear()

    def _rebind(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(sys.modules[f"depfuse.{module}"], attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "depfuse" or mod_name.startswith("depfuse."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original))
                        setattr(mod, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _count(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.calls[name] += 1
            self._count_train_op(name)
            return fn(*args, **kwargs)

        return counted

    def _count_train_op(self, name: str) -> None:
        if (name.startswith("tensor.") and self._active[_TRAINING]
                and not self._active[_SCORING]):
            self.train_ops += 1

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, active = self.spans, self._stack, self._active
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            label = name
            if name == "model.forward":
                label = "model.forward_score" if active[_SCORING] else "model.forward_train"
            if name != "tensor.backward":
                self._count_train_op(name)
            self.calls[label] += 1
            active[name] += 1
            if name == _SCORING:
                tracemalloc.start()
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            parent = int(stack[-1][0]) if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[label] += duration - frame[1]
                spans[index] = (self._round, label, start, end, parent)
                if name == _SCORING:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = "train.predict_logits_peak_mib"
                    self.values[key] = max(self.values[key], peak / 2**20)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- per-round totals -------------------------------------------------

    def begin_round(self) -> None:
        self._round += 1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, float] = defaultdict(float)
        self.train_ops = 0

    def round_metrics(self) -> Dict[str, float]:
        """Per-layer values of the round just traced (trace.overhead aside)."""
        out: Dict[str, float] = {}
        for metric, _unit, _better in per_layer_names():
            if metric.endswith(".calls") or metric.endswith("_calls"):
                out[metric] = self.calls[metric[: -len("_calls")]]
            elif metric.endswith("_s"):
                out[metric] = self.self_s[metric[: -len("_s")]]
            else:
                out[metric] = self.values[metric]
        user_epochs = self.values["train.user_epochs"]
        out["tensor.nodes_per_train_user"] = self.train_ops / user_epochs if user_epochs else 0.0
        del out["trace.overhead"]
        return out

    def write_spans(self, path: str) -> None:
        t0 = min((s[2] for s in self.spans if s is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is None:
                    continue
                rnd, name, start, end, parent = s
                fh.write(json.dumps({"round": rnd, "name": name, "start": round(start - t0, 7),
                                     "end": round(end - t0, 7), "parent": parent}) + "\n")


def _observe_parse(tracer: Tracer, args, result) -> None:
    tracer.values["corpus.users_parsed"] += len(result[0])


def _observe_vocab(tracer: Tracer, args, result) -> None:
    tracer.values["text.vocab_size"] = len(result)


def _observe_sequence(tracer: Tracer, args, result) -> None:
    if result.true_len == len(result.ids):
        tracer.values["text.truncated_users"] += 1


def _observe_train(tracer: Tracer, args, result) -> None:
    train_set = args[1]
    tracer.values["train.user_epochs"] += len(train_set) * len(result[1].epochs)


def _observe_save(tracer: Tracer, args, result) -> None:
    tracer.values["model.checkpoint_bytes"] = os.path.getsize(args[1])


_OBSERVERS: Dict[str, Callable[[Tracer, tuple, object], None]] = {
    "corpus.parse": _observe_parse,
    "text.build_vocab": _observe_vocab,
    "text.build_user_sequence": _observe_sequence,
    "train.train": _observe_train,
    "model.save_checkpoint": _observe_save,
}
