#!/usr/bin/env python3
"""The depfuse benchmark: one workload, driven through the CLI entry points.

    python3 perfbench/run.py --workload base --seed 1 --seconds 44 --trace 0

The run generates its corpus from --seed with depfuse.synth, then repeats
whole rounds of `depfuse train`, `depfuse predict` (the checkpoint just
trained, whole corpus) and `depfuse featurize` (enough times to cover
FEATURIZE_MIN_USERS users) in this process until --seconds are used up. Every output of every round is checked against an
independent recomputation (checks.py). The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics (medians over rounds), with
--trace 1 the per-layer metrics of traced rounds, which alternate with
untraced ones to give the tracing overhead. See README.md.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclasses.dataclass(frozen=True)
class Workload:
    n_per_class: int
    epochs: int
    train_flags: Tuple[str, ...] = ()
    neutral_pool_size: int = 0  # 0 keeps the generator's own neutral pool
    loop_forward_users: int = 0  # users per round checked by an independent forward


WORKLOADS: Dict[str, Workload] = {
    # Data path (parse, tokenize, features, prepare) against a small engine graph.
    "base": Workload(n_per_class=250, epochs=4, loop_forward_users=8),
    # Two refinement blocks at max_len 256: self-attention is nearly all the time,
    # and scoring records a large graph. Fifty users per class leave twenty
    # validation users, so one miss still meets the accuracy bar; the higher
    # rate gets there in three epochs.
    "refine2": Workload(
        n_per_class=50, epochs=3,
        train_flags=("--refine-layers", "2", "--refine-heads", "4", "--max-len", "256",
                     "--lr", "3e-3"),
    ),
    # A neutral pool of 65,000 generated words gives a vocabulary of about 25k,
    # so the V x d1 embedding table dominates init, gradients, Adam and the
    # checkpoint, while per-user attention and data-path work match base.
    # Fewer users than base leave room for three to four rounds in a 44 s run.
    "bigvocab": Workload(n_per_class=200, epochs=2, neutral_pool_size=65_000,
                         loop_forward_users=8),
}


# `depfuse featurize` runs as often per round as it takes to cover this many
# users: one 500-user run lasts under a second, and its timing on this kind of
# shared host varies by up to a factor of two at that scale.
FEATURIZE_MIN_USERS = 800


class Bench:
    """One workload's corpus, rounds and checks inside a scratch directory."""

    def __init__(self, name: str, seed: int, work: Path):
        from depfuse import pipeline
        from depfuse.corpus import serialize_records
        from depfuse.synth import DEFAULT_PARAMS, SynthDatasetSpec, generate_dataset

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        params = DEFAULT_PARAMS
        if self.workload.neutral_pool_size:
            pool = tuple(f"w{i:05d}" for i in range(self.workload.neutral_pool_size))
            params = dataclasses.replace(DEFAULT_PARAMS, neutral_pool=pool)
        spec = SynthDatasetSpec(n_per_class=self.workload.n_per_class, seed=seed, params=params)
        self.records = generate_dataset(spec)
        self.corpus = work / "corpus.jsonl"
        self.corpus.write_bytes(serialize_records(self.records))
        lexicon_text = (SRC / "depfuse" / "data" / "negative_lexicon.txt").read_text("utf-8")
        self.lexicon = checks.lexicon_tokens(lexicon_text)
        self.validation = checks.validation_slice(self.records, 0.8, seed)
        self.featurize_runs = -(-FEATURIZE_MIN_USERS // len(self.records))
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        # Pass-through around the `train` that `depfuse train` calls: its entry
        # ends set-up, its span is the training loop.
        self.train_calls: List[Tuple[float, float, int]] = []
        inner = pipeline.train

        def marked_train(*args, **kwargs):
            entered = time.perf_counter()
            result = inner(*args, **kwargs)
            self.train_calls.append((entered, time.perf_counter(),
                                     len(args[1]) * len(result[1].epochs)))
            return result

        pipeline.train = marked_train

    def _verb(self, argv: List[str]) -> Tuple[bool, float, str]:
        """Run one CLI verb; returns (succeeded, wall seconds, captured stdout)."""
        from depfuse.cli import main

        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        ok = False
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                ok = main(argv) == 0
        except Exception:  # a traceback is a failed operation, not a dead benchmark
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if not ok:
            self.failed += 1
            print(f"{argv[0]} failed: {err.getvalue().strip()[-2000:]}", file=sys.stderr)
        elif "parse issue" in err.getvalue():
            self.errors.append(f"{argv[0]} reported parse issues: {err.getvalue()[:500]}")
        return ok, wall, out.getvalue()

    def round(self, index: int) -> Optional[Dict[str, float]]:
        """One train -> predict -> featurize round. Returns the end-to-end
        samples of the round, or None when an operation failed."""
        wl = self.workload
        out = self.work / f"round{index}"
        n_users = len(self.records)
        self.train_calls.clear()
        t0 = time.perf_counter()
        trained, train_wall, summary = self._verb(
            ["train", "--corpus", str(self.corpus), "--seed", str(self.seed),
             "--epochs", str(wl.epochs), "--early-stop-patience", "0",
             "--out-dir", str(out), *wl.train_flags])
        marks = list(self.train_calls)
        predicted, predict_wall = False, 0.0
        if trained:
            predicted, predict_wall, _ = self._verb(
                ["predict", "--checkpoint", str(out / "checkpoint.json"),
                 "--corpus", str(self.corpus), "--out", str(out / "predictions.csv")])
        else:
            self.attempted += 1
            self.failed += 1
        featurized, featurize_wall = True, 0.0
        for k in range(self.featurize_runs):
            ok, wall, _ = self._verb(["featurize", "--corpus", str(self.corpus),
                                      "--out", str(out / f"features{k}.csv")])
            featurized, featurize_wall = featurized and ok, featurize_wall + wall
        try:
            self._check(index, out, trained, predicted, featurized, marks, summary)
        except checks.CheckFailed as exc:
            self.errors.append(f"round {index}: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if not (trained and predicted and featurized) or len(marks) != 1:
            return None
        entered, left, user_epochs = marks[0]
        return {
            "setup_s": entered - t0,
            "train_users_per_s": user_epochs / (left - entered),
            "train_cmd_s": train_wall,
            "predict_users_per_s": n_users / predict_wall,
            "featurize_users_per_s": self.featurize_runs * n_users / featurize_wall,
            "verbs_s": train_wall + predict_wall + featurize_wall,
        }

    def _check(self, index: int, out: Path, trained: bool, predicted: bool,
               featurized: bool, marks: list, summary: str) -> None:
        for k in range(self.featurize_runs if featurized else 0):
            checks.check_features_csv((out / f"features{k}.csv").read_text("utf-8"),
                                      self.records, self.lexicon)
        if not trained:
            return
        if len(marks) != 1:
            raise checks.CheckFailed(f"train entry mark hit {len(marks)} times, expected once")
        checks.check_train_summary(summary, len(self.records) - len(self.validation),
                                   len(self.validation))
        checks.check_history((out / "history.csv").read_text("utf-8"), self.workload.epochs)
        if not predicted:
            return
        preds = checks.check_predictions_csv((out / "predictions.csv").read_text("utf-8"),
                                             [r.user_id for r in self.records])
        checks.check_metrics((out / "metrics.json").read_text("utf-8"), preds, self.validation)
        if self.workload.loop_forward_users:
            checkpoint = json.loads((out / "checkpoint.json").read_text("utf-8"))
            sample = random.Random(self.seed * 7919 + index).sample(
                self.records, self.workload.loop_forward_users)
            checks.check_probabilities(preds, checkpoint, sample, self.lexicon)


def _median(rows: List[Dict[str, float]], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def run(bench: Bench, seconds: float, trace: bool) -> Dict[str, Dict[str, object]]:
    """Whole rounds (with --trace, untraced/traced pairs) until the next one
    would overrun --seconds; at least one."""
    tracer = tracing.Tracer() if trace else None
    plain: List[Dict[str, float]] = []
    traced: List[Dict[str, float]] = []
    layers: List[Dict[str, float]] = []
    durations: List[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        samples = bench.round(index)
        index += 1
        if samples is not None:
            plain.append(samples)
        if tracer is not None:
            tracer.begin_round()
            tracer.install()
            try:
                samples = bench.round(index)
            finally:
                tracer.uninstall()
            index += 1
            if samples is not None:
                traced.append(samples)
                layers.append(tracer.round_metrics())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        print(f"round {len(durations)}: {durations[-1]:.2f} s "
              + " ".join(f"{k}={v:.4g}" for k, v in (samples or {}).items()), file=sys.stderr)
        if elapsed + statistics.median(durations) > seconds:
            break
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(str(OUT / f"trace-{bench.name}-seed{bench.seed}.jsonl"))
        if not layers or not plain:
            return {}
        metrics = {}
        for name, unit, _better in tracing.per_layer_names():
            if name == "trace.overhead":
                value = _median(traced, "verbs_s") / _median(plain, "verbs_s")
            else:
                value = statistics.median(row[name] for row in layers)
            metrics[name] = {"value": value, "unit": unit}
        return metrics
    if not plain:
        return {}
    units = {"setup_s": "s", "train_users_per_s": "users/s", "train_cmd_s": "s",
             "predict_users_per_s": "users/s", "featurize_users_per_s": "users/s"}
    metrics = {name: {"value": _median(plain, name), "unit": unit} for name, unit in units.items()}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    metrics["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "depfuse" / "__init__.py").is_file():
        print(f"error: no depfuse source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, work)
        metrics = run(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in bench.errors:
        print(f"check: {error}", file=sys.stderr)
    result = {
        "correct": not bench.errors and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
