#!/usr/bin/env python3
"""Full synthetic round trip in one command: generate a corpus, train the
cross-attention model, and print per-epoch validation accuracy plus the
final metric report. Useful as a quick health check of the whole pipeline.

Example:
    python scripts/run_synthetic_benchmark.py --n 250 --seed 11 --epochs 30
"""

import argparse
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from depfuse.cli import add_flags, settings
from depfuse.corpus import serialize_records
from depfuse.metrics import report_to_json
from depfuse.pipeline import run_training
from depfuse.synth import SynthDatasetSpec, generate_dataset, spec_to_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_flags(
        parser,
        ("n", "seed", "epochs", "learning_rate", "batch_size", "fusion", "refine_layers",
         "early_stop_patience", "out_dir"),
        out_dir="artifact directory (default: temporary)",
    )
    parser.set_defaults(seed=11, epochs=30, early_stop_patience=5)
    args = parser.parse_args(argv)
    config, opts = settings(args)

    out_dir = args.out_dir or tempfile.mkdtemp(prefix="depfuse_bench_")
    corpus = Path(out_dir) / "corpus.jsonl"
    corpus.parent.mkdir(parents=True, exist_ok=True)
    spec = SynthDatasetSpec(n_per_class=opts.n, seed=config.seed)
    corpus.write_bytes(serialize_records(generate_dataset(spec)))
    Path(str(corpus) + ".spec.json").write_text(spec_to_json(spec), encoding="utf-8")
    print(f"corpus: {2 * opts.n} users -> {corpus}")

    config = replace(config, corpus=str(corpus), out_dir=out_dir)
    result = run_training(config)
    for row in result.history.epochs:
        print(
            f"epoch {row.epoch:3d}  loss {row.train_loss:.6f}"
            f"  val_acc {row.val_accuracy:.4f}  val_f1 {row.val_f1:.4f}"
            f"  ({row.seconds:.2f}s)"
        )
    print(report_to_json(result.report))
    print(f"artifacts in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
