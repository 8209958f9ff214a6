"""Command-line surface: gen-synth, featurize, train, eval, predict, ablate.

Configuration precedence is defaults < config file < flags. The config file
is flat ``key = value`` text ('#' starts a comment). Its keys are the
``RunConfig`` fields plus the verb-only ``VerbOptions`` fields (``n``,
``out``, ``checkpoint``, ``split``), e.g.::

    seed = 7
    epochs = 30
    learning_rate = 1e-3
    fusion = cross_attention

Each setting's flag is its field name with dashes (``--max-len``) unless its
field metadata spells it otherwise (``--lr``).

Exit codes: 0 success, 2 usage/configuration (an unwritable output path
included), 3 data/format, 4 numerical failure. All randomness is driven by
--seed; outputs are byte-identical across reruns with identical inputs and
flags.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import Field, dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import (
    ParseIssue,
    SplitSpec,
    UserRecord,
    check_ratio,
    serialize_records,
    split_dataset,
)
from .errors import ConfigError, DataFormatError, NumericalError, UsageError, input_errors
from .features import FEATURE_NAMES, check_threshold, extract_features
from .metrics import report_to_json
from .model import load_checkpoint, vocab_fingerprint
from .pipeline import (
    RunConfig,
    build_from,
    load_corpus,
    make_scorer,
    run_ablation,
    run_training,
    setting,
)
from .synth import SynthDatasetSpec, generate_dataset, spec_to_json
from .text import build_vocab
from .train import (
    evaluate,
    predict_logits,
    predictions_from_logits,
    prepare_examples,
    probability_depressed,
)

SPLITS = ("all", "train", "validation")

_CSV_QUOTED = re.compile('[,"\r\n]')


@dataclass(frozen=True)
class VerbOptions:
    """Settings that a single verb reads besides the run settings."""

    n: int = setting(250, help="users per class (default 250)")
    out: Optional[str] = None
    checkpoint: Optional[str] = setting(None, help="checkpoint JSON path")
    split: str = setting(
        "all", choices=SPLITS, help="evaluate a reproduced split slice instead of all users"
    )


_SETTINGS: Dict[str, Field] = {f.name: f for f in fields(RunConfig) + fields(VerbOptions)}
_RUN_FIELDS = tuple(f.name for f in fields(RunConfig))
# The flags of every verb that reads a corpus.
_INPUT_FIELDS = ("seed", "corpus", "lexicon", "threshold")


def _kind(f: Field) -> type:
    """The type a setting parses to: its default's, or str for a path that
    defaults to None."""
    return str if f.default is None else type(f.default)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_config_file(path: Path) -> Dict[str, object]:
    with input_errors(path, "config file"):
        text = path.read_text(encoding="utf-8")
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _kind(_SETTINGS[key])
        try:
            values[key] = _parse_bool(value) if kind is bool else kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def add_flags(parser: argparse.ArgumentParser, names: Sequence[str], **helps: str) -> None:
    """One flag per named setting, typed by its default; ``helps`` replaces
    a setting's help text for this parser."""
    for name in names:
        f = _SETTINGS[name]
        flags = f.metadata.get("flags", ("--" + name.replace("_", "-"),))
        kwargs = {"dest": name, "help": helps.get(name, f.metadata.get("help"))}
        if _kind(f) is bool:
            kwargs.update(action=argparse.BooleanOptionalAction, default=None)
        else:
            kwargs.update(type=_kind(f), choices=f.metadata.get("choices"))
        parser.add_argument(*flags, **kwargs)


def settings(args: argparse.Namespace) -> Tuple[RunConfig, VerbOptions]:
    """defaults < config file < explicit flags."""
    values = parse_config_file(Path(args.config)) if getattr(args, "config", None) else {}
    values.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    return build_from(RunConfig, values), build_from(VerbOptions, values)


def _report_issues(issues: List[ParseIssue]) -> None:
    for issue in issues:
        print(f"parse issue: line {issue.line}: {issue.reason}", file=sys.stderr)


def _load_records(corpus: str) -> List[UserRecord]:
    records, issues = load_corpus(corpus)
    _report_issues(issues)
    return records


def _csv_field(value: str) -> str:
    """``value`` as one CSV field, quoted (quotes doubled) only when it holds
    a comma, a quote, CR or LF; ``csv.reader`` reads it back unchanged.

    ``csv.writer`` with ``lineterminator="\\n"`` leaves a lone CR unquoted on
    Python 3.11, which a reader then takes for a row break.
    """
    if _CSV_QUOTED.search(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def _write_text(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")


def cmd_gen_synth(config: RunConfig, opts: VerbOptions) -> int:
    if opts.out is None:
        raise ConfigError("gen-synth requires --out PATH")
    spec = SynthDatasetSpec(n_per_class=opts.n, seed=config.seed)
    records = generate_dataset(spec)
    out_path = Path(opts.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(serialize_records(records))
    Path(str(out_path) + ".spec.json").write_text(spec_to_json(spec), encoding="utf-8")
    per_class = {0: 0, 1: 0}
    for r in records:
        per_class[r.label] += 1
    print(
        f"wrote {len(records)} records ({per_class[0]} normal, {per_class[1]} depressed)"
        f" to {out_path}"
    )
    return 0


def cmd_featurize(config: RunConfig, opts: VerbOptions) -> int:
    check_threshold(config.threshold)
    records = _load_records(config.corpus)
    scorer = make_scorer(config)
    lines = [",".join(("user_id", "label", *FEATURE_NAMES))]
    for record in records:
        v = extract_features(record, scorer, config.threshold)
        values = (f"{getattr(v, name):.6f}" for name in FEATURE_NAMES)
        lines.append(",".join((_csv_field(record.user_id), str(record.label), *values)))
    _write_text(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_train(config: RunConfig, opts: VerbOptions) -> int:
    result = run_training(config)
    _report_issues(result.issues)
    for row in result.history.epochs:
        print(
            f"epoch {row.epoch}: train_loss={row.train_loss:.6f}"
            f" val_acc={row.val_accuracy:.4f} val_f1={row.val_f1:.4f}",
            file=sys.stderr,
        )
    out_dir = Path(config.out_dir)
    print(
        f"trained on {result.n_train} users, validated on {result.n_validation}:"
        f" accuracy={result.report.accuracy:.6f} f1={result.report.f1:.6f}"
    )
    print(f"artifacts in {out_dir}: checkpoint.json history.csv metrics.json")
    return 0


def _load_model_for(opts: VerbOptions):
    if opts.checkpoint is None:
        raise ConfigError("missing --checkpoint PATH")
    with input_errors(opts.checkpoint, "checkpoint"):
        return load_checkpoint(opts.checkpoint)


def _prepare_for_model(model, records, config: RunConfig):
    scorer = make_scorer(config)
    return prepare_examples(
        records,
        model.vocab,
        model.normalizer,
        scorer,
        config.threshold,
        model.config.max_len,
    )


def cmd_eval(config: RunConfig, opts: VerbOptions) -> int:
    if opts.split not in SPLITS:
        raise ConfigError(f"--split must be {'|'.join(SPLITS)}, got {opts.split!r}")
    check_threshold(config.threshold)
    if opts.split != "all":
        check_ratio(config.ratio)
    model = _load_model_for(opts)
    records = _load_records(config.corpus)
    if opts.split != "all":
        train_records, val_records = split_dataset(
            records, SplitSpec(ratio=config.ratio, seed=config.seed)
        )
        # Reproduction mode claims this is the training corpus; verify that
        # the vocabulary rebuilt from its training slice matches the
        # checkpoint before trusting the slice assignment.
        rebuilt = build_vocab(train_records, min_freq=model.vocab.min_freq)
        if vocab_fingerprint(rebuilt) != vocab_fingerprint(model.vocab):
            raise ConfigError(
                "checkpoint/corpus mismatch (vocab hash): this corpus+seed+ratio does"
                " not reproduce the checkpoint's training slice"
            )
        records = train_records if opts.split == "train" else val_records
    if not records:
        raise ConfigError("selected slice is empty")
    examples = _prepare_for_model(model, records, config)
    report = evaluate(model, examples)
    _write_text(opts.out, report_to_json(report) + "\n")
    return 0


def cmd_predict(config: RunConfig, opts: VerbOptions) -> int:
    check_threshold(config.threshold)
    model = _load_model_for(opts)
    records = _load_records(config.corpus)
    if not records:
        raise ConfigError("no valid records to predict on")
    examples = _prepare_for_model(model, records, config)
    logits = predict_logits(model, examples)
    probs = probability_depressed(logits)
    preds = predictions_from_logits(logits)
    lines = ["user_id,prob_depressed,prediction"]
    for example, prob, pred in zip(examples, probs, preds):
        lines.append(f"{_csv_field(example.user_id)},{prob:.6f},{pred}")
    _write_text(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_ablate(config: RunConfig, opts: VerbOptions) -> int:
    results = run_ablation(config, _report_issues)
    width = max(len(name) for name, _ in results)
    print(f"{'variant':<{width}}  accuracy  precision  recall    f1")
    for name, rep in results:
        print(
            f"{name:<{width}}  {rep.accuracy:.6f}  {rep.precision:.6f}"
            f"   {rep.recall:.6f}  {rep.f1:.6f}"
        )
    print(f"per-variant artifacts and summary.csv written under {config.out_dir}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depfuse",
        description="Depression screening pipeline over social-media timeline corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, summary, names, **helps):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key=value config file")
        add_flags(p, names, **helps)
        p.set_defaults(func=func)

    verb(
        "gen-synth", cmd_gen_synth, "generate a labeled synthetic corpus", ("seed", "n", "out"),
        out="output JSONL path (sidecar: <out>.spec.json)",
    )
    verb(
        "featurize", cmd_featurize, "emit the per-user statistic CSV", _INPUT_FIELDS + ("out",),
        out="CSV path (default: stdout)",
    )
    verb("train", cmd_train, "train a fusion classifier", _RUN_FIELDS)
    verb(
        "eval", cmd_eval, "evaluate a checkpoint on a corpus",
        _INPUT_FIELDS + ("checkpoint", "out", "split", "ratio"),
        out="metrics JSON path (default: stdout)", ratio="split ratio when --split is used",
    )
    verb(
        "predict", cmd_predict, "per-user probabilities from a checkpoint",
        _INPUT_FIELDS + ("checkpoint", "out"), out="predictions CSV path (default: stdout)",
    )
    # Every variant sets its own fusion mode and refinement depth.
    verb(
        "ablate", cmd_ablate, "train the fusion x refinement grid and compare the variants",
        tuple(n for n in _RUN_FIELDS if n not in ("fusion", "refine_layers")),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The per-op finite checks report an overflow or NaN as NumericalError
        # (exit 4), so numpy's own warnings would only repeat it on stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(*settings(args))
    except (ConfigError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
