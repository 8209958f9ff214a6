"""End-to-end wiring: corpus -> features -> model -> training -> metrics.

RunConfig names every run setting once: model dimensions, optimizer
settings, split parameters and file paths. The CLI derives its config-file
keys and flags from these fields. The model, training and split settings
default to what ModelConfig, TrainConfig and SplitSpec declare, and those
configs take the RunConfig fields that share their names. The same pipeline
backs the ``train`` and ``ablate`` subcommands.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .corpus import (
    ParseIssue,
    SplitSpec,
    UserRecord,
    check_ratio,
    parse_corpus,
    split_dataset,
)
from .errors import ConfigError, input_errors
from .features import (
    DEFAULT_NEGATIVITY_THRESHOLD,
    LexiconScorer,
    check_threshold,
    default_scorer,
    fit_normalizer,
    load_lexicon,
)
from .metrics import MetricsReport, report_to_json
from .model import (
    FUSION_MODES,
    FUSION_QUERIES,
    VALUE_PROJECTIONS,
    FusionModel,
    ModelConfig,
    init_params,
    save_checkpoint,
)
from .text import DEFAULT_MIN_FREQ, N_SPECIALS, build_vocab, check_min_freq
from .train import (
    TrainConfig,
    TrainHistory,
    evaluate,
    history_to_csv,
    normalized_examples,
    prepare_examples,
    read_record,
    train,
)


def setting(default: Any, **metadata: Any) -> Any:
    """A settings field. Metadata holds what the field name and default
    cannot say: ``flags`` (spellings other than ``--field-name``),
    ``choices`` and ``help``."""
    return field(default=default, metadata=metadata)


def build_from(cls, values: Mapping[str, Any], **extra: Any):
    """An instance of the dataclass ``cls`` from the entries of ``values``
    that name its fields, plus ``extra``; absent fields keep their defaults."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values}, **extra)


@dataclass(frozen=True)
class RunConfig:
    # paths
    corpus: str = setting("corpus.jsonl", help="JSONL corpus path")
    out_dir: str = setting("run", flags=("--out-dir", "--out"), help="artifact directory")
    lexicon: Optional[str] = setting(  # None -> shipped default lexicon
        None, help="negative-term lexicon file (default: shipped)"
    )
    # featurization
    threshold: float = setting(
        DEFAULT_NEGATIVITY_THRESHOLD, help="negativity threshold (default 0.5)"
    )
    # split
    ratio: float = setting(SplitSpec.ratio, help="train fraction of the split (default 0.8)")
    seed: int = setting(TrainConfig.seed, help="root seed for all randomness")
    # text
    min_freq: int = DEFAULT_MIN_FREQ
    max_len: int = ModelConfig.max_len
    # model
    d1: int = ModelConfig.d1
    d2: int = ModelConfig.d2
    d_k: int = ModelConfig.d_k
    refine_layers: int = ModelConfig.refine_layers
    refine_heads: int = ModelConfig.refine_heads
    mlp_hidden: int = ModelConfig.mlp_hidden
    fusion: str = setting(ModelConfig.fusion, choices=FUSION_MODES)
    value_projection: str = setting(ModelConfig.value_projection, choices=VALUE_PROJECTIONS)
    outer_relu: bool = ModelConfig.outer_relu
    fusion_query: str = setting(ModelConfig.fusion_query, choices=FUSION_QUERIES)
    # optimization
    learning_rate: float = setting(TrainConfig.learning_rate, flags=("--lr",))
    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    early_stop_patience: int = TrainConfig.early_stop_patience
    shuffle_each_epoch: bool = TrainConfig.shuffle_each_epoch
    # output
    timing: bool = setting(False, help="write real wall-clock seconds into history.csv")

    def validate(self) -> None:
        """Refuse bad settings before any input is read, with the checks
        their consumers run. The model check stands in the smallest
        vocabulary, the specials alone."""
        check_threshold(self.threshold)
        check_ratio(self.ratio)
        check_min_freq(self.min_freq)
        self.model_config(vocab_size=N_SPECIALS).validate()
        self.train_config().validate()

    def make_out_dir(self) -> None:
        """Create the artifact directory before any input is read; any reason
        it cannot be created is a ConfigError naming out_dir."""
        try:
            Path(self.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out_dir {self.out_dir}: {exc}") from None

    def model_config(self, vocab_size: int) -> ModelConfig:
        return build_from(ModelConfig, vars(self), vocab_size=vocab_size)

    def train_config(self) -> TrainConfig:
        return build_from(TrainConfig, vars(self))


@dataclass
class PipelineResult:
    model: FusionModel
    history: TrainHistory
    report: MetricsReport
    issues: List[ParseIssue] = field(default_factory=list)
    n_train: int = 0
    n_validation: int = 0


def make_scorer(config: RunConfig) -> LexiconScorer:
    if config.lexicon is None:
        return default_scorer()
    path = Path(config.lexicon)
    with input_errors(path, "lexicon"), path.open(encoding="utf-8") as fh:
        terms = load_lexicon(fh)
    return LexiconScorer(terms)


def load_corpus(corpus: str) -> Tuple[List[UserRecord], List[ParseIssue]]:
    """Parse a corpus file; a missing or unreadable file is a ConfigError."""
    with input_errors(corpus, "corpus"), open(corpus, "rb") as fh:
        return parse_corpus(fh)


def train_from_records(
    records: List[UserRecord], config: RunConfig
) -> PipelineResult:
    """Split, fit the vocabulary and normalizer on the training slice only,
    train, and evaluate on the validation slice: the report is the one
    training took of the parameters it returns, scored afresh only when no
    epoch ran."""
    if not records:
        raise ConfigError("no valid records in the corpus")
    train_records, val_records = split_dataset(
        records, SplitSpec(ratio=config.ratio, seed=config.seed)
    )
    if not train_records or not val_records:
        raise ConfigError(
            f"split produced an empty side (train={len(train_records)},"
            f" validation={len(val_records)}); adjust ratio or corpus size"
        )
    vocab = build_vocab(train_records, min_freq=config.min_freq)
    scorer = make_scorer(config)
    # One pass reads the training slice; its raw statistics fit the normalizer.
    train_read = [
        read_record(r, vocab, scorer, config.threshold, config.max_len) for r in train_records
    ]
    normalizer = fit_normalizer([raw for _sequence, raw in train_read])
    train_set = normalized_examples(train_records, train_read, normalizer)
    val_set = prepare_examples(
        val_records, vocab, normalizer, scorer, config.threshold, config.max_len
    )
    model = init_params(
        config.model_config(vocab_size=len(vocab)),
        seed=config.seed,
        vocab=vocab,
        normalizer=normalizer,
    )
    model, history = train(model, train_set, val_set, config.train_config())
    report = history.report if history.report is not None else evaluate(model, val_set)
    return PipelineResult(
        model=model,
        history=history,
        report=report,
        n_train=len(train_set),
        n_validation=len(val_set),
    )


def run_training(config: RunConfig) -> PipelineResult:
    """Full file-to-files run: parse the corpus, train, write artifacts."""
    config.validate()
    config.make_out_dir()
    records, issues = load_corpus(config.corpus)
    result = train_from_records(records, config)
    result.issues = issues
    write_artifacts(result, config)
    return result


def write_artifacts(result: PipelineResult, config: RunConfig) -> Dict[str, Path]:
    """Checkpoint, history and metrics into out_dir, which make_out_dir made."""
    out_dir = Path(config.out_dir)
    paths = {
        "checkpoint": out_dir / "checkpoint.json",
        "history": out_dir / "history.csv",
        "metrics": out_dir / "metrics.json",
    }
    save_checkpoint(result.model, paths["checkpoint"])
    paths["history"].write_text(
        history_to_csv(result.history, include_timing=config.timing), encoding="utf-8"
    )
    paths["metrics"].write_text(report_to_json(result.report) + "\n", encoding="utf-8")
    return paths


def ablation_variants(config: RunConfig) -> List[Tuple[str, RunConfig]]:
    """The four comparison runs: fusion mode x refinement depth, sharing one
    seed and otherwise-identical configuration."""
    variants = []
    for fusion in FUSION_MODES:
        for layers in (0, 2):
            name = f"{fusion}_refine{layers}"
            variants.append(
                (
                    name,
                    replace(
                        config,
                        fusion=fusion,
                        refine_layers=layers,
                        out_dir=str(Path(config.out_dir) / name),
                    ),
                )
            )
    return variants


def run_ablation(
    config: RunConfig, report_issues: Optional[Callable[[List[ParseIssue]], None]] = None
) -> List[Tuple[str, MetricsReport]]:
    """Run all ablation variants and write a summary CSV next to them. The
    corpus's parse issues go to ``report_issues``, once, before any training."""
    variants = ablation_variants(config)
    for _name, variant in variants:
        variant.validate()
    for _name, variant in variants:
        variant.make_out_dir()
    records, issues = load_corpus(config.corpus)
    if report_issues is not None:
        report_issues(issues)
    results: List[Tuple[str, MetricsReport]] = []
    for name, variant in variants:
        result = train_from_records(records, variant)
        write_artifacts(result, variant)
        results.append((name, result.report))
    summary = ["variant,accuracy,precision,recall,f1"]
    for name, report in results:
        summary.append(
            f"{name},{report.accuracy:.6f},{report.precision:.6f},"
            f"{report.recall:.6f},{report.f1:.6f}"
        )
    (Path(config.out_dir) / "summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    return results
