"""The fusion classifier: token encoder, statistic encoder, cross-attention
fusion (or a concat baseline), and a two-layer MLP head.

Two inputs per user: a token sequence and the normalized 6-component
statistic vector. The statistic rows act as keys/values under the default
``fusion_query="tokens"``; flipping to ``"stats"`` swaps the roles, in which
case the query/key projection widths swap with them so each projection
matches its input side.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataFormatError, DimensionError, UsageError
from .features import N_FEATURES, FeatureNormalizer
from .rng import STREAM_INIT, SplitMix64, derive_seed
from .tensor import Tensor
from .text import CLS, N_SPECIALS, TokenSequence, Vocab

FUSION_MODES = ("cross_attention", "concat")
VALUE_PROJECTIONS = ("shared_with_key", "separate")
FUSION_QUERIES = ("tokens", "stats")

CHECKPOINT_VERSION = 1
# Parameter values per formatted block of a checkpoint save (a few hundred KiB
# of text); the save's memory is bounded by a block, not by the largest table.
_CHECKPOINT_BLOCK = 1 << 14


@dataclass(frozen=True)
class ModelConfig:
    d1: int = 32  # token embedding width
    d2: int = 32  # statistic embedding width
    d_k: int = 32  # query/key/value projection width
    refine_layers: int = 0  # self-attention blocks after the embedding
    refine_heads: int = 4
    mlp_hidden: int = 32
    fusion: str = "cross_attention"
    value_projection: str = "shared_with_key"
    outer_relu: bool = False
    fusion_query: str = "tokens"
    vocab_size: int = 0  # set from the built vocabulary
    max_len: int = 256

    def validate(self) -> None:
        if min(self.d1, self.d2, self.d_k, self.mlp_hidden) < 1:
            raise ConfigError("model widths must be >= 1")
        if self.refine_layers < 0:
            raise ConfigError("refine_layers must be >= 0")
        if self.refine_layers > 0:
            if self.refine_heads < 1 or self.d1 % self.refine_heads != 0:
                raise ConfigError(
                    f"refine_heads ({self.refine_heads}) must divide d1 ({self.d1})"
                )
        if self.fusion not in FUSION_MODES:
            raise ConfigError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        if self.value_projection not in VALUE_PROJECTIONS:
            raise ConfigError(
                f"value_projection must be one of {VALUE_PROJECTIONS}, got {self.value_projection!r}"
            )
        if self.fusion_query not in FUSION_QUERIES:
            raise ConfigError(
                f"fusion_query must be one of {FUSION_QUERIES}, got {self.fusion_query!r}"
            )
        if self.vocab_size < N_SPECIALS:
            raise ConfigError(f"vocab_size must cover the specials, got {self.vocab_size}")
        if self.max_len < 8:
            raise ConfigError(f"max_len must be >= 8, got {self.max_len}")

    def fused_width(self) -> int:
        """Input width of the MLP head, determined by the fusion mode."""
        if self.fusion == "concat":
            return self.d1 + self.d2
        if self.fusion_query == "tokens":
            return self.d_k
        return N_FEATURES * self.d_k


@dataclass(frozen=True)
class CrossAttentionLayer:
    """Projections for the fusion attention; w_v may alias w_k, in which case
    the keys double as the values. Scores are scaled by 1/sqrt of the
    projection width, which is d_k."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    d_k: int


def _expected_shapes(config: ModelConfig) -> Dict[str, Tuple[int, int]]:
    """Parameter name -> shape map; dict order is the creation order."""
    d1, d2, dk = config.d1, config.d2, config.d_k
    shapes: Dict[str, Tuple[int, int]] = {
        "embedding": (config.vocab_size, d1),
        "positional": (config.max_len, d1),
    }
    for i in range(config.refine_layers):
        p = f"refine{i}."
        shapes[p + "attn_q"] = (d1, d1)
        shapes[p + "attn_k"] = (d1, d1)
        shapes[p + "attn_v"] = (d1, d1)
        shapes[p + "attn_o"] = (d1, d1)
        shapes[p + "ln1_gain"] = (1, d1)
        shapes[p + "ln1_bias"] = (1, d1)
        shapes[p + "ffn_w1"] = (d1, 4 * d1)
        shapes[p + "ffn_b1"] = (1, 4 * d1)
        shapes[p + "ffn_w2"] = (4 * d1, d1)
        shapes[p + "ffn_b2"] = (1, d1)
        shapes[p + "ln2_gain"] = (1, d1)
        shapes[p + "ln2_bias"] = (1, d1)
    shapes["stat_scale"] = (N_FEATURES, d2)
    shapes["stat_bias"] = (N_FEATURES, d2)
    if config.fusion == "cross_attention":
        # Query projection matches the query side's width; keys/values the other.
        q_width, kv_width = (d1, d2) if config.fusion_query == "tokens" else (d2, d1)
        shapes["attn_wq"] = (q_width, dk)
        shapes["attn_wk"] = (kv_width, dk)
        if config.value_projection == "separate":
            shapes["attn_wv"] = (kv_width, dk)
    shapes["mlp_w1"] = (config.fused_width(), config.mlp_hidden)
    shapes["mlp_b1"] = (1, config.mlp_hidden)
    shapes["mlp_w2"] = (config.mlp_hidden, 2)
    shapes["mlp_b2"] = (1, 2)
    return shapes


class FusionModel:
    """Parameter set plus the vocabulary and feature normalizer it expects."""

    def __init__(
        self,
        config: ModelConfig,
        params: Dict[str, Tensor],
        vocab: Optional[Vocab] = None,
        normalizer: Optional[FeatureNormalizer] = None,
    ):
        self.config = config
        self.params = params
        self.vocab = vocab
        self.normalizer = normalizer

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def attention_layer(self) -> CrossAttentionLayer:
        if "attn_wq" not in self.params:
            raise UsageError("model was configured with fusion='concat'; no attention layer")
        w_k = self.params["attn_wk"]
        w_v = self.params["attn_wv"] if "attn_wv" in self.params else w_k
        return CrossAttentionLayer(
            w_q=self.params["attn_wq"], w_k=w_k, w_v=w_v, d_k=self.config.d_k
        )

    def copy_params(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def set_params(self, values: Dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            self.params[name].data = arr.copy()


def init_params(
    config: ModelConfig,
    seed: int,
    vocab: Optional[Vocab] = None,
    normalizer: Optional[FeatureNormalizer] = None,
) -> FusionModel:
    """Deterministic initialization: Glorot-uniform weight matrices, zero
    biases, unit layernorm gains, N(0, 0.02) embedding and positional tables.
    Parameters are drawn from one seeded stream in creation order, so a fixed
    (config, seed) reproduces bit-identical values. Each array is filled
    row-major by one block draw, which equals a scalar draw per weight."""
    config.validate()
    rng = SplitMix64(derive_seed(seed, STREAM_INIT))

    def uniform_fill(rows: int, cols: int, limit: float) -> np.ndarray:
        # The ops and order of (uniform() * 2.0 - 1.0) * limit per weight.
        out = rng.uniforms(rows * cols).reshape(rows, cols)
        out *= 2.0
        out -= 1.0
        out *= limit
        return out

    def glorot(rows: int, cols: int) -> np.ndarray:
        return uniform_fill(rows, cols, math.sqrt(6.0 / (rows + cols)))

    def table(rows: int, cols: int) -> np.ndarray:
        return rng.normals(rows * cols, 0.0, 0.02).reshape(rows, cols)

    params: Dict[str, Tensor] = {}
    for name, (rows, cols) in _expected_shapes(config).items():
        short = name.rsplit(".", 1)[-1]
        if name in ("embedding", "positional"):
            data = table(rows, cols)
        elif short.endswith("_gain"):
            data = np.ones((rows, cols))
        elif short.endswith("_bias") or short in ("ffn_b1", "ffn_b2", "mlp_b1", "mlp_b2"):
            data = np.zeros((rows, cols))
        elif name == "stat_scale":
            # Each row embeds one scalar statistic: fan_in 1, fan_out d2.
            data = uniform_fill(rows, cols, math.sqrt(6.0 / (1 + cols)))
        else:
            data = glorot(rows, cols)
        params[name] = Tensor(data, requires_grad=True)
    return FusionModel(config=config, params=params, vocab=vocab, normalizer=normalizer)


def _bounds(lengths: Sequence[int]) -> List[int]:
    """Segment bounds of consecutive runs of the given lengths."""
    return [0, *itertools.accumulate(lengths)]


def _refine_block(model: FusionModel, x: Tensor, index: int, bounds: List[int]) -> Tensor:
    """Post-norm transformer encoder block: multi-head self-attention within
    each user's rows and a width-4*d1 feed-forward, each with a residual then
    layer normalization."""
    cfg = model.config
    p = f"refine{index}."
    q = T.matmul(x, model.params[p + "attn_q"])
    k = T.matmul(x, model.params[p + "attn_k"])
    v = T.matmul(x, model.params[p + "attn_v"])
    merged = T.multihead_attention(q, k, v, cfg.refine_heads, bounds, bounds)
    attended = T.matmul(merged, model.params[p + "attn_o"])
    x = T.layernorm_rows(
        T.add(x, attended), model.params[p + "ln1_gain"], model.params[p + "ln1_bias"]
    )
    hidden = T.relu(T.add(T.matmul(x, model.params[p + "ffn_w1"]), model.params[p + "ffn_b1"]))
    ff = T.add(T.matmul(hidden, model.params[p + "ffn_w2"]), model.params[p + "ffn_b2"])
    return T.layernorm_rows(
        T.add(x, ff), model.params[p + "ln2_gain"], model.params[p + "ln2_bias"]
    )


def encode_tokens(
    model: FusionModel, items: Sequence[TokenSequence]
) -> Tuple[Tensor, List[int]]:
    """Token rows of a batch, users stacked in order, and their segment
    bounds: user i owns rows [bounds[i], bounds[i+1]). Each row is embedding
    plus positional, through any refinement blocks: the embedding rows are
    gathered by token id, and a user of n rows takes positional rows 0..n-1
    (``tensor.prefix_rows``). PAD rows never enter the computation: ids are
    cut at true_len first (an all-PAD sequence falls back to the CLS row
    alone)."""
    cfg = model.config
    ids: List[int] = []
    lengths = []
    for item in items:
        length = item.true_len
        if length > cfg.max_len:
            raise UsageError(f"sequence length {length} exceeds max_len {cfg.max_len}")
        ids.extend(item.ids[:length] if length > 0 else (CLS,))
        lengths.append(max(length, 1))
    bounds = _bounds(lengths)
    emb = T.gather_rows(model.params["embedding"], ids)
    x = T.add(emb, T.prefix_rows(model.params["positional"], lengths))
    for i in range(cfg.refine_layers):
        x = _refine_block(model, x, i, bounds)
    return x, bounds


def encode_stats(model: FusionModel, stats: Sequence[np.ndarray]) -> Tensor:
    """Statistic rows of a batch: user i's normalized 6-vector gives rows
    6i..6i+5, where row 6i+j is scale_j * value_j + bias_j. Each user takes
    all six rows of ``stat_scale`` and ``stat_bias`` (``tensor.prefix_rows``)."""
    values = [np.asarray(s, dtype=np.float64).reshape(-1) for s in stats]
    for v in values:
        if v.shape[0] != N_FEATURES:
            raise DimensionError(f"expected {N_FEATURES} statistics, got {v.shape[0]}")
    lengths = [N_FEATURES] * len(values)
    scale = T.prefix_rows(model.params["stat_scale"], lengths)
    scaled = T.scale_rows(scale, np.concatenate(values))
    return T.add(scaled, T.prefix_rows(model.params["stat_bias"], lengths))


def attention_weights(layer: CrossAttentionLayer, x_query: Tensor, x_kv: Tensor) -> Tensor:
    """Softmax rows of (Q K^T / sqrt(d_k)): one weight per query/key pair.
    They are the fusion attention's output when the values are the identity."""
    q = T.matmul(x_query, layer.w_q)
    k = T.matmul(x_kv, layer.w_k)
    return T.multihead_attention(q, k, Tensor(np.eye(x_kv.shape[0])), 1)


def cross_attention(
    layer: CrossAttentionLayer,
    x_query: Tensor,
    x_kv: Tensor,
    q_bounds: Optional[List[int]] = None,
    kv_bounds: Optional[List[int]] = None,
) -> Tensor:
    """Single-head scaled dot-product attention of one sequence over another:
    the attention weights aggregate the projected values. With segment
    bounds, query segment s attends only to key/value segment s."""
    q = T.matmul(x_query, layer.w_q)
    k = T.matmul(x_kv, layer.w_k)
    v = k if layer.w_v is layer.w_k else T.matmul(x_kv, layer.w_v)
    return T.multihead_attention(q, k, v, 1, q_bounds, kv_bounds)


def mlp_forward(model: FusionModel, x: Tensor) -> Tensor:
    """The two-layer head, with a ReLU on the logits when outer_relu is set."""
    p = model.params
    hidden = T.relu(T.add(T.matmul(x, p["mlp_w1"]), p["mlp_b1"]))
    out = T.add(T.matmul(hidden, p["mlp_w2"]), p["mlp_b2"])
    return T.relu(out) if model.config.outer_relu else out


def forward(
    model: FusionModel, batch: Sequence[Tuple[TokenSequence, np.ndarray]]
) -> Tensor:
    """B x 2 logits for a batch of (token sequence, normalized statistics).

    The batch is one graph whatever its size: the users' token rows and
    statistic rows are stacked, each op runs once on the stack, and only
    attention and pooling look at the segment bounds that keep users apart."""
    if not batch:
        raise UsageError("forward needs a non-empty batch")
    cfg = model.config
    tokens, token_bounds = encode_tokens(model, [item for item, _ in batch])
    stats = encode_stats(model, [s for _, s in batch])
    stat_bounds = _bounds([N_FEATURES] * len(batch))
    if cfg.fusion == "cross_attention":
        layer = model.attention_layer()
        if cfg.fusion_query == "tokens":
            attended = cross_attention(layer, tokens, stats, token_bounds, stat_bounds)
            fused = T.mean_rows(attended, token_bounds)
        else:
            attended = cross_attention(layer, stats, tokens, stat_bounds, token_bounds)
            fused = T.fold_rows(attended, N_FEATURES)
    else:
        fused = T.concat_cols(
            T.mean_rows(tokens, token_bounds), T.mean_rows(stats, stat_bounds)
        )
    return mlp_forward(model, fused)


def _vocab_payload(vocab: Optional[Vocab]):
    if vocab is None:
        return None
    return {"min_freq": vocab.min_freq, "tokens": vocab.token_to_id}


def vocab_fingerprint(vocab: Optional[Vocab]) -> str:
    """sha256 of the vocabulary's raw UTF-8 JSON. It keeps ensure_ascii=False,
    apart from the checkpoint file's ASCII encoding, so that the fingerprint
    stored in every existing checkpoint still matches."""
    payload = json.dumps(_vocab_payload(vocab), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _dumps(value) -> str:
    """Compact, key-sorted, pure-ASCII JSON: the checkpoint's one encoding."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _format_block(values: np.ndarray) -> str:
    """Comma-separated JSON numbers of one block of parameter values."""
    return _dumps(values.tolist())[1:-1]


def _param_chunks(params: Dict[str, Tensor]) -> Iterator[str]:
    """The "params" object as text, a block of values at a time."""
    yield "{"
    for i, name in enumerate(sorted(params)):
        flat = params[name].data.reshape(-1)
        yield ("," if i else "") + _dumps(name) + ':{"data":['
        for start in range(0, flat.size, _CHECKPOINT_BLOCK):
            yield ("," if start else "") + _format_block(flat[start : start + _CHECKPOINT_BLOCK])
        yield '],"shape":' + _dumps(list(params[name].shape)) + "}"
    yield "}"


def save_checkpoint(model: FusionModel, path: Union[str, Path]) -> None:
    """Versioned JSON checkpoint; round-trips parameters bit for bit.

    The file is compact, key-sorted JSON in pure ASCII: a non-ASCII
    vocabulary token is written as ``\\u`` escapes. It is written a
    parameter block at a time, so memory stays flat however large the
    embedding table is, into a sibling ``.tmp`` file that then replaces
    ``path``; a save that fails or is interrupted leaves the previous file
    as it was. The bytes equal ``json.dumps`` of the whole payload with
    ``sort_keys=True`` and ``separators=(",", ":")``. load_checkpoint reads
    any JSON spelling of the same payload, so version-1 files written in raw
    UTF-8 still load.

    A model without a vocabulary or a normalizer raises UsageError before
    any file is touched, since load_checkpoint refuses such a file."""
    for part in ("vocab", "normalizer"):
        if getattr(model, part) is None:
            raise UsageError(f"cannot save a checkpoint of a model with no {part}")
    path = Path(path)
    head = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab": _vocab_payload(model.vocab),
        "vocab_sha256": vocab_fingerprint(model.vocab),
        "normalizer": {
            "mean": model.normalizer.mean.tolist(),
            "std": model.normalizer.std.tolist(),
        },
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("{")
            for i, key in enumerate(sorted([*head, "params"])):
                fh.write(("," if i else "") + _dumps(key) + ":")
                if key == "params":
                    fh.writelines(_param_chunks(model.params))
                else:
                    fh.write(_dumps(head[key]))
            fh.write("}")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _mismatch(what: str, got, expected) -> DataFormatError:
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    return DataFormatError(f"checkpoint {what} do not match (missing {missing}, extra {extra})")


def _finite_array(value, shape: Tuple[int, ...], what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int past float range
        raise DataFormatError(f"checkpoint {what} is malformed: {exc!r}") from None
    if arr.shape != shape:
        raise DataFormatError(f"checkpoint {what}: shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise DataFormatError(f"checkpoint {what} holds a non-finite value")
    return arr


def _config_from(raw) -> ModelConfig:
    """Every ModelConfig field, each with the type of its default."""
    if not isinstance(raw, dict):
        raise DataFormatError("checkpoint config is not a JSON object")
    defaults = asdict(ModelConfig())
    if set(raw) != set(defaults):
        raise _mismatch("config keys", raw, defaults)
    for key, default in defaults.items():
        if type(raw[key]) is not type(default):
            raise DataFormatError(
                f"checkpoint config {key} must be {type(default).__name__}, got {raw[key]!r}"
            )
    config = ModelConfig(**raw)
    try:
        config.validate()
    except ConfigError as exc:
        raise DataFormatError(f"bad checkpoint config: {exc}") from None
    return config


def _vocab_from(raw, table_rows: int) -> Vocab:
    """Token ids must index rows of the embedding table."""
    if not (
        isinstance(raw, dict)
        and type(raw.get("min_freq")) is int
        and isinstance(raw.get("tokens"), dict)
        and all(type(i) is int and 0 <= i < table_rows for i in raw["tokens"].values())
    ):
        raise DataFormatError(
            f'checkpoint vocab must be {{"min_freq": int, "tokens": {{token: id}}}}'
            f" with ids below vocab_size {table_rows}"
        )
    return Vocab(token_to_id=dict(raw["tokens"]), min_freq=raw["min_freq"])


def _normalizer_from(raw) -> FeatureNormalizer:
    if not isinstance(raw, dict):
        raise DataFormatError("checkpoint normalizer is not a JSON object")
    mean = _finite_array(raw.get("mean"), (N_FEATURES,), "normalizer mean")
    std = _finite_array(raw.get("std"), (N_FEATURES,), "normalizer std")
    if (std <= 0).any():
        raise DataFormatError("checkpoint normalizer std must be > 0")
    return FeatureNormalizer(mean=mean, std=std)


def load_checkpoint(path: Union[str, Path]) -> FusionModel:
    """Read a checkpoint written by save_checkpoint. Any departure from that
    layout, a non-finite number, or a missing vocabulary or normalizer
    (without which no corpus can be featurized) raises DataFormatError here
    rather than at the first forward pass."""
    try:
        payload = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # Invalid UTF-8 or JSON, and valid JSON past the decoder's limits: an
        # integer literal longer than int's digit limit, or nesting deeper
        # than the recursion limit.
        raise DataFormatError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"checkpoint {path} is not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"unsupported checkpoint version {payload.get('version')!r} in {path}"
        )
    config = _config_from(payload.get("config"))
    vocab = _vocab_from(payload.get("vocab"), config.vocab_size)
    if payload.get("vocab_sha256") != vocab_fingerprint(vocab):
        raise DataFormatError(f"checkpoint {path}: vocabulary hash mismatch")
    normalizer = _normalizer_from(payload.get("normalizer"))
    raw_params = payload.get("params")
    if not isinstance(raw_params, dict):
        raise DataFormatError("checkpoint params is not a JSON object")
    # Listing the expected names takes a loop per refinement block, so a
    # block count the params cannot hold is refused before that loop.
    if config.refine_layers > len(raw_params):
        raise DataFormatError(
            f"checkpoint config refine_layers {config.refine_layers} does not match"
            f" its {len(raw_params)} parameters"
        )
    expected = _expected_shapes(config)
    if set(raw_params) != set(expected):
        raise _mismatch("parameters", raw_params, expected)
    params: Dict[str, Tensor] = {}
    for name, (rows, cols) in expected.items():
        entry = raw_params[name]
        if not isinstance(entry, dict) or entry.get("shape") != [rows, cols]:
            raise DataFormatError(
                f"checkpoint param {name} must be an object with shape [{rows}, {cols}]"
            )
        data = _finite_array(entry.get("data"), (rows * cols,), f"param {name}")
        params[name] = Tensor(data.reshape(rows, cols), requires_grad=True)
    return FusionModel(config=config, params=params, vocab=vocab, normalizer=normalizer)
