import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from depfuse import model as model_module
from depfuse.errors import ConfigError, DataFormatError, DimensionError, UsageError
from depfuse.features import FeatureNormalizer
from depfuse.model import (
    CrossAttentionLayer,
    ModelConfig,
    attention_weights,
    cross_attention,
    encode_stats,
    encode_tokens,
    forward,
    init_params,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
    vocab_fingerprint,
)
from depfuse.tensor import tensor
from depfuse.text import CLS, TokenSequence, Vocab
from depfuse.train import cross_entropy_loss


def small_config(**overrides):
    base = dict(
        d1=4, d2=4, d_k=4, refine_layers=0, refine_heads=2, mlp_hidden=4,
        vocab_size=8, max_len=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def sequence(ids, max_len=8):
    padded = tuple(ids) + (0,) * (max_len - len(ids))
    return TokenSequence(ids=padded, true_len=len(ids))


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = small_config(refine_layers=2)
        a = init_params(cfg, seed=11)
        b = init_params(cfg, seed=11)
        assert set(a.params) == set(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        cfg = small_config()
        a = init_params(cfg, seed=1)
        b = init_params(cfg, seed=2)
        assert any(
            not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params
        )

    def test_biases_zero_and_gains_one(self):
        model = init_params(small_config(refine_layers=1), seed=0)
        for name, p in model.params.items():
            short = name.rsplit(".", 1)[-1]
            if short.endswith("_bias") or short in ("ffn_b1", "ffn_b2", "mlp_b1", "mlp_b2"):
                np.testing.assert_array_equal(p.data, 0.0)
            if short.endswith("_gain"):
                np.testing.assert_array_equal(p.data, 1.0)

    def test_default_parameter_census(self):
        V, L, d1, d2, dk, hid = 100, 16, 32, 32, 32, 32
        expected_shared = V * d1 + L * d1 + 2 * 6 * d2 + (d1 * dk + d2 * dk) + (
            dk * hid + hid + hid * 2 + 2
        )
        model = init_params(ModelConfig(vocab_size=V, max_len=L), seed=0)
        shared = sum(p.data.size for p in model.params.values())
        assert shared == expected_shared == 7266
        model = init_params(
            ModelConfig(vocab_size=V, max_len=L, value_projection="separate"), seed=0
        )
        separate = sum(p.data.size for p in model.params.values())
        assert separate == expected_shared + d2 * dk == 8290

    def test_shared_vs_separate_census_delta(self):
        for cfg in (small_config(), small_config(d2=3, d_k=5)):
            model = init_params(cfg, seed=0)
            shared = sum(p.data.size for p in model.params.values())
            model = init_params(
                ModelConfig(**{**cfg.__dict__, "value_projection": "separate"}), seed=0
            )
            sep = sum(p.data.size for p in model.params.values())
            assert sep - shared == cfg.d2 * cfg.d_k

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            init_params(small_config(refine_layers=1, refine_heads=3), seed=0)
        with pytest.raises(ConfigError):
            init_params(small_config(fusion="mean"), seed=0)
        with pytest.raises(ConfigError):
            init_params(small_config(vocab_size=0), seed=0)


class TestEncodeTokens:
    def test_mask_drops_pad_rows(self):
        model = init_params(small_config(), seed=3)
        out, bounds = encode_tokens(model, [sequence([CLS, 4, 5, 6])])
        assert out.shape == (4, 4)
        assert bounds == [0, 4]

    def test_refine_zero_is_embedding_plus_positional(self):
        model = init_params(small_config(), seed=3)
        ids = [CLS, 5, 7]
        out, _ = encode_tokens(model, [sequence(ids)])
        expected = model.params["embedding"].data[ids] + model.params["positional"].data[:3]
        np.testing.assert_array_equal(out.data, expected)

    def test_one_hot_table_fixture(self):
        model = init_params(small_config(vocab_size=4, d1=4), seed=0)
        model.params["embedding"].data = np.eye(4)
        ids = [2, 0, 3]
        out, _ = encode_tokens(model, [sequence(ids)])
        for row, i in enumerate(ids):
            np.testing.assert_array_equal(
                out.data[row], np.eye(4)[i] + model.params["positional"].data[row]
            )

    def test_all_pad_uses_cls_row(self):
        model = init_params(small_config(), seed=3)
        out, _ = encode_tokens(model, [TokenSequence(ids=(0,) * 8, true_len=0)])
        expected = model.params["embedding"].data[CLS] + model.params["positional"].data[0]
        np.testing.assert_array_equal(out.data, expected.reshape(1, -1))

    def test_id_out_of_range(self):
        model = init_params(small_config(vocab_size=6), seed=3)
        with pytest.raises(Exception, match="out of range"):
            encode_tokens(model, [sequence([CLS, 6])])

    def test_batch_stacks_users_with_their_own_positions(self):
        model = init_params(small_config(), seed=3)
        users = [[CLS, 5, 7], [], [CLS, 4, 5, 6, 7, 4, 5, 6]]
        out, bounds = encode_tokens(model, [sequence(ids) for ids in users])
        assert bounds == [0, 3, 4, 12]
        emb, pos = model.params["embedding"].data, model.params["positional"].data
        for ids, start, stop in zip(users, bounds, bounds[1:]):
            rows = ids or [CLS]
            np.testing.assert_array_equal(out.data[start:stop], emb[rows] + pos[: len(rows)])


class TestEncodeStats:
    def test_zero_vector_gives_bias_rows(self):
        model = init_params(small_config(), seed=1)
        out = encode_stats(model, [np.zeros(6)])
        np.testing.assert_array_equal(out.data, model.params["stat_bias"].data)

    def test_feature_independence(self):
        model = init_params(small_config(), seed=1)
        base = encode_stats(model, [np.zeros(6)]).data
        bumped = encode_stats(model, [np.eye(6)[2] * 3.0]).data
        diff_rows = np.nonzero(np.abs(bumped - base).sum(axis=1))[0]
        assert diff_rows.tolist() == [2]

    def test_identity_fixture(self):
        model = init_params(small_config(d2=1), seed=1)
        model.params["stat_scale"].data = np.ones((6, 1))
        model.params["stat_bias"].data = np.zeros((6, 1))
        values = np.array([0.5, -1.0, 2.0, 0.0, 3.25, -0.125])
        out = encode_stats(model, [values, values[::-1]])
        np.testing.assert_array_equal(out.data[:, 0], np.concatenate([values, values[::-1]]))
        with pytest.raises(DimensionError, match="expected 6"):
            encode_stats(model, [values, values[:5]])


def identity_layer(d):
    eye = lambda: tensor(np.eye(d))
    k = eye()
    return CrossAttentionLayer(w_q=eye(), w_k=k, w_v=k, d_k=d)


class TestCrossAttention:
    def test_single_key_value_row(self):
        rng = np.random.default_rng(0)
        layer = identity_layer(3)
        queries = tensor(rng.normal(size=(5, 3)))
        kv = tensor(rng.normal(size=(1, 3)))
        weights = attention_weights(layer, queries, kv)
        np.testing.assert_array_equal(weights.data, np.ones((5, 1)))
        out = cross_attention(layer, queries, kv)
        np.testing.assert_allclose(out.data, np.tile(kv.data, (5, 1)), atol=1e-15)

    def test_identical_rows_give_uniform_weights(self):
        rng = np.random.default_rng(1)
        layer = identity_layer(3)
        queries = tensor(rng.normal(size=(2, 3)))
        kv = tensor(np.tile(rng.normal(size=(1, 3)), (4, 1)))
        weights = attention_weights(layer, queries, kv)
        np.testing.assert_allclose(weights.data, 0.25, atol=1e-15)
        out = cross_attention(layer, queries, kv)
        np.testing.assert_allclose(out.data, np.tile(kv.data[0], (2, 1)), atol=1e-12)

    def test_two_key_oracle_case(self):
        layer = identity_layer(2)
        queries = tensor([[1.0, 0.0]])
        kv = tensor([[1.0, 0.0], [0.0, 1.0]])
        oracle_weights, oracle_out = oracles.attention(
            [[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]],
            [[1, 0], [0, 1]], 2,
        )
        assert oracle_weights[0][0] == pytest.approx(0.6697615493266569, abs=1e-15)
        assert oracle_weights[0][1] == pytest.approx(0.3302384506733431, abs=1e-15)
        weights = attention_weights(layer, queries, kv)
        np.testing.assert_allclose(weights.data, oracle_weights, atol=1e-15)
        out = cross_attention(layer, queries, kv)
        np.testing.assert_allclose(out.data, oracle_out, atol=1e-15)

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        layer = identity_layer(4)
        weights = attention_weights(
            layer, tensor(rng.normal(size=(6, 4))), tensor(rng.normal(size=(3, 4)))
        ).data
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert (weights > 0).all() and (weights <= 1).all()


class TestMlp:
    def model(self, outer_relu, b2=(0.0, 0.0)):
        # concat fusion with d1 = d2 = 1 feeds the head a width-2 input.
        config = small_config(fusion="concat", d1=1, d2=1, mlp_hidden=2, outer_relu=outer_relu)
        model = init_params(config, seed=0)
        model.params.update(
            mlp_w1=tensor(np.eye(2)),
            mlp_b1=tensor(np.zeros((1, 2))),
            mlp_w2=tensor(np.eye(2)),
            mlp_b2=tensor(np.array([b2])),
        )
        return model

    def test_identity_weights(self):
        x = tensor([[-1.0, 2.0]])
        np.testing.assert_array_equal(mlp_forward(self.model(True), x).data, [[0.0, 2.0]])
        np.testing.assert_array_equal(mlp_forward(self.model(False), x).data, [[0.0, 2.0]])

    def test_outer_relu_flag_effect(self):
        x = tensor([[0.0, 0.0]])
        b2 = (-1.0, 1.0)
        np.testing.assert_array_equal(mlp_forward(self.model(True, b2), x).data, [[0.0, 1.0]])
        np.testing.assert_array_equal(mlp_forward(self.model(False, b2), x).data, [[-1.0, 1.0]])


class TestForward:
    def test_concat_with_zeroed_stat_embedder_ignores_stats(self):
        model = init_params(small_config(fusion="concat"), seed=5)
        model.params["stat_scale"].data = np.zeros((6, 4))
        model.params["stat_bias"].data = np.zeros((6, 4))
        seq = sequence([CLS, 4, 5])
        a = forward(model, [(seq, np.zeros(6))])
        b = forward(model, [(seq, np.array([3.0, -2.0, 1.0, 0.5, -4.0, 2.0]))])
        np.testing.assert_array_equal(a.data, b.data)

    def test_identical_users_identical_rows(self):
        model = init_params(small_config(), seed=5)
        seq = sequence([CLS, 4, 5, 6])
        stats = np.linspace(-1, 1, 6)
        logits = forward(model, [(seq, stats)] * 3)
        assert logits.shape == (3, 2)
        for row in range(1, 3):
            np.testing.assert_array_equal(logits.data[row], logits.data[0])

    def test_tiny_fixture_matches_loop_oracle(self):
        model = init_params(small_config(), seed=9)
        ids = [CLS, 4, 6, 7]
        stats = np.array([0.3, -1.2, 0.8, 0.0, 2.0, -0.5])
        got = forward(model, [(sequence(ids), stats)]).data
        arrays = {name: p.data.tolist() for name, p in model.params.items()}
        want = oracles.fusion_forward(arrays, ids, stats.tolist())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_stats_query_fused_width(self):
        model = init_params(small_config(fusion_query="stats"), seed=5)
        logits = forward(model, [(sequence([CLS, 4]), np.zeros(6))])
        assert logits.shape == (1, 2)
        assert model.params["mlp_w1"].shape == (6 * 4, 4)

    def test_stat_row_permutation_equivariance(self):
        model = init_params(small_config(), seed=6)
        perm = [3, 0, 5, 1, 4, 2]
        stats = np.array([0.5, -1.0, 2.0, 0.25, -0.75, 1.5])
        seq = sequence([CLS, 4, 5])
        base = forward(model, [(seq, stats)]).data
        model.params["stat_scale"].data = model.params["stat_scale"].data[perm]
        model.params["stat_bias"].data = model.params["stat_bias"].data[perm]
        permuted = forward(model, [(seq, stats[perm])]).data
        np.testing.assert_allclose(base, permuted, atol=1e-12)


def graph_size(loss):
    """Nodes reachable from the loss's node through recorded parents."""
    seen, stack = set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


# One of each model variant the stacked forward must keep users apart in.
BATCH_VARIANTS = [
    dict(),
    dict(fusion="concat"),
    dict(value_projection="separate"),
    dict(refine_layers=2),
    dict(refine_layers=2, fusion="concat", value_projection="separate"),
    dict(fusion_query="stats"),
    dict(fusion_query="stats", value_projection="separate", refine_layers=2),
]


class TestOneGraphPerBatch:
    # The id suffix names the input: a batch of token sequences.
    @pytest.mark.parametrize(
        "overrides", BATCH_VARIANTS,
        ids=[f"overrides{i}-tokens" for i in range(len(BATCH_VARIANTS))],
    )
    def test_user_in_batch_matches_user_alone(self, overrides):
        model = init_params(small_config(**overrides), seed=17)
        rng = np.random.default_rng(17)
        # true_len 0 falls back to the CLS row alone; 8 is max_len.
        lengths = [0, 8, 3, 1, 5]
        items = [sequence([CLS] + rng.integers(4, 8, size=n - 1).tolist() if n else [])
                 for n in lengths]
        batch = [(item, rng.normal(size=6)) for item in items]
        labels = [0, 1, 1, 0, 1]

        def logits_and_grads(examples, targets):
            model.zero_grad()
            logits = forward(model, examples)
            cross_entropy_loss(logits, targets).backward()
            return logits.data, {n: p.grad for n, p in model.params.items()}

        logits, grads = logits_and_grads(batch, labels)
        alone = [logits_and_grads([example], [label]) for example, label in zip(batch, labels)]
        np.testing.assert_allclose(logits, np.vstack([a[0] for a in alone]), rtol=0, atol=1e-12)
        for name, grad in grads.items():
            solo = [a[1][name] for a in alone]
            # The batch loss is the mean of the users' losses.
            np.testing.assert_allclose(grad, sum(solo) / len(solo), rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("overrides", [BATCH_VARIANTS[0], BATCH_VARIANTS[-1]])
    def test_graph_size_does_not_grow_with_the_batch(self, overrides):
        model = init_params(small_config(**overrides), seed=4)
        rng = np.random.default_rng(4)

        def size(users):
            batch = [(sequence([CLS, 4, 5, 6][: 1 + i % 4]), rng.normal(size=6))
                     for i in range(users)]
            loss = cross_entropy_loss(forward(model, batch), [i % 2 for i in range(users)])
            return graph_size(loss)

        assert size(8) == size(1)


def refine_batch():
    """Eight users of 256 tokens for a model with two 4-head refinement
    blocks, and their labels."""
    model = init_params(ModelConfig(refine_layers=2, vocab_size=100), seed=3)
    rng = np.random.default_rng(3)
    batch = [(sequence(rng.integers(4, 100, size=256).tolist(), 256), rng.normal(size=6))
             for _ in range(8)]
    return model, batch, [i % 2 for i in range(8)]


def test_refine_graph_memory_after_forward_and_backward():
    # Keeping every L x L probability matrix and every interior gradient held
    # 64 MiB after forward and 90 MiB after backward; without them it is
    # about 32.
    model, batch, labels = refine_batch()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy_loss(forward(model, batch), labels)
        after_forward = tracemalloc.get_traced_memory()[0] - before
        loss.backward()
        after_backward = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    mib = 1 << 20
    assert after_forward < 44 * mib, after_forward / mib
    assert after_backward < 44 * mib, after_backward / mib


def test_refine_spent_graph_holds_only_the_leaf_gradients():
    # With the root still bound, a graph that kept its closures' arrays after
    # backward held 14.3 MiB here; released node by node, only the
    # parameters' gradients (about 0.3 MiB) are left.
    model, batch, labels = refine_batch()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy_loss(forward(model, batch), labels)
        loss.backward()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert held < 2 * (1 << 20), held / (1 << 20)


def refine_step_peak(model, batch, labels):
    """Traced peak of a forward run while the previous step's spent graph is
    still bound, as it is in train.train, above the memory before that step."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spent = cross_entropy_loss(forward(model, batch), labels)
        spent.backward()
        model.zero_grad()
        tracemalloc.reset_peak()
        loss = cross_entropy_loss(forward(model, batch), labels)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert spent.requires_grad and loss.requires_grad
    return peak


def test_refine_step_peak_with_the_spent_graph_alive():
    # train.train keeps the previous step's spent graph bound while the next
    # forward runs. Nodes that held their op outputs peaked at 64 MiB here;
    # with each node holding only what its backward reads, about 32.
    peak = refine_step_peak(*refine_batch())
    assert peak < 40 * (1 << 20), peak / (1 << 20)


def test_refine_step_peak_with_a_released_spent_graph():
    # A spent graph that kept its closures' arrays added 14 MiB to the next
    # forward's peak (31.5 MiB); released during backward, it adds nothing.
    peak = refine_step_peak(*refine_batch())
    assert peak < 24 * (1 << 20), peak / (1 << 20)


NORMALIZER = FeatureNormalizer(mean=np.linspace(0, 1, 6), std=np.linspace(1, 2, 6))


def test_checkpoint_save_memory_is_bounded_by_a_block(tmp_path):
    # A 25,000 x 32 embedding is 6.1 MiB of float64 and 18 MB of JSON text.
    # Building the whole file in memory, as a list of Python floats, a string
    # and then its bytes, peaked at 109 MiB; streamed it is about 5 MiB.
    tokens = {f"w{i:05d}": i for i in range(4, 24_999)}
    tokens["很"] = 24_999
    vocab = Vocab(token_to_id=tokens, min_freq=1)
    model = init_params(
        ModelConfig(vocab_size=25_000), seed=3, vocab=vocab, normalizer=NORMALIZER
    )
    tracemalloc.start()
    try:
        save_checkpoint(model, tmp_path / "big.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * (1 << 20), peak / (1 << 20)


class TestFullModelGradients:
    @pytest.mark.parametrize("fusion", ["cross_attention", "concat"])
    @pytest.mark.parametrize("value_projection", ["shared_with_key", "separate"])
    def test_loss_gradient_matches_finite_differences(self, fusion, value_projection):
        cfg = small_config(fusion=fusion, value_projection=value_projection)
        model = init_params(cfg, seed=21)
        rng = np.random.default_rng(21)
        batch = [
            (sequence([CLS, 4, 5, 6]), rng.normal(size=6)),
            (sequence([CLS, 7]), rng.normal(size=6)),
        ]
        labels = [0, 1]

        loss = cross_entropy_loss(forward(model, batch), labels)
        loss.backward()

        def loss_value():
            return cross_entropy_loss(forward(model, batch), labels).item()

        h = 1e-5
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            grad = p.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                err = abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-4)
                assert err <= 1e-4, f"{name}[{i}]"


def checkpoint_payload(model):
    """The whole checkpoint as one JSON value, built at once: the reference
    that the streamed file is compared against."""
    return {
        "version": 1,
        "config": asdict(model.config),
        "vocab": {"min_freq": model.vocab.min_freq, "tokens": model.vocab.token_to_id},
        "vocab_sha256": vocab_fingerprint(model.vocab),
        "normalizer": {
            "mean": model.normalizer.mean.tolist(),
            "std": model.normalizer.std.tolist(),
        },
        "params": {
            name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in model.params.items()
        },
    }


# A CJK character, a Greek word and a character outside the BMP, which JSON
# escapes as a surrogate pair.
MIXED_SCRIPT_VOCAB = Vocab(token_to_id={"hello": 4, "很": 5, "λόγος": 6, "𝄞": 7}, min_freq=1)


class TestCheckpoint:
    def build(self, tmp_path, vocab=None, **overrides):
        vocab = vocab or Vocab(token_to_id={"hello": 4, "很": 5}, min_freq=1)
        model = init_params(
            small_config(**overrides), seed=13, vocab=vocab, normalizer=NORMALIZER
        )
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        return model, path

    def assert_same_params(self, loaded, model):
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        for name in model.params:
            assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"refine_layers": 2},
            {"fusion_query": "stats", "value_projection": "separate", "outer_relu": True},
            {"fusion": "concat"},
        ],
    )
    def test_streamed_bytes_match_one_shot_ascii_json(self, tmp_path, overrides):
        block = model_module._CHECKPOINT_BLOCK
        vocab_size = block // 4 + 3  # d1 = 4: more than one block, not a multiple
        assert vocab_size * 4 > block and vocab_size * 4 % block
        model, path = self.build(
            tmp_path, vocab=MIXED_SCRIPT_VOCAB, vocab_size=vocab_size, **overrides
        )
        reference = json.dumps(checkpoint_payload(model), sort_keys=True, separators=(",", ":"))
        assert path.read_bytes() == reference.encode("ascii")
        self.assert_same_params(load_checkpoint(path), model)

    def test_raw_utf8_checkpoint_still_loads(self, tmp_path):
        model, path = self.build(tmp_path, vocab=MIXED_SCRIPT_VOCAB)
        raw = json.dumps(
            checkpoint_payload(model), sort_keys=True, ensure_ascii=False, separators=(",", ":")
        )
        path.write_bytes(raw.encode("utf-8"))
        self.assert_same_params(load_checkpoint(path), model)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_save_leaves_previous_checkpoint(self, tmp_path, monkeypatch, error):
        _, path = self.build(tmp_path)
        before = path.read_bytes()
        other = init_params(
            small_config(), seed=14, vocab=MIXED_SCRIPT_VOCAB, normalizer=NORMALIZER
        )
        original = model_module._format_block
        blocks = []

        def failing(values):
            if blocks:
                raise error("stopped mid-save")
            blocks.append(values)
            return original(values)

        monkeypatch.setattr(model_module, "_format_block", failing)
        with pytest.raises(error):
            save_checkpoint(other, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    @pytest.mark.parametrize("missing", ["vocab", "normalizer"])
    def test_save_without_vocab_or_normalizer_raises_and_writes_nothing(
        self, tmp_path, missing
    ):
        parts = {"vocab": MIXED_SCRIPT_VOCAB, "normalizer": NORMALIZER, missing: None}
        model = init_params(small_config(), seed=13, **parts)
        with pytest.raises(UsageError, match=f"no {missing}"):
            save_checkpoint(model, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_bit_identical(self, tmp_path):
        model, path = self.build(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        np.testing.assert_array_equal(loaded.normalizer.mean, model.normalizer.mean)
        np.testing.assert_array_equal(loaded.normalizer.std, model.normalizer.std)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
        seq = sequence([CLS, 4, 5])
        stats = np.linspace(-1, 1, 6)
        np.testing.assert_array_equal(
            forward(model, [(seq, stats)]).data, forward(loaded, [(seq, stats)]).data
        )

    def test_save_is_deterministic(self, tmp_path):
        model, path = self.build(tmp_path)
        other = tmp_path / "again.json"
        save_checkpoint(model, other)
        assert path.read_bytes() == other.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, path = self.build(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_config_param_shape_mismatch(self, tmp_path):
        _, path = self.build(tmp_path)
        payload = json.loads(path.read_text())
        payload["config"]["d1"] = 16
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="shape|match"):
            load_checkpoint(path)
        payload["config"]["d1"] = small_config().d1
        for entry in ([1, 2], "x", {"shape": 3, "data": []}, {"shape": [1, 2], "data": ["a", 1]},
                      {"shape": [1, 2], "data": [10**400, 1]}):
            payload["params"]["mlp_b2"] = entry
            path.write_text(json.dumps(payload))
            with pytest.raises(DataFormatError, match="mlp_b2"):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "part, key, value",
        [
            ("vocab", None, [1]),
            ("vocab", "min_freq", "1"),
            ("normalizer", None, [1]),
            ("normalizer", "std", [1.0] * 5),
            ("normalizer", "std", [0.0] * 6),
            ("params", None, 5),
            ("config", None, [1]),
            ("config", "d1", "8"),
            ("config", "outer_relu", 0),
            ("config", "d_k", 0),
            ("config", "max_len", None),
            ("vocab", None, None),
            ("normalizer", None, None),
        ],
    )
    def test_malformed_part_rejected_at_load(self, tmp_path, part, key, value):
        _, path = self.build(tmp_path)
        payload = json.loads(path.read_text())
        if key is None:
            payload[part] = value
        elif value is None:
            del payload[part][key]
        else:
            payload[part][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=part.rstrip("s")):
            load_checkpoint(path)

    def test_block_count_past_the_params_rejected_before_listing_them(self, tmp_path, monkeypatch):
        # Listing the expected names of 10**12 refinement blocks would not
        # end; the params, which cannot hold that many, refuse it first.
        _, path = self.build(tmp_path)
        payload = json.loads(path.read_text())
        payload["config"]["refine_layers"] = 10**12
        path.write_text(json.dumps(payload))

        def listing(config):
            raise AssertionError(f"listed the names of {config.refine_layers} blocks")

        monkeypatch.setattr(model_module, "_expected_shapes", listing)
        with pytest.raises(DataFormatError, match="refine_layers"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_rejected_at_load(self, tmp_path, bad):
        _, path = self.build(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["mlp_w1"]["data"][3] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="mlp_w1.*non-finite"):
            load_checkpoint(path)
        payload = json.loads(path.read_text())
        payload["params"]["mlp_w1"]["data"][3] = 0.0
        payload["normalizer"]["mean"][0] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="normalizer mean.*non-finite"):
            load_checkpoint(path)

    def test_vocab_ids_must_index_the_embedding_table(self, tmp_path):
        _, path = self.build(tmp_path)
        payload = json.loads(path.read_text())
        vocab = Vocab(token_to_id={"hello": 4, "很": 8}, min_freq=1)
        payload["vocab"]["tokens"] = vocab.token_to_id
        payload["vocab_sha256"] = vocab_fingerprint(vocab)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="below vocab_size 8"):
            load_checkpoint(path)

    def test_vocab_hash_guard(self, tmp_path):
        _, path = self.build(tmp_path)
        payload = json.loads(path.read_text())
        payload["vocab"]["tokens"]["hello"] = 5
        payload["vocab"]["tokens"]["很"] = 4
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="hash"):
            load_checkpoint(path)

    def test_version_guard(self, tmp_path):
        _, path = self.build(tmp_path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)
        for text in ("[1, 2]", "7", "null"):
            path.write_text(text)
            with pytest.raises(DataFormatError, match="not a JSON object"):
                load_checkpoint(path)


JSON_VALUES = st.recursive(
    # Integers past float range as well: they parse, but not as float64.
    st.none() | st.booleans() | st.integers() | st.integers(10**308, 10**310) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _slots(value, out):
    """(container, key) of every dict entry and of each list's first item."""
    if isinstance(value, dict):
        for key, item in value.items():
            out.append((value, key))
            _slots(item, out)
    elif isinstance(value, list) and value:
        out.append((value, 0))
        _slots(value[0], out)
    return out


@st.composite
def mutated_checkpoints(draw, original: bytes) -> bytes:
    """A valid checkpoint with bytes flipped, cut short, or one key dropped,
    given a value of another JSON type, or nested inside lists and objects."""
    kind = draw(st.sampled_from(["flip", "truncate", "drop", "retype", "nest"]))
    if kind == "flip":
        data = bytearray(original)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    if kind == "truncate":
        return original[: draw(st.integers(0, len(original) - 1))]
    payload = json.loads(original)
    container, key = draw(st.sampled_from(_slots(payload, [])))
    if kind == "drop":
        del container[key]
    elif kind == "retype":
        container[key] = draw(JSON_VALUES)
    else:
        for wrap in draw(st.lists(st.sampled_from(["list", "object"]), min_size=1, max_size=40)):
            container[key] = [container[key]] if wrap == "list" else {"x": container[key]}
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    _, path = TestCheckpoint().build(
        tmp_path_factory.mktemp("fuzz"), vocab=MIXED_SCRIPT_VOCAB, refine_layers=1
    )
    return path


def test_fuzzed_checkpoint_loads_or_raises_data_format_error(valid_checkpoint):
    original = valid_checkpoint.read_bytes()
    path = valid_checkpoint.with_name("mutated.json")

    @given(mutated_checkpoints(original))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def check(data):
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except DataFormatError:
            pass

    check()
