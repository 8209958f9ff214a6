import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from depfuse import pipeline
from depfuse.errors import ConfigError, UsageError
from depfuse.features import (
    apply_normalizer,
    default_scorer,
    extract_features,
    fit_normalizer,
    stat_features,
)
from depfuse.model import ModelConfig, forward, init_params
from depfuse.synth import SynthDatasetSpec, generate_dataset
from depfuse.tensor import Tensor, gather_rows, mul, sum_all, tensor
from depfuse.text import build_vocab
from depfuse.train import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    evaluate,
    history_to_csv,
    predict_logits,
    predictions_from_logits,
    prepare_examples,
    probability_depressed,
    train,
)


class TestCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        for label in (0, 1):
            loss = cross_entropy_loss(tensor([[0.0, 0.0]]), [label])
            assert loss.item() == pytest.approx(math.log(2.0), abs=1e-15)

    def test_extreme_logits_stable(self):
        loss = cross_entropy_loss(tensor([[1000.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)
        loss = cross_entropy_loss(tensor([[1000.0, 0.0]]), [1])
        assert loss.item() == pytest.approx(1000.0, rel=1e-12)

    def test_batch_mean_matches_row_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(scale=3.0, size=(7, 2))
        labels = list(rng.integers(0, 2, size=7))
        _, want = oracles.cross_entropy_rows(logits.tolist(), labels)
        got = cross_entropy_loss(tensor(logits), labels).item()
        assert got == pytest.approx(want, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(UsageError):
            cross_entropy_loss(tensor([[0.0, 1.0]]), [2])
        with pytest.raises(UsageError):
            cross_entropy_loss(tensor([[0.0, 1.0]]), [0, 1])

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor([[2.0, -1.0], [0.5, 0.5]], requires_grad=True)
        loss = cross_entropy_loss(logits, [0, 1])
        loss.backward()
        z = logits.data
        soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        soft[0, 0] -= 1.0
        soft[1, 1] -= 1.0
        np.testing.assert_allclose(logits.grad, soft / 2.0, atol=1e-12)

    @given(
        st.lists(st.tuples(st.floats(-30, 30), st.floats(-30, 30)), min_size=1, max_size=6),
        st.floats(-50, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_per_row_shift_invariance(self, rows, shift):
        labels = [i % 2 for i in range(len(rows))]
        base = cross_entropy_loss(tensor(rows), labels).item()
        shifted = cross_entropy_loss(
            tensor([[a + shift, b + shift] for a, b in rows]), labels
        ).item()
        assert shifted == pytest.approx(base, abs=1e-12)


def scalar_param(value):
    return {"p": Tensor([[value]], requires_grad=True)}


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = scalar_param(0.7)
        params["p"].grad = np.zeros((1, 1))
        state = AdamState.for_params(params)
        adam_step(params, state, TrainConfig(learning_rate=0.1))
        assert params["p"].data[0, 0] == 0.7

    def test_first_step_closed_form(self):
        params = scalar_param(0.0)
        params["p"].grad = np.ones((1, 1))
        state = AdamState.for_params(params)
        adam_step(params, state, TrainConfig(learning_rate=0.1))
        want = oracles.adam_trace(0.0, [1.0], lr=0.1)[0]
        assert want == pytest.approx(-0.1 / (1.0 + 1e-8), abs=1e-15)
        assert params["p"].data[0, 0] == pytest.approx(want, abs=1e-15)

    def test_two_steps_match_trace(self):
        params = scalar_param(0.0)
        state = AdamState.for_params(params)
        config = TrainConfig(learning_rate=0.1)
        got = []
        for _ in range(2):
            params["p"].grad = np.ones((1, 1))
            adam_step(params, state, config)
            got.append(params["p"].data[0, 0])
        want = oracles.adam_trace(0.0, [1.0, 1.0], lr=0.1)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert state.t == 2

    def test_missing_grad_rejected(self):
        params = scalar_param(0.0)
        state = AdamState.for_params(params)
        with pytest.raises(UsageError, match="no gradient"):
            adam_step(params, state, TrainConfig())
        assert state.t == 0

    def test_zero_lr_is_bit_exact_identity(self):
        # train() validates lr > 0, but the raw update with lr = 0 must be a
        # no-op regardless of gradients or step count.
        rng = np.random.default_rng(3)
        params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True)}
        snapshot = params["w"].data.copy()
        state = AdamState.for_params(params)
        config = TrainConfig(learning_rate=0.0)
        for _ in range(5):
            params["w"].grad = rng.normal(size=(3, 4))
            adam_step(params, state, config)
        np.testing.assert_array_equal(params["w"].data, snapshot)

    def test_in_place_step_equals_out_of_place_formula_bitwise(self):
        rng = np.random.default_rng(17)
        shapes = {"table": (4700, 7), "row": (1, 7)}
        # The table spans two of the update's row blocks.
        assert 4700 * 7 > importlib.import_module("depfuse.train")._ADAM_BLOCK
        params = {
            name: Tensor(rng.normal(size=shape), requires_grad=True)
            for name, shape in shapes.items()
        }
        want = {
            name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
            for name, p in params.items()
        }
        state = AdamState.for_params(params)
        config = TrainConfig(learning_rate=3e-3)
        for t in range(1, 6):
            for name, p in params.items():
                # Zero rows, as the embedding gradient has, and wide magnitudes.
                g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3, size=p.shape)
                g[rng.random(size=p.shape[0]) < 0.5] = 0.0
                p.grad = g
                want[name] = oracles.adam_out_of_place(*want[name], g, t, lr=3e-3)
            adam_step(params, state, config)
            for name, p in params.items():
                got = (p.data, state.m[name], state.v[name])
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want[name]]

    def test_lr_cannot_be_zero_in_training(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0).validate()


def gather_backward(table, ids, weights):
    """Real gather_rows backward: table's gradient gains weights[i] on row
    ids[i], summed per distinct id."""
    out = gather_rows(table, ids)
    sum_all(mul(out, tensor(weights))).backward()


def dense_backward(table, weights):
    """A dense gradient through an op on the whole table."""
    sum_all(mul(table, tensor(weights))).backward()


class RowSparseAdam:
    """One table stepped by adam_step next to the out-of-place oracle fed the
    table's dense gradient, compared bit for bit after every step."""

    def __init__(self, data):
        self.params = {"table": Tensor(data, requires_grad=True)}
        self.state = AdamState.for_params(self.params)
        self.want = (data.copy(), np.zeros(data.shape), np.zeros(data.shape))

    @property
    def table(self):
        return self.params["table"]

    def step(self, lr=3e-3):
        self.want = oracles.adam_out_of_place(
            *self.want, self.table.grad.copy(), self.state.t + 1, lr=lr
        )
        adam_step(self.params, self.state, TrainConfig(learning_rate=lr))
        got = (self.table.data, self.state.m["table"], self.state.v["table"])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in self.want]
        self.table.zero_grad()
        assert self.table.grad is None and self.table.grad_rows is None


class TestRowSparseAdam:
    def test_steps_equal_out_of_place_formula_bitwise(self):
        rng = np.random.default_rng(23)
        shape = (2100, 32)  # three of the update's row blocks
        assert 2 * importlib.import_module("depfuse.train")._ADAM_BLOCK < shape[0] * shape[1]
        run = RowSparseAdam(rng.normal(size=shape))
        table = run.table

        def weights(n):
            return rng.normal(size=(n, shape[1])) * 10.0 ** rng.integers(-6, 3, size=(n, 1))

        # A repeated id, rows in two blocks, and row 2050, which no later
        # step touches while its moments decay.
        gather_backward(table, [5, 5, 1030, 7, 2050], weights(5))
        assert table.grad_rows.tolist() == [5, 7, 1030, 2050]
        run.step()
        # Two gathers on one table take the union of their rows.
        gather_backward(table, [7, 9, 1500], weights(3))
        gather_backward(table, [1500, 40, 7], weights(3))
        assert table.grad_rows.tolist() == [7, 9, 40, 1500]
        run.step()
        # A dense gradient after a gather makes the whole table dense.
        gather_backward(table, [3, 900], weights(2))
        dense_backward(table, weights(shape[0]))
        assert table.grad_rows is None
        run.step()
        # A gather after a dense gradient leaves it dense.
        dense_backward(table, weights(shape[0]))
        gather_backward(table, [11], weights(1))
        assert table.grad_rows is None
        run.step()
        # Setting grad makes it dense, whatever the gathers listed.
        gather_backward(table, [12, 13], weights(2))
        assert table.grad_rows is not None
        table.grad = weights(shape[0])
        assert table.grad_rows is None
        run.step()
        # After zero_grad (in step()) a gather lists only its own rows. Row
        # 2050 stays untouched for these three steps while its moments,
        # nonzero since the dense steps, decay and still move the row.
        for ids in ([0, 2099, 0], [1024, 1023], [600]):
            before = table.data[2050].copy()
            gather_backward(table, ids, weights(len(ids)))
            assert table.grad_rows.tolist() == sorted(set(ids))
            run.step()
            assert (table.data[2050] != before).all()
        assert run.state.t == 8

    def test_every_row_touched_stays_exact(self):
        rng = np.random.default_rng(4)
        run = RowSparseAdam(rng.normal(size=(6, 3)))
        for _ in range(5):
            ids = list(rng.permutation(6)) + [2]
            gather_backward(run.table, ids, rng.normal(size=(7, 3)))
            assert run.table.grad_rows.size == 6
            run.step()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["gather", "two_gathers", "gather_then_set"]),
                st.lists(st.integers(0, 10), min_size=1, max_size=5),
                st.lists(st.integers(0, 10), min_size=1, max_size=5),
                st.lists(
                    st.one_of(
                        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]),
                        st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
                    ),
                    min_size=33,
                    max_size=33,
                ),
            ),
            min_size=5,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_signed_zero_and_subnormal_gradients_stay_exact(self, steps):
        # Two rows per update block, so an 11 x 3 table spans six blocks.
        with mock.patch.object(importlib.import_module("depfuse.train"), "_ADAM_BLOCK", 6):
            run = RowSparseAdam(np.linspace(-1.0, 1.0, 33).reshape(11, 3))
            for kind, first, second, values in steps:
                pool = np.array(values)
                gather_backward(run.table, first, pool[: len(first) * 3].reshape(-1, 3))
                if kind == "two_gathers":
                    gather_backward(run.table, second, pool[-len(second) * 3 :].reshape(-1, 3))
                    assert run.table.grad_rows.tolist() == sorted(set(first) | set(second))
                elif kind == "gather_then_set":
                    run.table.grad = pool.reshape(11, 3)
                run.step()


def tiny_dataset(n_per_class=8, seed=1, max_len=32):
    records = generate_dataset(SynthDatasetSpec(n_per_class=n_per_class, seed=seed))
    scorer = default_scorer()
    vocab = build_vocab(records)
    normalizer = fit_normalizer([extract_features(r, scorer) for r in records])
    examples = prepare_examples(records, vocab, normalizer, scorer, max_len=max_len)
    val = examples[: len(examples) // 4]
    tr = examples[len(examples) // 4 :]
    return vocab, normalizer, tr, val


def tiny_model(vocab, normalizer, seed=0, **overrides):
    cfg = dict(d1=8, d2=8, d_k=8, mlp_hidden=8, vocab_size=len(vocab), max_len=32)
    cfg.update(overrides)
    return init_params(ModelConfig(**cfg), seed=seed, vocab=vocab, normalizer=normalizer)


class TestSingleStepDescent:
    @pytest.mark.parametrize("seed", range(20))
    def test_one_step_strictly_decreases_single_sample_loss(self, seed):
        vocab, normalizer, tr, _ = tiny_dataset(n_per_class=2, seed=seed)
        model = tiny_model(vocab, normalizer, seed=seed)
        example = tr[seed % len(tr)]
        batch = [(example.tokens, example.stats)]
        labels = [example.label]
        before = cross_entropy_loss(forward(model, batch), labels)
        state = AdamState.for_params(model.params)
        before_value = before.item()
        before.backward()
        adam_step(model.params, state, TrainConfig(learning_rate=1e-5))
        model.zero_grad()
        after_value = cross_entropy_loss(forward(model, batch), labels).item()
        assert after_value < before_value


class TestTrainLoop:
    def test_zero_epochs_returns_untouched_model(self):
        vocab, normalizer, tr, val = tiny_dataset()
        model = tiny_model(vocab, normalizer)
        snapshot = model.copy_params()
        out, history = train(model, tr, val, TrainConfig(epochs=0))
        assert history.epochs == []
        for name in snapshot:
            np.testing.assert_array_equal(out.params[name].data, snapshot[name])

    def test_empty_train_set_rejected(self):
        vocab, normalizer, _, val = tiny_dataset()
        model = tiny_model(vocab, normalizer)
        with pytest.raises(ConfigError):
            train(model, [], val, TrainConfig(epochs=1))

    def test_same_seed_identical_history_and_params(self):
        vocab, normalizer, tr, val = tiny_dataset()
        config = TrainConfig(epochs=3, seed=17, batch_size=4)
        model_a, hist_a = train(tiny_model(vocab, normalizer), tr, val, config)
        model_b, hist_b = train(tiny_model(vocab, normalizer), tr, val, config)
        # seconds is wall-clock; every recorded quantity must match exactly
        assert history_to_csv(hist_a) == history_to_csv(hist_b)
        for name in model_a.params:
            np.testing.assert_array_equal(
                model_a.params[name].data, model_b.params[name].data
            )

    def test_adam_with_lr_epsilon_only_moves(self):
        # lr=0 is rejected by config validation; the no-op case is grads=0,
        # covered in TestAdam. Here: training runs and records one row/epoch.
        vocab, normalizer, tr, val = tiny_dataset()
        _, history = train(
            tiny_model(vocab, normalizer), tr, val, TrainConfig(epochs=2, seed=3)
        )
        assert [e.epoch for e in history.epochs] == [1, 2]

    def test_early_stop_returns_best_checkpoint(self):
        vocab, normalizer, tr, val = tiny_dataset(n_per_class=10)
        config = TrainConfig(epochs=6, seed=5, early_stop_patience=6)
        model, history = train(tiny_model(vocab, normalizer), tr, val, config)
        best = max(e.val_accuracy for e in history.epochs)
        assert evaluate(model, val).accuracy == pytest.approx(best)

    def test_kept_report_is_that_of_the_restored_epoch(self):
        vocab, normalizer, tr, val = tiny_dataset(n_per_class=10)
        config = TrainConfig(epochs=5, seed=2, early_stop_patience=5, learning_rate=3e-2)
        model, history = train(tiny_model(vocab, normalizer, seed=2), tr, val, config)
        # The best epoch is an earlier one, and the last epoch scored worse.
        assert history.epochs[-1].val_accuracy < history.report.accuracy
        assert history.report == evaluate(model, val)

    def test_pipeline_scores_validation_only_in_training(self, monkeypatch):
        records = generate_dataset(SynthDatasetSpec(n_per_class=4, seed=3))
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        for module in ("depfuse.pipeline", "depfuse.train"):
            monkeypatch.setattr(importlib.import_module(module), "evaluate", counting)
        for epochs in (0, 2):
            calls.clear()
            pipeline.train_from_records(
                records, pipeline.RunConfig(epochs=epochs, max_len=16, d1=4)
            )
            assert len(calls) == max(epochs, 1)


class TestEvaluate:
    def constant_class_one_model(self, vocab, normalizer):
        model = tiny_model(vocab, normalizer)
        model.params["mlp_w2"].data = np.zeros_like(model.params["mlp_w2"].data)
        model.params["mlp_b2"].data = np.array([[0.0, 5.0]])
        return model

    def test_degenerate_predictor_metrics(self):
        vocab, normalizer, tr, val = tiny_dataset(n_per_class=8)
        examples = tr + val
        balanced = [e for e in examples if e.label == 0][:6] + [
            e for e in examples if e.label == 1
        ][:6]
        model = self.constant_class_one_model(vocab, normalizer)
        report = evaluate(model, balanced)
        assert report.accuracy == pytest.approx(0.5)
        assert report.recall == 1.0
        assert report.precision == pytest.approx(0.5)

    def test_empty_dataset_errors(self):
        vocab, normalizer, _, _ = tiny_dataset()
        model = tiny_model(vocab, normalizer)
        with pytest.raises(UsageError):
            evaluate(model, [])

    def test_evaluate_is_pure(self):
        vocab, normalizer, tr, val = tiny_dataset()
        model = tiny_model(vocab, normalizer)
        first = evaluate(model, val)
        second = evaluate(model, val)
        assert first == second

    def test_scoring_records_no_graph(self, monkeypatch):
        vocab, normalizer, tr, val = tiny_dataset(n_per_class=4)
        model = tiny_model(vocab, normalizer, refine_layers=2, refine_heads=2)
        batch = [(e.tokens, e.stats) for e in tr + val]
        want = forward(model, batch).data
        seen = []

        def recording_forward(m, b):
            logits = forward(m, b)
            seen.append(logits)
            return logits

        # The package re-exports the train() function under the module's name.
        train_module = importlib.import_module("depfuse.train")
        monkeypatch.setattr(train_module, "forward", recording_forward)
        got = predict_logits(model, tr + val)
        assert seen
        for logits in seen:
            assert not logits.requires_grad
            assert logits._node is None
        assert all(p.grad is None for p in model.params.values())
        assert got.tobytes() == want.tobytes()

    def test_probability_and_tie_breaking(self):
        logits = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        probs = probability_depressed(logits)
        assert probs[0] == pytest.approx(0.5)
        assert (probs >= 0).all() and (probs <= 1).all()
        assert predictions_from_logits(logits) == [0, 1, 0]


class TestPrepareExamples:
    def test_stats_match_extract_features(self):
        records = generate_dataset(SynthDatasetSpec(n_per_class=3, seed=4))
        scorer = default_scorer()
        vocab = build_vocab(records)
        vectors = [extract_features(r, scorer) for r in records]
        normalizer = fit_normalizer(vectors)
        examples = prepare_examples(records, vocab, normalizer, scorer)
        assert [e.stats.tobytes() for e in examples] == [
            apply_normalizer(v, normalizer).tobytes() for v in vectors
        ]

    def test_training_extracts_each_users_features_once(self, monkeypatch):
        records = generate_dataset(SynthDatasetSpec(n_per_class=4, seed=3))
        calls = []

        def counting(tweets, *args, **kwargs):
            calls.append(id(tweets))
            return stat_features(tweets, *args, **kwargs)

        monkeypatch.setattr(importlib.import_module("depfuse.train"), "stat_features", counting)
        pipeline.train_from_records(records, pipeline.RunConfig(epochs=1, max_len=16, d1=4))
        assert sorted(calls) == sorted(id(r.tweets) for r in records)


class TestHistoryCsv:
    def make_history(self):
        vocab, normalizer, tr, val = tiny_dataset()
        _, history = train(
            tiny_model(vocab, normalizer), tr, val, TrainConfig(epochs=2, seed=1)
        )
        return history

    def test_header_and_zeroed_seconds(self):
        history = self.make_history()
        text = history_to_csv(history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_acc,val_f1,seconds"
        assert all(line.endswith(",0.000000") for line in lines[1:])
        assert any(e.seconds > 0 for e in history.epochs)

    def test_timing_opt_in(self):
        history = self.make_history()
        text = history_to_csv(history, include_timing=True)
        assert not all(line.endswith(",0.000000") for line in text.strip().split("\n")[1:])
