import inspect
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from depfuse import tensor as T
from depfuse.errors import DimensionError, NumericalError, UsageError
from depfuse.tensor import Tensor, tensor

H = 1e-5
TOL = 1e-4


def fd_gradient_check(make_loss, params):
    """Central finite differences against the recorded backward pass."""
    loss = make_loss()
    loss.backward()
    for p in params:
        assert p.grad is not None
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H
            up = make_loss().item()
            flat[i] = orig - H
            down = make_loss().item()
            flat[i] = orig
            numeric = (up - down) / (2 * H)
            err = abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-4)
            assert err <= TOL, f"{make_loss.__name__}[{i}]: {grad[i]} vs fd {numeric}"


def leaf(rng, rows, cols, avoid_zero=False):
    data = rng.uniform(-1.0, 1.0, size=(rows, cols))
    if avoid_zero:
        data = np.sign(data) * (0.1 + np.abs(data))
    return Tensor(data, requires_grad=True)


def spender(rng, shape):
    """Fixed random linear functional of the output so every entry matters
    and repeated loss evaluations agree."""
    weights = Tensor(rng.uniform(0.5, 1.5, size=shape))
    return lambda out: T.sum_all(T.mul(out, weights))


class TestForwardExamples:
    def test_softmax_symmetry(self):
        out = T.softmax_rows(tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = T.matmul(tensor(a), tensor(np.eye(3)))
        np.testing.assert_allclose(out.data, a)

    def test_relu_clamps_negative(self):
        out = T.relu(tensor([[-1.0, 2.0]]))
        np.testing.assert_allclose(out.data, [[0.0, 2.0]])

    def test_mean_rows_identity_on_single_row(self):
        row = tensor([[3.0, -1.0, 2.5]])
        np.testing.assert_allclose(T.mean_rows(row).data, row.data)

    def test_scale_and_concat(self):
        a = tensor([[1.0, 2.0]])
        b = tensor([[3.0]])
        np.testing.assert_allclose(T.scale(a, -2.0).data, [[-2.0, -4.0]])
        np.testing.assert_allclose(T.concat_cols(a, b).data, [[1.0, 2.0, 3.0]])


class TestBackwardExamples:
    def test_square_sum_gradient(self):
        x = Tensor([[3.0]], requires_grad=True)
        loss = T.sum_all(T.mul(x, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_matmul_row_sum_pattern(self):
        rng = np.random.default_rng(1)
        x = leaf(rng, 2, 3)
        w = Tensor(rng.normal(size=(3, 4)))

        def make_loss():
            return T.sum_all(T.matmul(x, w))

        fd_gradient_check(make_loss, [x])
        expected = np.tile(w.data.sum(axis=1), (2, 1))
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)

    def test_untracked_tensor_gets_no_grad(self):
        x = Tensor([[3.0]], requires_grad=True)
        c = tensor([[2.0]])
        loss = T.sum_all(T.mul(x, c))
        loss.backward()
        assert c.grad is None
        assert x.grad is not None


class TestUsageErrors:
    def test_backward_twice(self):
        x = Tensor([[1.0]], requires_grad=True)
        loss = T.sum_all(T.mul(x, x))
        loss.backward()
        with pytest.raises(UsageError, match="already ran"):
            loss.backward()

    def test_backward_non_scalar(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(UsageError, match="1x1"):
            T.relu(x).backward()

    def test_backward_without_graph(self):
        with pytest.raises(UsageError):
            tensor([[1.0]]).backward()

    def test_shape_mismatch_reports_both_shapes(self):
        a = tensor(np.zeros((2, 3)))
        b = tensor(np.zeros((4, 2)))
        with pytest.raises(DimensionError) as err:
            T.matmul(a, b)
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)
        with pytest.raises(DimensionError) as err:
            T.add(a, b)
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionError):
            tensor([1.0, 2.0])

    def test_gather_out_of_range(self):
        table = tensor(np.zeros((4, 2)))
        with pytest.raises(UsageError, match="out of range"):
            T.gather_rows(table, [0, 4])

    def test_nan_detected(self):
        with pytest.raises(NumericalError):
            T.scale(tensor([[1.0]]), float("inf"))
        big = tensor([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            T.mul(big, big)

    def test_finite_values_whose_sum_overflows_pass(self):
        huge = np.full((3, 4), 1e308)
        with np.errstate(over="ignore"):
            assert not math.isfinite(huge.sum())
            out = T.add(tensor(huge), tensor(np.zeros((3, 4))))
        assert out.data.tobytes() == huge.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("fill", [1.5, 1e308], ids=["small", "huge"])
    def test_non_finite_value_at_any_position_raises(self, bad, fill):
        for position in np.ndindex(3, 4):
            data = np.full((3, 4), fill)
            data[position] = bad
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match="add produced a non-finite value"
            ):
                T.add(tensor(data), tensor(np.zeros((3, 4))))


def op_cases(rng):
    """(name, params, make_loss) triples covering every differentiable op."""
    cases = []

    def case(name, params, out_shape, build):
        pay = spender(rng, out_shape)
        cases.append((name, params, lambda: pay(build())))

    a = leaf(rng, 4, 3)
    b = leaf(rng, 3, 5)
    case("matmul", [a, b], (4, 5), lambda: T.matmul(a, b))

    c = leaf(rng, 4, 3)
    d = leaf(rng, 4, 3)
    case("add", [c, d], (4, 3), lambda: T.add(c, d))

    e = leaf(rng, 5, 3)
    row = leaf(rng, 1, 3)
    case("add_broadcast", [e, row], (5, 3), lambda: T.add(e, row))

    f = leaf(rng, 4, 4)
    g = leaf(rng, 4, 4)
    case("mul", [f, g], (4, 4), lambda: T.mul(f, g))

    m = leaf(rng, 4, 3)
    colv = leaf(rng, 4, 1)
    case("mul_colvec", [m, colv], (4, 3), lambda: T.mul(m, colv))

    r = leaf(rng, 4, 4, avoid_zero=True)
    case("relu", [r], (4, 4), lambda: T.relu(r))

    s = leaf(rng, 3, 5)
    case("softmax_rows", [s], (3, 5), lambda: T.softmax_rows(s))

    sc = leaf(rng, 3, 3)
    case("scale", [sc], (3, 3), lambda: T.scale(sc, -1.7))

    sr = leaf(rng, 4, 3)
    factors = rng.uniform(0.5, 2.0, size=4)
    case("scale_rows", [sr], (4, 3), lambda: T.scale_rows(sr, factors))

    mr = leaf(rng, 5, 4)
    case("mean_rows", [mr], (1, 4), lambda: T.mean_rows(mr))

    ms = leaf(rng, 6, 3)
    case("mean_rows_segments", [ms], (3, 3), lambda: T.mean_rows(ms, [0, 1, 4, 6]))

    sa = leaf(rng, 3, 4)
    cases.append(("sum_all", [sa], lambda: T.sum_all(sa)))

    cc1 = leaf(rng, 3, 2)
    cc2 = leaf(rng, 3, 4)
    case("concat_cols", [cc1, cc2], (3, 6), lambda: T.concat_cols(cc1, cc2))

    st1 = leaf(rng, 2, 3)
    st2 = leaf(rng, 4, 3)
    case("stack_rows", [st1, st2], (6, 3), lambda: T.stack_rows([st1, st2]))

    tr = leaf(rng, 3, 5)
    case("transpose", [tr], (5, 3), lambda: T.transpose(tr))

    slr = leaf(rng, 6, 3)
    case("slice_rows", [slr], (3, 3), lambda: T.slice_rows(slr, 1, 4))

    slc = leaf(rng, 3, 6)
    case("slice_cols", [slc], (3, 3), lambda: T.slice_cols(slc, 2, 5))

    gt = leaf(rng, 6, 4)
    ids = [0, 3, 3, 5]
    case("gather_rows", [gt], (4, 4), lambda: T.gather_rows(gt, ids))

    pr = leaf(rng, 5, 3)
    case("prefix_rows", [pr], (9, 3), lambda: T.prefix_rows(pr, [3, 5, 1]))

    fo = leaf(rng, 6, 2)
    case("fold_rows", [fo], (2, 6), lambda: T.fold_rows(fo, 3))

    ln = leaf(rng, 4, 6)
    gain = leaf(rng, 1, 6, avoid_zero=True)
    bias = leaf(rng, 1, 6)
    case("layernorm_rows", [ln, gain, bias], (4, 6), lambda: T.layernorm_rows(ln, gain, bias))

    mq = leaf(rng, 4, 6)
    mk = leaf(rng, 5, 6)
    mv = leaf(rng, 5, 6)
    case(
        "multihead_attention",
        [mq, mk, mv],
        (4, 6),
        lambda: T.multihead_attention(mq, mk, mv, heads=2),
    )

    # Three segments on each side, one of a single row, and values whose
    # per-head width (3) differs from the query/key one (2).
    sq = leaf(rng, 6, 4)
    sk = leaf(rng, 7, 4)
    sv = leaf(rng, 7, 6)
    case(
        "multihead_attention_segments",
        [sq, sk, sv],
        (6, 6),
        lambda: T.multihead_attention(sq, sk, sv, 2, [0, 2, 3, 6], [0, 3, 4, 7]),
    )

    return cases


def test_every_node_building_op_has_a_gradient_case():
    built = {
        name
        for name, fn in inspect.getmembers(T, inspect.isfunction)
        if not name.startswith("_")
        and fn.__module__ == T.__name__
        and "_node(" in inspect.getsource(fn)
    }
    assert "multihead_attention" in built and "matmul" in built
    covered = {name for name, _, _ in op_cases(np.random.default_rng(0))}
    assert built <= covered, f"no finite-difference case for {sorted(built - covered)}"


@pytest.mark.parametrize("seed", range(20))
def test_every_op_matches_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    for name, params, make_loss in op_cases(rng):
        make_loss.__name__ = name
        fd_gradient_check(make_loss, params)


def per_head_attention(q, k, v, heads):
    """The composition multihead_attention fuses: per-head column slices,
    scaled dot-product attention, heads concatenated left to right."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = (T.slice_cols(t, lo, hi) for t in (q, k, v))
        scores = T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(dh))
        outs.append(T.matmul(T.softmax_rows(scores), vh))
    merged = outs[0]
    for extra in outs[1:]:
        merged = T.concat_cols(merged, extra)
    return merged


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("length", [1, 37, 255, 256])
def test_multihead_attention_matches_per_head_composition_bitwise(heads, length):
    # 255 rows puts per-head reductions at unaligned offsets, where a batched
    # (heads x L x dh) formulation rounds differently in the last bits.
    rng = np.random.default_rng(length * 10 + heads)
    inputs = [rng.normal(size=(length, 32)) for _ in range(3)]
    upstream = Tensor(rng.normal(size=(length, 32)))
    results = []
    for attend in (per_head_attention, T.multihead_attention):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in inputs)
        out = attend(q, k, v, heads)
        T.sum_all(T.mul(out, upstream)).backward()
        results.append([out.data, q.grad, k.grad, v.grad])
    for want, got in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_multihead_attention_shape_errors():
    a = tensor(np.zeros((3, 4)))
    with pytest.raises(DimensionError, match="heads"):
        T.multihead_attention(a, a, a, 3)
    with pytest.raises(DimensionError, match="line up"):
        T.multihead_attention(a, tensor(np.zeros((3, 2))), a, 2)


# 24 segments of 256 rows over six keys fill more than one softmax group
# (T._GROUP_ELEMENTS), then a segment over seven keys breaks the run and two
# more over six start a new one.
GROUPED_Q_LENS = [256] * 24 + [3, 256, 1]
GROUPED_KV_LENS = [6] * 24 + [7, 6, 6]


@pytest.mark.parametrize(
    "heads, q_lens, kv_lens",
    [
        pytest.param(heads, q_lens, kv_lens, id=f"{kind}{heads}")
        for kind, q_lens, kv_lens in (
            ("", [1, 255, 37, 256], [6, 255, 1, 256]),
            ("fusion-", [1, 255, 37, 256], [6, 6, 6, 6]),
            ("groups-", GROUPED_Q_LENS, GROUPED_KV_LENS),
        )
        for heads in (1, 4)
    ],
)
def test_segmented_ops_match_each_segment_alone_bitwise(heads, q_lens, kv_lens):
    # Segment lengths 1, 255 and 37 after a 256 at an unaligned offset: each
    # segment must see only its own rows and round as it would alone, and
    # backward must recompute the forward's probabilities bit for bit, for
    # long key segments and for six keys per segment, as in the fusion
    # attention over the statistic rows, whose segments share one softmax
    # group. The grouped layout forms several groups of six-key segments.
    rng = np.random.default_rng(heads)
    q_bounds, kv_bounds = ([0, *np.cumsum(n).tolist()] for n in (q_lens, kv_lens))
    arrays = [rng.normal(size=(n, 32)) for n in (q_bounds[-1], kv_bounds[-1], kv_bounds[-1])]
    upstream = rng.normal(size=(q_bounds[-1], 32))
    pooled_upstream = rng.normal(size=(len(q_lens), 32))

    q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
    out = T.multihead_attention(q, k, v, heads, q_bounds, kv_bounds)
    pooled = T.mean_rows(out, q_bounds)
    T.sum_all(T.add(T.sum_all(T.mul(out, Tensor(upstream))),
                    T.sum_all(T.mul(pooled, Tensor(pooled_upstream))))).backward()

    segs = zip(q_bounds, q_bounds[1:], kv_bounds, kv_bounds[1:])
    for s, (q0, q1, k0, k1) in enumerate(segs):
        qs, ks, vs = (Tensor(a[lo:hi].copy(), requires_grad=True)
                      for a, (lo, hi) in zip(arrays, [(q0, q1), (k0, k1), (k0, k1)]))
        alone = T.multihead_attention(qs, ks, vs, heads)
        alone_pooled = T.mean_rows(alone)
        T.sum_all(T.add(T.sum_all(T.mul(alone, Tensor(upstream[q0:q1]))),
                        T.sum_all(T.mul(alone_pooled, Tensor(pooled_upstream[s : s + 1]))))).backward()
        assert out.data[q0:q1].tobytes() == alone.data.tobytes()
        assert pooled.data[s].tobytes() == alone_pooled.data[0].tobytes()
        assert k.grad[k0:k1].tobytes() == ks.grad.tobytes()
        assert v.grad[k0:k1].tobytes() == vs.grad.tobytes()
        assert q.grad[q0:q1].tobytes() == qs.grad.tobytes()


@pytest.mark.parametrize("kv_lens", [[6, 255, 1, 256], [6, 6, 6, 6]], ids=["long", "fusion"])
def test_attention_graphs_alive_together_match_fresh_runs_bitwise(kv_lens):
    # Attention's scratch buffers belong to each call: with two graphs built
    # before either backward, and the backwards run in reverse order, neither
    # graph may read what the other wrote.
    heads = 4
    q_bounds, kv_bounds = ([0, *np.cumsum(n).tolist()] for n in ([1, 255, 37, 256], kv_lens))
    rng = np.random.default_rng(13)
    rows = (q_bounds[-1], kv_bounds[-1], kv_bounds[-1], q_bounds[-1])
    cases = [[rng.normal(size=(n, 32)) for n in rows] for _ in range(2)]

    def build(q_arr, k_arr, v_arr, upstream):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q_arr, k_arr, v_arr))
        out = T.multihead_attention(q, k, v, heads, q_bounds, kv_bounds)
        return out, (q, k, v), T.sum_all(T.mul(out, Tensor(upstream)))

    graphs = [build(*case) for case in cases]
    for _out, _leaves, loss in reversed(graphs):
        loss.backward()
    for case, (out, leaves, _loss) in zip(cases, graphs):
        fresh_out, fresh_leaves, fresh_loss = build(*case)
        fresh_loss.backward()
        assert out.data.tobytes() == fresh_out.data.tobytes()
        for got, want in zip(leaves, fresh_leaves):
            assert got.grad.tobytes() == want.grad.tobytes()


def segmented_attention_case(rng, heads, q_lens, kv_lens):
    """q, k, v leaves, bounds and an upstream array for one attention call."""
    q_bounds, kv_bounds = ([0, *np.cumsum(n).tolist()] for n in (q_lens, kv_lens))
    q, k, v = (Tensor(rng.normal(size=(n, 32)), requires_grad=True)
               for n in (q_bounds[-1], kv_bounds[-1], kv_bounds[-1]))
    return (q, k, v, heads, q_bounds, kv_bounds), rng.normal(size=(q_bounds[-1], 32))


def split_every_call(monkeypatch, workers=2):
    """Run every attention call with two or more units on this many workers,
    as when numpy's BLAS runs one thread."""
    monkeypatch.setattr(T, "_THREAD_ELEMENTS", 0)
    monkeypatch.setattr(T, "_blas_threads", lambda: 1)
    monkeypatch.setattr(T, "_cores", lambda: workers)


@pytest.mark.parametrize(
    "heads, q_lens, kv_lens",
    [
        pytest.param(4, [1, 255, 37, 256], [1, 255, 37, 256], id="segments4"),
        pytest.param(1, GROUPED_Q_LENS, GROUPED_KV_LENS, id="groups1"),
    ],
)
def test_attention_bytes_do_not_depend_on_the_worker_count(monkeypatch, heads, q_lens, kv_lens):
    # Every call with two or more units runs them on threads here, three
    # workers being more than this host may have cores, and the interpreter
    # switches threads as often as it can, so that a unit taken twice or
    # never shows in the count of softmax passes. Two graphs are alive at
    # once and their backwards run in reverse order, and every thread a call
    # starts has ended when it returns.
    started, passes = [], []
    start, probabilities = threading.Thread.start, T._probabilities
    monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
    monkeypatch.setattr(T, "_probabilities", lambda *a: (passes.append(1), probabilities(*a))[1])
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            split_every_call(monkeypatch, workers)
            started.clear()
            passes.clear()
            rng = np.random.default_rng(31)
            before = threading.active_count()
            graphs = []
            for _ in range(2):
                args, upstream = segmented_attention_case(rng, heads, q_lens, kv_lens)
                out = T.multihead_attention(*args)
                graphs.append((out, args[:3], T.sum_all(T.mul(out, Tensor(upstream)))))
                assert threading.active_count() == before
            for _out, _leaves, loss in reversed(graphs):
                loss.backward()
                assert threading.active_count() == before
            assert len(started) == 4 * (workers - 1)
            units = len(T._groups(*(list(zip(b, b[1:])) for b in args[4:]))) * heads
            assert len(passes) == 4 * units
            results[workers] = [
                array.tobytes()
                for out, leaves, _loss in graphs
                for array in (out.data, *(leaf.grad for leaf in leaves))
            ]
    finally:
        sys.setswitchinterval(interval)
    assert results[1] == results[2] == results[3]


@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_an_exception_in_an_attention_worker_reaches_the_caller(monkeypatch, phase):
    split_every_call(monkeypatch)
    rng = np.random.default_rng(32)
    args, upstream = segmented_attention_case(rng, 4, [64] * 4, [64] * 4)
    loss = T.sum_all(T.mul(T.multihead_attention(*args), Tensor(upstream))) if phase == "backward" else None
    caller, raised = threading.get_ident(), threading.Event()
    probabilities = T._probabilities

    def fail_in_a_worker(*a, **kw):
        # The caller waits until a worker has raised, so that the worker is
        # sure to take a unit before the caller has taken them all.
        if threading.get_ident() != caller:
            raised.set()
            raise RuntimeError("worker failed")
        raised.wait(timeout=30)
        return probabilities(*a, **kw)

    monkeypatch.setattr(T, "_probabilities", fail_in_a_worker)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        if loss is None:
            T.multihead_attention(*args)
        else:
            loss.backward()
    assert raised.is_set()
    assert threading.active_count() == before


def test_attention_workers_keep_the_callers_numpy_error_settings(monkeypatch):
    # Scores of 1e400 overflow, and the softmax of infinite scores is
    # invalid. The caller silences both, and so must every worker: the
    # non-finite output is then reported once, as an error.
    split_every_call(monkeypatch)
    rng = np.random.default_rng(34)
    args, _upstream = segmented_attention_case(rng, 4, [64] * 4, [64] * 4)
    for leaf_ in args[:2]:
        leaf_.data[:] = 1e200
    threads = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: (threads.append(t), start(t)))
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="non-finite"):
            T.multihead_attention(*args)
    assert len(threads) == 1
    assert [str(w.message) for w in caught] == []


def test_attention_runs_its_units_on_the_caller_when_no_thread_starts(monkeypatch):
    split_every_call(monkeypatch, workers=3)
    args, upstream = segmented_attention_case(np.random.default_rng(35), 4, [64] * 4, [64] * 4)
    want = T.multihead_attention(*args)
    T.sum_all(T.mul(want, Tensor(upstream))).backward()
    want = [a.tobytes() for a in (want.data, *(leaf_.grad for leaf_ in args[:3]))]

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    args, upstream = segmented_attention_case(np.random.default_rng(35), 4, [64] * 4, [64] * 4)
    got = T.multihead_attention(*args)
    T.sum_all(T.mul(got, Tensor(upstream))).backward()
    assert [a.tobytes() for a in (got.data, *(leaf_.grad for leaf_ in args[:3]))] == want


@pytest.mark.parametrize("blas_threads", [2, None])
def test_attention_stays_on_the_caller_unless_blas_runs_one_thread(monkeypatch, blas_threads):
    # A BLAS that runs threads of its own, or one whose thread count cannot
    # be read, keeps every call inline however large it is.
    split_every_call(monkeypatch)
    monkeypatch.setattr(T, "_blas_threads", lambda: blas_threads)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
    args, upstream = segmented_attention_case(np.random.default_rng(36), 4, [256] * 2, [256] * 2)
    T.sum_all(T.mul(T.multihead_attention(*args), Tensor(upstream))).backward()
    assert started == []


def test_blas_threads_reads_the_thread_count_openblas_was_given():
    if T._blas_threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    src = os.path.dirname(os.path.dirname(T.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    code = "from depfuse import tensor; print(tensor._blas_threads())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


@pytest.mark.skipif(sys.platform != "linux", reason="os.fork is exercised on Linux")
def test_attention_runs_in_a_child_forked_after_threaded_attention(monkeypatch):
    # Threads live only inside a call, so a child forked afterwards starts
    # its own; a pool kept between calls would leave the child a pool whose
    # threads the fork did not copy, and its first call would hang.
    split_every_call(monkeypatch)
    rng = np.random.default_rng(33)
    args, upstream = segmented_attention_case(rng, 4, [64] * 4, [64] * 4)
    want = T.multihead_attention(*args).data.tobytes()
    pid = os.fork()
    if pid == 0:  # the child: exit at once, without running pytest's teardown
        code = 1
        try:
            code = 0 if T.multihead_attention(*args).data.tobytes() == want else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's attention call did not return within 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_backward_keeps_leaf_gradients_and_drops_interior_ones():
    # b feeds the loss along two paths, so its gradient must be whole before
    # it is passed on and dropped.
    rng = np.random.default_rng(5)
    x, w = leaf(rng, 4, 3), leaf(rng, 3, 3)
    const = tensor(rng.normal(size=(4, 3)))
    a = T.matmul(x, w)
    b = T.relu(T.add(a, const))
    c = T.mul(b, b)
    loss = T.sum_all(T.add(c, T.scale(b, 3.0)))
    loss.backward()
    for interior in (a, b, c, loss):
        assert interior.grad is None
    assert const.grad is None
    mask = (x.data @ w.data + const.data) > 0
    upstream = (2.0 * np.maximum(x.data @ w.data + const.data, 0.0) + 3.0) * mask
    np.testing.assert_allclose(x.grad, upstream @ w.data.T, rtol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.T @ upstream, rtol=1e-12)


def test_graph_holds_only_what_backward_reads():
    # relu's backward reads its mask, so a pre-activation that only relu
    # consumes is freed once the caller drops it, and so is a matmul output
    # that only sum_all reads. The operands a matmul backward reads stay
    # alive in the graph until backward, and go with the graph.
    rng = np.random.default_rng(9)
    x, w1, w2 = leaf(rng, 4, 3), leaf(rng, 3, 5), leaf(rng, 5, 2)
    pre = T.matmul(x, w1)
    hidden = T.relu(pre)
    pre_data = weakref.ref(pre.data)
    del pre
    assert pre_data() is None
    out = T.matmul(hidden, w2)
    loss = T.sum_all(out)
    out_data, hidden_data = weakref.ref(out.data), weakref.ref(hidden.data)
    want = hidden.data.T @ np.ones((4, 2))
    del out, hidden
    assert out_data() is None
    assert hidden_data() is not None
    loss.backward()
    np.testing.assert_array_equal(w2.grad, want)
    del loss
    assert hidden_data() is None


def test_backward_frees_the_closures_arrays_with_the_root_still_bound():
    # A matmul operand lives in the graph only for its backward: once that
    # closure has run, the spent graph lets go of it though loss is alive.
    rng = np.random.default_rng(9)
    x, w1, w2 = leaf(rng, 4, 3), leaf(rng, 3, 5), leaf(rng, 5, 2)
    hidden = T.relu(T.matmul(x, w1))
    loss = T.sum_all(T.matmul(hidden, w2))
    hidden_data = weakref.ref(hidden.data)
    del hidden
    assert hidden_data() is not None
    loss.backward()
    assert hidden_data() is None
    assert loss.requires_grad and w2.grad is not None


def test_backward_through_a_released_node_raises_and_keeps_leaf_gradients():
    # h was released by the first backward; a second root over it must not
    # silently skip its closure and leave x and w without their share.
    rng = np.random.default_rng(10)
    x, w, y = leaf(rng, 4, 3), leaf(rng, 3, 2), leaf(rng, 4, 2)
    h = T.matmul(x, w)
    T.sum_all(h).backward()
    grads = x.grad.tobytes(), w.grad.tobytes()
    for second in (T.sum_all(T.mul(h, h)), T.sum_all(T.add(y, h)), T.sum_all(h)):
        with pytest.raises(UsageError, match="already ran"):
            second.backward()
        assert (x.grad.tobytes(), w.grad.tobytes()) == grads
        assert y.grad is None


@pytest.mark.parametrize("op", ["add", "concat_cols"])
def test_aliased_gradients_are_copied_not_adopted(op):
    # add passes its upstream gradient to both operands, and concat_cols a
    # view of it to each. A node adopts its first gradient as it is, shared
    # or not, and sums each later one into a new array. So x's second share
    # leaves the array w holds as its gradient unchanged, and x ends up with
    # its own sum, not a view that keeps its op's whole gradient alive.
    rng = np.random.default_rng(11)
    x = leaf(rng, 3, 2)
    doubled = T.add(x, x) if op == "add" else T.concat_cols(x, x)
    w = leaf(rng, *doubled.shape)
    c = rng.uniform(0.5, 1.5, size=doubled.shape)
    u = T.add(doubled, w)
    T.sum_all(T.mul(u, Tensor(c))).backward()
    np.testing.assert_array_equal(w.grad, c)
    want = 2 * c if op == "add" else c[:, :2] + c[:, 2:]
    np.testing.assert_array_equal(x.grad, want)
    assert x.grad.flags.owndata and w.grad.flags.owndata


@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "scoring"])
def test_writing_into_an_op_output_raises(tracked):
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=tracked)
    for out in (T.scale(x, 2.0), T.fold_rows(x, 3), T.relu(x)):
        with pytest.raises(ValueError, match="read-only"):
            out.data[0, 0] = 1.0
    x.data[0, 0] = 1.0  # a leaf stays writable


def test_a_backward_that_writes_into_its_gradient_raises():
    # add hands its upstream gradient to both operands as it is, so a
    # closure that wrote into the gradient it is given would change its
    # sibling's gradient as well.
    rng = np.random.default_rng(12)
    a, b = leaf(rng, 2, 2), leaf(rng, 2, 2)
    ha = T.scale(a, 2.0)
    loss = T.sum_all(T.add(ha, T.scale(b, 3.0)))
    inner = ha._node.backward

    def writes(g):
        g *= 2.0
        inner(g)

    ha._node.backward = writes
    with pytest.raises(ValueError, match="read-only"):
        loss.backward()


def test_writing_into_a_leaf_gradient_raises():
    # w adopts mul's product as it is; x gets two shares, the second summed.
    rng = np.random.default_rng(12)
    x, w = leaf(rng, 2, 2), leaf(rng, 2, 2)
    T.sum_all(T.add(T.mul(x, x), w)).backward()
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    for grad in (x.grad, w.grad):
        with pytest.raises(ValueError, match="read-only"):
            grad[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            grad += 1.0


def test_add_shares_its_gradient_and_a_later_sum_leaves_the_share_alone():
    rng = np.random.default_rng(13)
    a, b = leaf(rng, 3, 2), leaf(rng, 3, 2)
    T.sum_all(T.add(a, b)).backward()
    assert a.grad is b.grad
    shared = b.grad.tobytes()
    T.sum_all(T.scale(a, 2.0)).backward()
    assert b.grad.tobytes() == shared
    np.testing.assert_array_equal(a.grad, np.full((3, 2), 3.0))


def test_fold_rows_is_row_major():
    # A stats-query model's fused row is its six attended rows end to end.
    out = T.fold_rows(tensor(np.arange(12.0).reshape(6, 2)), 3)
    np.testing.assert_array_equal(out.data, np.arange(12.0).reshape(2, 6))


def test_segment_bounds_errors():
    a = tensor(np.zeros((4, 2)))
    for bounds in ([0, 4, 4], [1, 4], [0, 3], [0, 3, 2, 4], [4]):
        with pytest.raises(DimensionError, match="bounds"):
            T.mean_rows(a, bounds)
    with pytest.raises(DimensionError, match="segments"):
        T.multihead_attention(a, a, a, 1, [0, 2, 4], [0, 4])
    with pytest.raises(DimensionError, match="tile"):
        T.fold_rows(a, 3)


def test_gather_rows_backward_equals_dense_add_at_bitwise():
    # Several lookups share one table, with repeated and overlapping ids and
    # a gradient that starts as None. The sparse backward must give exactly
    # the dense sum: per lookup, np.add.at into zeros; lookups added in the
    # order backward reaches them, which here is the forward order. Negative
    # zeros upstream check that no -0.0 leaks into a row whose sum is zero.
    rng = np.random.default_rng(21)
    rows, cols = 40, 5
    lookups = [[3, 3, 7, 0, 3], [7, 39, 39, 12], [0], [12, 3, 3, 3, 25, 7, 7]]
    upstream = []
    for ids in lookups:
        g = rng.normal(size=(len(ids), cols)) * 10.0 ** rng.integers(-3, 4, size=(len(ids), 1))
        g[rng.random(size=g.shape) < 0.2] = -0.0
        upstream.append(g)
    table = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    assert table.grad is None
    outs = [T.mul(T.gather_rows(table, ids), Tensor(g)) for ids, g in zip(lookups, upstream)]
    total = outs[0]
    for out in outs[1:]:
        total = T.stack_rows([total, out])
    T.sum_all(total).backward()

    want = None
    for ids, g in zip(lookups, upstream):
        buf = np.zeros((rows, cols))
        np.add.at(buf, np.asarray(ids), g)
        want = buf if want is None else want + buf
    assert table.grad.tobytes() == want.tobytes()


class TestSharedAndRepeatedUse:
    def test_tensor_used_twice_accumulates(self):
        rng = np.random.default_rng(7)
        x = leaf(rng, 3, 3)

        def make_loss():
            return T.sum_all(T.add(T.mul(x, x), x))

        fd_gradient_check(make_loss, [x])
        np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-12)

    def test_shared_projection_matrix(self):
        rng = np.random.default_rng(8)
        w = leaf(rng, 3, 3)
        inp = Tensor(rng.normal(size=(2, 3)))
        pay = spender(rng, (2, 2))

        def make_loss():
            k = T.matmul(inp, w)
            v = T.matmul(inp, w)
            return pay(T.matmul(T.softmax_rows(k), T.transpose(v)))

        fd_gradient_check(make_loss, [w])


finite_rows = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(-50, 50),
)


class TestSoftmaxProperties:
    @given(finite_rows)
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, data):
        out = T.softmax_rows(tensor(data)).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all() and (out <= 1).all()

    @given(finite_rows, st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, data, shift):
        base = T.softmax_rows(tensor(data)).data
        shifted = T.softmax_rows(tensor(data + shift)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)


def test_attention_groups_break_at_the_budget_and_at_a_key_count_change():
    q_bounds, kv_bounds = ([0, *np.cumsum(n).tolist()] for n in (GROUPED_Q_LENS, GROUPED_KV_LENS))
    groups = T._groups(list(zip(q_bounds, q_bounds[1:])), list(zip(kv_bounds, kv_bounds[1:])))
    per_group = T._GROUP_ELEMENTS // (256 * 6)
    assert [len(g) for g in groups] == [per_group, 24 - per_group, 1, 2]
    assert [g[0][3] - g[0][2] for g in groups] == [6, 6, 7, 6]
    # A pair larger than the budget is a group of its own, and so is its
    # neighbour of the same size.
    assert [len(g) for g in T._groups([(0, 256), (256, 512)], [(0, 256), (256, 512)])] == [1, 1]


def test_prefix_rows_backward_equals_dense_add_at_bitwise():
    # Per lookup, np.add.at into zeros with each user's positions 0..n-1;
    # a second lookup into the same table adds in backward's order, which
    # here is the forward order. Negative zeros upstream check that no -0.0
    # reaches a row whose sum is zero.
    rng = np.random.default_rng(22)
    rows, cols = 9, 4
    lookups = [[3, 7, 1, 7], [2, 9]]
    upstream = []
    for lengths in lookups:
        g = rng.normal(size=(sum(lengths), cols)) * 10.0 ** rng.integers(-3, 4, size=(sum(lengths), 1))
        g[rng.random(size=g.shape) < 0.3] = -0.0
        upstream.append(g)
    table = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    first = T.sum_all(T.mul(T.prefix_rows(table, lookups[0]), Tensor(upstream[0])))
    first.backward()
    assert table.grad_rows.tolist() == list(range(7))
    want = np.zeros((rows, cols))
    ids = [np.concatenate([np.arange(n) for n in lengths]) for lengths in lookups]
    np.add.at(want, ids[0], upstream[0])
    assert table.grad.tobytes() == want.tobytes()
    assert not (np.signbit(table.grad) & (table.grad == 0.0)).any()

    out = T.prefix_rows(table, lookups[1])
    np.testing.assert_array_equal(out.data, table.data[ids[1]])
    T.sum_all(T.mul(out, Tensor(upstream[1]))).backward()
    assert table.grad_rows.tolist() == list(range(9))
    second = np.zeros((rows, cols))
    np.add.at(second, ids[1], upstream[1])
    assert table.grad.tobytes() == (want + second).tobytes()


def test_prefix_rows_length_errors():
    table = tensor(np.zeros((4, 2)))
    for lengths in ([0], [2, 0, 3], [5], [4, 5]):
        with pytest.raises(DimensionError, match="prefix_rows"):
            T.prefix_rows(table, lengths)
    with pytest.raises(UsageError):
        T.prefix_rows(table, [])
