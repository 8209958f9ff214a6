"""Dense 2-D float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately minimal: every value is a rank-2 matrix, and each
forward pass over gradient-tracked tensors records a fresh acyclic graph
that is consumed by a single backward() call; an op whose inputs track no
gradient records nothing. A batch is one graph: its users' rows are stacked
into one matrix, and a list of segment bounds ``[0, b1, ..., rows]`` says
which rows belong to which user. Row-wise ops (matmul, add, relu,
layernorm_rows) run once on the whole stack; the ops that must not mix
users take the bounds: ``multihead_attention`` attends only within a
segment, ``mean_rows`` pools each segment to one row, and ``fold_rows``
folds each run of a fixed number of rows into one row.
Two ops look rows up in a table. gather_rows takes rows by id (the
embedding); its backward is one bincount over the table's cells, which
sums each id's gradient rows in input order, as np.add.at into zeros
does. prefix_rows takes rows 0..n-1 for each user (the positional and
statistic tables); its backward adds each user's gradient slice into a
zeroed table in user order. Each lookup's table-shaped gradient becomes
the table's first gradient without a copy, and each records the rows it
touched on the table's node (``Tensor.grad_rows``), the union over
lookups, so the optimizer can skip the rows whose gradient is +0.0; any
dense gradient, setting ``grad`` and ``zero_grad`` clear the record, and
a cleared record means any row may be nonzero. Forward
results are checked for NaN/Inf on every operation. Recorded tensors must
not be mutated in place while their graph is alive; the optimizer mutates
leaf parameters only between passes.

A graph keeps only what its backward reads. The record of an op is a Node:
its gradient, its parents' nodes and its backward closure. A Tensor holds
its value and its node, and the node holds no value. Each closure captures
its inputs' nodes and exactly the arrays its backward reads: matmul both
operands, relu its mask, layernorm_rows xhat, inv and the gain, add no
array at all. So an op output that no backward reads is freed as soon as
the caller drops its Tensor, during forward. Attention keeps no probability
matrix, only its per-head blocks of q, k and v and the softmax row max and
row sum of each group of segments with the same key count, and recomputes
the matrices from them in backward. Forward and backward each compute
those matrices in scratch blocks that belong to the call and are reused
from group to group.

Backward frees the graph as it consumes it, as PyTorch's autograd does
without retain_graph (Paszke et al. 2019, arXiv 1912.01703). Once a node
has passed its gradient on to its parents, it is released: its gradient,
its closure with the arrays the closure read, and its parent links are
dropped. So a spent graph holds nothing but the leaves' gradients, even
while the caller still holds its root, and a later backward that reaches a
released node raises UsageError. A gradient that an op has just computed
becomes its parent's first gradient without a copy; one that aliases the
upstream gradient (add's pass-through, the views that concat_cols,
stack_rows, fold_rows and transpose pass on) is copied.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, NumericalError, UsageError

Shape = Tuple[int, int]
Bounds = Optional[Sequence[int]]
Backward = Callable[[np.ndarray], None]


class Node:
    """One gradient-tracked leaf or recorded op in a graph: its gradient, the
    nodes of its tracked inputs and the closure that passes a gradient on to
    them. It holds no value.

    ``rows`` is None while any row of the gradient may be nonzero ("dense").
    Otherwise it is the sorted array of the only rows that the table
    lookups' backwards (gather_rows, prefix_rows) added into; every other
    row of the gradient is +0.0."""

    __slots__ = ("grad", "rows", "parents", "backward", "released")

    def __init__(self, parents: Tuple["Node", ...] = (), backward: Optional[Backward] = None):
        self.grad: Optional[np.ndarray] = None
        self.rows: Optional[np.ndarray] = None
        self.parents = parents
        self.backward = backward
        self.released = False

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g into the gradient. A first gradient is kept as it is when
        ``fresh`` says the op has just computed g and nothing else holds it;
        any other one is copied, because later gradients add into it in
        place. The gradient is dense afterwards."""
        if self.grad is None:
            self.grad = g if fresh else g.copy()
        else:
            self.grad += g
        self.rows = None

    def accumulate_rows(self, rows: np.ndarray, g: np.ndarray) -> None:
        """Add g, a table-shaped gradient that a lookup has just computed and
        that is +0.0 outside the sorted, distinct ``rows``, and record those
        rows: a first gradient is g itself and lists exactly these rows, a
        listed one takes the union, and a dense one stays dense."""
        if self.grad is None:
            self.grad, self.rows = g, rows
        else:
            self.grad += g
            if self.rows is not None:
                self.rows = np.union1d(self.rows, rows)


class Tensor:
    """A 2-D float64 value and its graph node; the node is None when the
    tensor is untracked. A leaf made with requires_grad=True gets its node
    here, and an op's output gets one when any of its inputs has one."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D; got array of shape {arr.shape}")
        self.data = arr
        self._node: Optional[Node] = Node() if requires_grad else None

    @property
    def shape(self) -> Shape:
        return self.data.shape  # type: ignore[return-value]

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        if self._node is None:
            raise UsageError("grad is set only on gradient-tracked tensors")
        self._node.grad = value
        self._node.rows = None

    @property
    def grad_rows(self) -> Optional[np.ndarray]:
        """The sorted rows outside which grad is known to be +0.0, or None
        when any row may be nonzero (see Node)."""
        return None if self._node is None else self._node.rows

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = self._node.rows = None

    def item(self) -> float:
        if self.shape != (1, 1):
            raise UsageError(f"item() requires a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Populate grad = d(self)/d(leaf) for every requires_grad leaf
        reachable from this scalar tensor. One shot per graph: each interior
        node is released once its backward has passed its gradient on to its
        parents. Its gradient, its closure (and the arrays the closure read)
        and its parent links are dropped then, so memory falls as backward
        runs and a spent graph holds nothing but the leaves' gradients. A
        backward that reaches a released node raises UsageError before it
        changes any gradient."""
        if self.shape != (1, 1):
            raise UsageError(f"backward requires a 1x1 loss tensor, got {self.shape}")
        root = self._node
        if root is None:
            raise UsageError("backward on a graph with no gradient-tracked tensors")
        # Iterative post-order DFS (reverse topological order for the sweep).
        order: List[Node] = []
        seen = set()
        stack: List[Tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.released:
                raise UsageError("backward already ran on this graph; rebuild the forward pass")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        root.accumulate(np.ones((1, 1)), fresh=True)
        for node in reversed(order):
            if not node.parents:
                continue
            if node.grad is not None:
                node.backward(node.grad)
            node.grad = node.rows = node.backward = None
            node.parents = ()
            node.released = True


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _node(op: str, data: np.ndarray, inputs: Sequence[Tensor], backward: Backward) -> Tensor:
    """The op's output; it records a node when any input is tracked. The
    backward closure must capture input nodes and arrays, never an input
    Tensor, so that the node keeps no value its backward does not read."""
    # A finite sum means finite elements; only a non-finite sum, which an
    # overflowing sum of finite elements also gives, needs the full check.
    if not math.isfinite(data.sum()) and not np.isfinite(data).all():
        raise NumericalError(f"{op} produced a non-finite value")
    out = Tensor(data)
    parents = tuple(t._node for t in inputs if t._node is not None)
    if parents:
        out._node = Node(parents, backward)
    return out


def _reduce_to(g: np.ndarray, shape: Shape) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcastable(a: Shape, b: Shape) -> bool:
    rows_ok = a[0] == b[0] or a[0] == 1 or b[0] == 1
    cols_ok = a[1] == b[1] or a[1] == 1 or b[1] == 1
    return rows_ok and cols_ok


def _segments(bounds: Bounds, rows: int, what: str) -> List[Tuple[int, int]]:
    """(start, stop) of each segment; no bounds means one segment of all rows."""
    if bounds is None:
        return [(0, rows)]
    b = list(bounds)
    if len(b) < 2 or b[0] != 0 or b[-1] != rows or any(lo >= hi for lo, hi in zip(b, b[1:])):
        raise DimensionError(f"{what}: segment bounds must rise strictly from 0 to {rows}, got {b}")
    return list(zip(b[:-1], b[1:]))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    na, nb, x, w = a._node, b._node, a.data, b.data

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na.accumulate(g @ w.T, fresh=True)
        if nb is not None:
            nb.accumulate(x.T @ g, fresh=True)

    return _node("matmul", x @ w, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a 1xC row broadcasts against RxC (either side)."""
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"add: incompatible shapes {a.shape} + {b.shape}")
    na, nb, a_shape, b_shape = a._node, b._node, a.shape, b.shape

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na.accumulate(_reduce_to(g, a_shape))
        if nb is not None:
            nb.accumulate(_reduce_to(g, b_shape))

    return _node("add", a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with the same row/column broadcasting as add."""
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    na, nb, x, y = a._node, b._node, a.data, b.data

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na.accumulate(_reduce_to(g * y, x.shape), fresh=True)
        if nb is not None:
            nb.accumulate(_reduce_to(g * x, y.shape), fresh=True)

    return _node("mul", x * y, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    node, mask = a._node, a.data > 0

    def backward(g: np.ndarray) -> None:
        node.accumulate(g * mask, fresh=True)

    return _node("relu", np.where(mask, a.data, 0.0), (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for stability."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    node = a._node

    def backward(g: np.ndarray) -> None:
        inner = (g * s).sum(axis=1, keepdims=True)
        node.accumulate(s * (g - inner), fresh=True)

    return _node("softmax_rows", s, (a,), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    node = a._node

    def backward(g: np.ndarray) -> None:
        node.accumulate(g * factor, fresh=True)

    return _node("scale", a.data * factor, (a,), backward)


def scale_rows(a: Tensor, factors: np.ndarray) -> Tensor:
    """Multiply row i by the constant factors[i] (no gradient to factors)."""
    col = np.asarray(factors, dtype=np.float64).reshape(-1, 1)
    if col.shape[0] != a.shape[0]:
        raise DimensionError(f"scale_rows: {col.shape[0]} factors for shape {a.shape}")
    node = a._node

    def backward(g: np.ndarray) -> None:
        node.accumulate(g * col, fresh=True)

    return _node("scale_rows", a.data * col, (a,), backward)


def mean_rows(a: Tensor, bounds: Bounds = None) -> Tensor:
    """Column means of each row segment, one output row per segment (one
    segment of all rows without bounds)."""
    segs = _segments(bounds, a.shape[0], "mean_rows")
    data = np.empty((len(segs), a.shape[1]))
    for i, (start, stop) in enumerate(segs):
        data[i] = a.data[start:stop].sum(axis=0) / (stop - start)
    counts = np.array([stop - start for start, stop in segs])
    node = a._node

    def backward(g: np.ndarray) -> None:
        node.accumulate(np.repeat(g / counts[:, None], counts, axis=0), fresh=True)

    return _node("mean_rows", data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    node, shape = a._node, a.shape

    def backward(g: np.ndarray) -> None:
        node.accumulate(np.full(shape, g[0, 0]), fresh=True)

    return _node("sum_all", np.array([[a.data.sum()]]), (a,), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    na, nb, split = a._node, b._node, a.shape[1]

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na.accumulate(g[:, :split])
        if nb is not None:
            nb.accumulate(g[:, split:])

    return _node("concat_cols", np.hstack([a.data, b.data]), (a, b), backward)


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Vertically stack tensors that share a column count."""
    if not tensors:
        raise UsageError("stack_rows needs at least one tensor")
    cols = tensors[0].shape[1]
    for t in tensors[1:]:
        if t.shape[1] != cols:
            raise DimensionError(
                f"stack_rows: column counts differ, {tensors[0].shape} vs {t.shape}"
            )
    parts = []  # (node, first row, stop row) of each tracked input
    row = 0
    for t in tensors:
        if t._node is not None:
            parts.append((t._node, row, row + t.shape[0]))
        row += t.shape[0]

    def backward(g: np.ndarray) -> None:
        for node, start, stop in parts:
            node.accumulate(g[start:stop])

    return _node("stack_rows", np.vstack([t.data for t in tensors]), tuple(tensors), backward)


def transpose(a: Tensor) -> Tensor:
    node = a._node

    def backward(g: np.ndarray) -> None:
        node.accumulate(g.T)

    return _node("transpose", a.data.T.copy(), (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[0]):
        raise DimensionError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")
    node, shape = a._node, a.shape

    def backward(g: np.ndarray) -> None:
        buf = np.zeros(shape)
        buf[start:stop] = g
        node.accumulate(buf, fresh=True)

    return _node("slice_rows", a.data[start:stop].copy(), (a,), backward)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[1]):
        raise DimensionError(f"slice_cols: [{start}:{stop}] out of range for {a.shape}")
    node, shape = a._node, a.shape

    def backward(g: np.ndarray) -> None:
        buf = np.zeros(shape)
        buf[:, start:stop] = g
        node.accumulate(buf, fresh=True)

    return _node("slice_cols", a.data[:, start:stop].copy(), (a,), backward)


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of a table by index (embedding lookup)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise UsageError("gather_rows needs a non-empty 1-D id list")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise UsageError(
            f"gather_rows: id out of range [0, {table.shape[0]}): {int(idx.min())}..{int(idx.max())}"
        )
    node, (rows, cols) = table._node, table.shape

    def backward(g: np.ndarray) -> None:
        # One bincount over the table's (row, column) cells. It adds its
        # weights in input order starting from 0.0, so each cell equals the
        # dense np.add.at into zeros bit for bit; the rows no id touched
        # stay +0.0.
        flat = (idx[:, None] * cols + np.arange(cols)).reshape(-1)
        grad = np.bincount(flat, weights=g.reshape(-1), minlength=rows * cols)
        node.accumulate_rows(np.flatnonzero(np.bincount(idx)), grad.reshape(rows, cols))

    return _node("gather_rows", table.data[idx], (table,), backward)


def prefix_rows(table: Tensor, lengths: Sequence[int]) -> Tensor:
    """Rows 0..n-1 of the table for each n in lengths, stacked in order: the
    lookup of each user's positions, or of its statistic rows. Backward adds
    each user's gradient slice into a zeroed table gradient in user order,
    the per-row order and sums of the equivalent gather_rows, and lists rows
    0..max(n)-1 as the ones it touched."""
    sizes = [int(n) for n in lengths]
    if not sizes:
        raise UsageError("prefix_rows needs at least one length")
    if min(sizes) < 1 or max(sizes) > table.shape[0]:
        raise DimensionError(
            f"prefix_rows: lengths must lie in [1, {table.shape[0]}], got {min(sizes)}..{max(sizes)}"
        )
    node, shape, touched = table._node, table.shape, max(sizes)

    def backward(g: np.ndarray) -> None:
        grad = np.zeros(shape)
        start = 0
        for n in sizes:
            grad[:n] += g[start : start + n]
            start += n
        node.accumulate_rows(np.arange(touched), grad)

    data = np.concatenate([table.data[:n] for n in sizes])
    return _node("prefix_rows", data, (table,), backward)


def fold_rows(a: Tensor, rows: int) -> Tensor:
    """Fold each run of ``rows`` consecutive rows into one row, row-major:
    R x C becomes (R / rows) x (rows * C)."""
    r, c = a.shape
    if rows < 1 or r % rows != 0:
        raise DimensionError(f"fold_rows: runs of {rows} rows do not tile shape {a.shape}")
    node = a._node

    def backward(g: np.ndarray) -> None:
        node.accumulate(g.reshape(r, c))

    return _node("fold_rows", a.data.reshape(r // rows, rows * c).copy(), (a,), backward)


def _block(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix over the front of a flat scratch buffer."""
    return buf[: rows * cols].reshape(rows, cols)


# The probability matrices of one attention group hold at most this many
# elements, or as many as the largest single (query, key) segment pair.
_GROUP_ELEMENTS = 1 << 15

Pair = Tuple[int, int, int, int]  # query rows [q0, q1), key rows [k0, k1)
RowStats = Tuple[np.ndarray, np.ndarray]
# One pair under one head: its query rows, key rows and rows of the group's
# probability block, then its q columns, k columns transposed and v columns,
# each a contiguous view or copy.
Part = Tuple[slice, slice, slice, np.ndarray, np.ndarray, np.ndarray]


def _groups(q_segs: List[Tuple[int, int]], kv_segs: List[Tuple[int, int]]) -> List[List[Pair]]:
    """The segment pairs, split into runs of consecutive pairs with the same
    key count whose matrices fit the group budget together."""
    pairs = [(q0, q1, k0, k1) for (q0, q1), (k0, k1) in zip(q_segs, kv_segs)]
    budget = max(_GROUP_ELEMENTS, *((q1 - q0) * (k1 - k0) for q0, q1, k0, k1 in pairs))
    groups: List[List[Pair]] = []
    size = keys = 0
    for q0, q1, k0, k1 in pairs:
        elements = (q1 - q0) * (k1 - k0)
        if groups and k1 - k0 == keys and size + elements <= budget:
            groups[-1].append((q0, q1, k0, k1))
            size += elements
        else:
            groups.append([(q0, q1, k0, k1)])
            size, keys = elements, k1 - k0
    return groups


def _probabilities(
    parts: Sequence[Part], factor: float, out: np.ndarray, stats: Optional[RowStats] = None
) -> RowStats:
    """softmax_rows((qh @ kt) * factor) of each pair of a group, stacked in
    place in ``out``, and its (row max, row sum). Each pair has its own
    matmul; the scale, max, shift, exp, sum and divide of softmax_rows then
    run once over the group, in softmax_rows' order. Each of them works row
    by row, so a pair's rows get the bits they get alone. Given the stats of
    an earlier call on the same operands, it takes no reduction and gives
    that call's bits again."""
    for _qr, _kr, wr, qh, kt, _vh in parts:
        np.matmul(qh, kt, out=out[wr])
    out *= factor
    top = out.max(axis=1, keepdims=True) if stats is None else stats[0]
    out -= top
    np.exp(out, out=out)
    total = out.sum(axis=1, keepdims=True) if stats is None else stats[1]
    out /= total
    return top, total


def multihead_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    q_bounds: Bounds = None,
    kv_bounds: Bounds = None,
) -> Tensor:
    """Scaled dot-product attention over column blocks and row segments.

    Head h attends with columns [h*dq, (h+1)*dq) of q and k, dq = q width /
    heads, and aggregates the matching block of v's columns; the head outputs
    are laid side by side. With segment bounds, query segment s attends only
    to key/value segment s, so users stacked in one batch never see each
    other's rows: the masking of Vaswani et al. 2017 (arXiv 1706.03762), done
    with bounds instead of padding. One node with an analytic backward.

    Each segment and head works on contiguous blocks of its rows and
    columns, copied unless they already are (one head), in the same op order
    as the slice/transpose/matmul/softmax composition, so values and
    gradients match that composition, run on the segment alone, bit for bit.

    Consecutive segment pairs with the same key count form a group, of at
    most ``_GROUP_ELEMENTS`` probabilities or one pair. Per head, the
    matmuls run pair by pair, each writing into its block of the output or
    gradient, and the softmax's elementwise passes and row reductions, and
    backward's, once over the group: the fusion attention's six keys per
    user make one group per batch, and 256-row self-attention pairs stay
    one pair each.

    No group allocates its own probability matrix. Forward computes each
    one in place in a block over the front of one scratch buffer per call,
    sized to the largest group formed, and backward does the same in a
    three-block work buffer of its own. A call keeps the per-head blocks of
    q, k and v and, per group and head, the softmax row max and row sum; the
    FlashAttention saved statistic of Dao et al. 2022 (arXiv 2205.14135).
    Backward recomputes each matrix from them with the forward's own ops and
    operands, with no reduction (the trade of Chen et al. 2016, arXiv
    1604.06174), so the recomputed matrix is the forward's, bit for bit. The
    buffers belong to the call, so graphs alive at the same time share
    none."""
    width = q.shape[1]
    if k.shape[1] != width or k.shape[0] != v.shape[0]:
        raise DimensionError(
            f"multihead_attention: q {q.shape}, k {k.shape}, v {v.shape} do not line up"
        )
    if heads < 1 or width % heads != 0 or v.shape[1] % heads != 0:
        raise DimensionError(
            f"multihead_attention: {heads} heads do not divide widths {width} and {v.shape[1]}"
        )
    q_segs = _segments(q_bounds, q.shape[0], "multihead_attention queries")
    kv_segs = _segments(kv_bounds, k.shape[0], "multihead_attention keys")
    if len(q_segs) != len(kv_segs):
        raise DimensionError(
            f"multihead_attention: {len(q_segs)} query segments, {len(kv_segs)} key segments"
        )
    dq, dv = width // heads, v.shape[1] // heads
    factor = 1.0 / np.sqrt(dq)
    cols = [(slice(h * dq, (h + 1) * dq), slice(h * dv, (h + 1) * dv)) for h in range(heads)]
    groups = _groups(q_segs, kv_segs)
    biggest = max((g[-1][1] - g[0][0]) * (g[0][3] - g[0][2]) for g in groups)
    scratch = np.empty(biggest)
    # Scoring records no graph, so it keeps no per-group intermediates.
    track = q.requires_grad or k.requires_grad or v.requires_grad
    inputs = ((q._node, q.shape), (k._node, k.shape), (v._node, v.shape))
    saved = []
    data = np.empty((q.shape[0], v.shape[1]))
    for group in groups:
        base = group[0][0]
        block = (group[-1][1] - base, group[0][3] - group[0][2])
        w = _block(scratch, *block)
        for c, cv in cols:
            parts = [
                (
                    slice(q0, q1),
                    slice(k0, k1),
                    slice(q0 - base, q1 - base),
                    np.ascontiguousarray(q.data[q0:q1, c]),
                    k.data[k0:k1, c].T.copy(),
                    np.ascontiguousarray(v.data[k0:k1, cv]),
                )
                for q0, q1, k0, k1 in group
            ]
            stats = _probabilities(parts, factor, w)
            for qr, _kr, wr, _qh, _kt, vh in parts:
                np.matmul(w[wr], vh, out=data[qr, cv])
            if track:
                saved.append((c, cv, block, parts, stats))

    def backward(g: np.ndarray) -> None:
        gq, gk, gv = (np.empty(shape) for _, shape in inputs)
        work = np.empty((3, biggest))
        for c, cv, block, parts, stats in saved:
            w, gw, products = (_block(buf, *block) for buf in work)
            _probabilities(parts, factor, w, stats)
            for qr, kr, wr, _qh, _kt, vh in parts:
                gh = np.ascontiguousarray(g[qr, cv])
                np.matmul(gh, vh.T, out=gw[wr])
                np.matmul(w[wr].T, gh, out=gv[kr, cv])
            # gw becomes w * (gw - (gw * w).sum(axis=1)) * factor, op by op.
            gw -= np.multiply(gw, w, out=products).sum(axis=1, keepdims=True)
            gw *= w
            gw *= factor
            for qr, kr, wr, qh, kt, _vh in parts:
                np.matmul(gw[wr], kt.T, out=gq[qr, c])
                gk[kr, c] = (qh.T @ gw[wr]).T
        for (node, _), gt in zip(inputs, (gq, gk, gv)):
            if node is not None:
                node.accumulate(gt, fresh=True)

    return _node("multihead_attention", data, (q, k, v), backward)


def layernorm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row layer normalization with learned 1xC gain and bias."""
    c = x.shape[1]
    if gain.shape != (1, c) or bias.shape != (1, c):
        raise DimensionError(
            f"layernorm_rows: gain {gain.shape} / bias {bias.shape} must be (1, {c})"
        )
    mu = x.data.sum(axis=1, keepdims=True) / c
    var = ((x.data - mu) ** 2).sum(axis=1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data
    nx, ngain, nbias, gamma = x._node, gain._node, bias._node, gain.data

    def backward(g: np.ndarray) -> None:
        if ngain is not None:
            ngain.accumulate((g * xhat).sum(axis=0, keepdims=True), fresh=True)
        if nbias is not None:
            nbias.accumulate(g.sum(axis=0, keepdims=True), fresh=True)
        if nx is not None:
            gh = g * gamma
            term = gh - gh.sum(axis=1, keepdims=True) / c
            term -= xhat * ((gh * xhat).sum(axis=1, keepdims=True) / c)
            nx.accumulate(inv * term, fresh=True)

    return _node("layernorm_rows", data, (x, gain, bias), backward)
