import math

import numpy as np
import pytest

from depfuse.model import ModelConfig, _expected_shapes, init_params
from depfuse.rng import STREAM_INIT, SplitMix64, derive_seed


def state(rng):
    return rng._state, rng._cached_normal


# 32768 is one whole block of words and 32769 one word into the next; a
# normals(n) block covers n values, so odd n also ends with a cached normal.
SIZES = [0, 1, 2, 3, 8, 33, 32768, 32769]


@pytest.mark.parametrize("n", SIZES)
def test_uniforms_equal_scalar_draws(n):
    block, scalar = SplitMix64(2**64 - 5), SplitMix64(2**64 - 5)
    got = block.uniforms(n)
    want = np.array([scalar.uniform() for _ in range(n)])
    assert got.tobytes() == want.tobytes()
    assert state(block) == state(scalar)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("cached", [False, True])
def test_normals_equal_scalar_draws(n, cached):
    block, scalar = SplitMix64(7), SplitMix64(7)
    if cached:  # one scalar draw leaves the pair's second value cached
        assert block.normal() == scalar.normal()
    # Unit scale: a mean and std would round away last-bit differences.
    got = block.normals(n)
    want = np.array([scalar.normal() for _ in range(n)])
    assert got.tobytes() == want.tobytes()
    assert state(block) == state(scalar)


def test_cached_normal_carries_across_blocks_and_uniform_draws():
    block, scalar = SplitMix64(99), SplitMix64(99)
    # uniform() leaves the cached normal alone; the next normal takes it.
    plan = [("n", 5), ("u", 3), ("n", 1), ("n", 4), ("u", 1), ("n", 7), ("n", 2)]
    for kind, n in plan:
        if kind == "n":
            got = block.normals(n)
            want = [scalar.normal() for _ in range(n)]
        else:
            got = block.uniforms(n)
            want = [scalar.uniform() for _ in range(n)]
        assert got.tobytes() == np.array(want).tobytes()
        assert state(block) == state(scalar)
    assert block._cached_normal is not None  # 5 + 1 + 4 + 7 + 2 values is odd


def scalar_init(config, seed):
    """init_params with one scalar draw per weight, in creation order."""
    rng = SplitMix64(derive_seed(seed, STREAM_INIT))
    out = {}
    for name, (rows, cols) in _expected_shapes(config).items():
        short = name.rsplit(".", 1)[-1]
        n = rows * cols
        if name in ("embedding", "positional"):
            flat = [rng.normal(0.0, 0.02) for _ in range(n)]
        elif short.endswith("_gain"):
            flat = [1.0] * n
        elif short.endswith("_bias") or short in ("ffn_b1", "ffn_b2", "mlp_b1", "mlp_b2"):
            flat = [0.0] * n
        else:
            fan = 1 + cols if name == "stat_scale" else rows + cols
            limit = math.sqrt(6.0 / fan)
            flat = [(rng.uniform() * 2.0 - 1.0) * limit for _ in range(n)]
        out[name] = np.array(flat).reshape(rows, cols)
    return out


def test_init_params_equal_scalar_loop():
    # 1,001 x 33 embedding entries are odd, so its last pair's second normal
    # becomes the first positional value.
    config = ModelConfig(
        d1=33, d2=7, d_k=5, refine_layers=1, refine_heads=3, vocab_size=1001, max_len=19
    )
    model = init_params(config, seed=4)
    want = scalar_init(config, 4)
    assert list(model.params) == list(want)
    for name, tensor in model.params.items():
        assert tensor.data.tobytes() == want[name].tobytes(), name
