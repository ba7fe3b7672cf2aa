import numpy as np
import pytest

from atomreadout.experiments import derive_substream


def test_same_path_reproduces_stream():
    a = derive_substream(12345, (1, 2, 3)).random(100)
    b = derive_substream(12345, (1, 2, 3)).random(100)
    assert np.array_equal(a, b)


def test_sibling_paths_differ():
    a = derive_substream(12345, (0,)).random(8)
    b = derive_substream(12345, (1,)).random(8)
    assert not np.array_equal(a, b)


def test_path_depth_matters():
    a = derive_substream(7, (1,)).random(8)
    b = derive_substream(7, (1, 0)).random(8)
    assert not np.array_equal(a, b)


def test_seed_matters():
    a = derive_substream(1, (5,)).random(8)
    b = derive_substream(2, (5,)).random(8)
    assert not np.array_equal(a, b)


def test_stream_independence_smoke():
    # adjacent-path streams show no correlation beyond 3 sigma on 1e5 pairs
    n = 100_000
    x = derive_substream(99, (0,)).standard_normal(n)
    y = derive_substream(99, (1,)).standard_normal(n)
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_out_of_range_seed_rejected():
    with pytest.raises(ValueError):
        derive_substream(-1, (0,))
    with pytest.raises(ValueError):
        derive_substream(2**64, (0,))
