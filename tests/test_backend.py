"""The numpy reduction behind every grid mean, `quadrature._abs_sum`, through
`GridEvaluation.abs_mean` on a full grid, checked against a plain numpy
mean of |v|."""

import numpy as np
import pytest

from expsums.quadrature import GridEvaluation


def test_abs_mean_matches_numpy_oracle():
    rng = np.random.default_rng(808)
    # sizes straddle 128-element blocks and the pairwise-summation unroll
    for n in (1, 2, 127, 128, 129, 255, 256, 1000, 65536, 65537):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = GridEvaluation((n,), v).abs_mean()
        assert got == pytest.approx(float(np.mean(np.abs(v))), rel=1e-13)
    v = rng.standard_normal((129, 7)) + 1j * rng.standard_normal((129, 7))
    assert GridEvaluation(v.shape, v).abs_mean() == pytest.approx(
        float(np.mean(np.abs(v))), rel=1e-13)


def test_abs_mean_numpy_path_directly():
    rng = np.random.default_rng(809)
    v = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    assert GridEvaluation((500,), v).abs_mean() == pytest.approx(
        float(np.mean(np.abs(v))), rel=1e-13)
