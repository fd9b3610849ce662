"""The cached affine projector of the entropic probe against the
pseudo-inverse reference.

`entropic_reference.py` keeps the two-matmul projection X − (X Aᵀ − b) A⁺ᵀ
and the probe loop around it.  The library's probe must return an equal
`EntropicProbeReport` (so `max_sampled` is bit-equal) on the acceptance
call, the two `TestEntropicProbe` calls and seeded calls of the size
the benchmark runs.  The cached polytope must be a true projector and
read-only, and the 0.125 fallback for a block with nothing left after
clipping must match the reference's renormalisation.
"""

import random

import numpy as np
import pytest

import causalbox.monogamy as monogamy
import causalbox.scenario as sc
import entropic_reference as ref
from causalbox.monogamy import _polytope, _project, entropic_probe
from test_monogamy import M2, triangle_layout


def six_config():
    scen = sc.preset("six_config")
    return scen.order, scen.inputs, scen.outputs


def test_ac13_call_matches_reference():
    args = six_config()
    kwargs = dict(samples=10_000, seed=0)
    assert entropic_probe(*args, **kwargs) == ref.entropic_probe(*args, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(samples=300, seed=1, local_steps=25),
        dict(samples=120, seed=9, local_steps=5),
    ],
)
def test_unit_calls_match_reference(kwargs):
    ins, outs = triangle_layout()
    assert entropic_probe(M2, ins, outs, **kwargs) == ref.entropic_probe(
        M2, ins, outs, **kwargs
    )


@pytest.mark.parametrize("k", range(12))
def test_bench_size_calls_match_reference(k):
    seed = random.Random(k).randrange(2**32)
    args = six_config()
    kwargs = dict(samples=500, seed=seed, local_steps=50)
    got, want = entropic_probe(*args, **kwargs), ref.entropic_probe(*args, **kwargs)
    assert got == want
    assert got.max_sampled.hex() == want.max_sampled.hex()


def test_small_sample_edges_match_reference():
    # no sample at all, a batch boundary, and no climbing
    args = six_config()
    for kwargs in (
        dict(samples=0, seed=4, local_steps=3),
        dict(samples=2001, seed=5, local_steps=0),
    ):
        assert entropic_probe(*args, **kwargs) == ref.entropic_probe(*args, **kwargs)


class TestPolytope:
    def test_projector_invariants(self):
        A, b, P, c, S = _polytope()
        assert A.shape == (80, 64) and P.shape == (64, 64)
        assert np.abs(P - P.T).max() < 1e-12
        assert np.abs(P @ P - P).max() < 1e-12
        assert np.abs(A @ P).max() < 1e-12
        assert np.abs(A @ c - b).max() < 1e-12
        assert np.linalg.matrix_rank(A) == 47
        assert round(np.trace(P)) == 64 - 47

    def test_block_indicator(self):
        _, _, _, _, S = _polytope()
        assert S.shape == (64, 8)
        for i in range(64):
            assert list(S[i]) == [1.0 if j == i // 8 else 0.0 for j in range(8)]

    def test_cached_and_read_only(self):
        first, second = _polytope(), _polytope()
        assert all(x is y for x, y in zip(first, second))
        for arr in first:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_project_leaves_its_input_alone(self):
        X = np.random.default_rng(2).random((5, 64))
        before = X.copy()
        _project(X, 3)
        assert np.array_equal(X, before)


class TestFallback:
    def test_rounded_all_negative_blocks_become_uniform(self):
        # Rows far out in the row space of A land, after the affine step,
        # on rounding noise around c; some blocks then have no positive cell.
        A, b, P, c, _ = _polytope()
        X = np.random.default_rng(0).normal(size=(200, 80)) @ A * 1e16
        Y = X @ P + c
        empty = (Y.reshape(-1, 8, 8) <= 0).all(axis=2)
        assert empty.sum() > 0
        with np.errstate(invalid="ignore"):
            want = ref.normalise(Y)
        got = _project(X, 1)
        assert (got.reshape(-1, 8, 8)[empty] == 0.125).all()
        assert np.array_equal(
            got.reshape(-1, 8, 8)[empty], want.reshape(-1, 8, 8)[empty]
        )
        assert np.abs(got - want).max() < 1e-15

    def test_threshold_matches_reference(self, monkeypatch):
        # With P = I and c = 0 the affine step is exact, so one iteration
        # is the clip and renormalisation alone; block sums straddle 1e-12.
        A, b, _, _, S = _polytope()
        monkeypatch.setattr(
            monogamy, "_polytope", lambda: (A, b, np.eye(64), np.zeros(64), S)
        )
        X = np.zeros((2, 64))
        X[0, :8] = -3.0
        X[0, 8], X[0, 9] = 1e-12, -1.0
        X[0, 16] = 5e-13
        X[0, 24], X[0, 25] = 2e-12, -1e-3
        X[0, 32] = 1e-10
        X[1] = (np.arange(64) % 9 - 3) / 4  # dyadic, so every block sum is exact
        with np.errstate(invalid="ignore"):
            want = ref.normalise(X)
        got = monogamy._project(X, 1)
        assert np.array_equal(got, want)
        assert (got[0, :24] == 0.125).all()
        assert got[0, 24] == got[0, 32] == 1.0

    def test_non_finite_rows_match_reference(self):
        A, b, _, _, _ = _polytope()
        pinv_t = np.linalg.pinv(A).T
        # a non-finite cell spreads through the affine step to every cell
        # of its row, and no block of the row compares above 1e-12
        X = np.full((3, 64), 0.5)
        X[0, 3] = np.nan
        X[1, 10] = np.inf
        X[2, :8] = -np.inf
        with np.errstate(invalid="ignore"):
            got = _project(X, 1)
            want = ref.project(X, A, b, pinv_t, iterations=1)
        assert np.array_equal(got, want)
        assert (got == 0.125).all()
