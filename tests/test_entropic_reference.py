"""The cached affine projector of the entropic probe against the
pseudo-inverse reference.

`entropic_reference.py` keeps the two-matmul projection X − (X Aᵀ − b) A⁺ᵀ
and the probe loop around it.  The library's probe must return an equal
`EntropicProbeReport` (so `max_sampled` is bit-equal) on the acceptance
call, the two `TestEntropicProbe` calls and seeded calls of the size
the benchmark runs.  The cached polytope must be a true projector and
read-only, and the 0.125 fallback for a block with nothing left after
clipping must match the reference's renormalisation.

The library climbs in stacked runs of steps: a stack must project,
pass the acceptance test and score exactly as its steps do one by one,
the flat renormalisation must equal the per-block one bit for bit, and
with improvements forced into every position of a run the stacked
climb must end at the reference's report and best point.
"""

import random

import numpy as np
import pytest

import causalbox.monogamy as monogamy
import causalbox.scenario as sc
import entropic_reference as ref
from causalbox.monogamy import (
    _CLIMB_RUN,
    _accepted,
    _information_sum_batch,
    _polytope,
    _project,
    entropic_probe,
)
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


def climb_stack(steps, seed=0, sigma=0.05):
    """The proposals of `steps` climb steps around a point of the
    sampling phase, 32 rows each, as the library stacks them."""
    rng = np.random.default_rng(seed)
    point = _project(rng.random((1, 64)) ** 2)[0]
    return point + rng.normal(0.0, sigma, size=(steps, 32, 64))


class TestStackedClimb:
    @pytest.mark.parametrize("steps", [1, 2, _CLIMB_RUN - 1, _CLIMB_RUN, 50])
    @pytest.mark.parametrize("iterations", [25, 60])
    def test_stacked_project_equals_per_step(self, steps, iterations):
        noise = climb_stack(steps, seed=steps)
        got = _project(noise.reshape(-1, 64), iterations).reshape(steps, 32, 64)
        for j in range(steps):
            assert np.array_equal(got[j], _project(noise[j], iterations))

    @pytest.mark.parametrize(
        "rows, iterations", [(32, 25), (_CLIMB_RUN * 32, 25), (500, 60), (2001, 60)]
    )
    def test_flat_renormalisation_equals_blocked(self, rows, iterations):
        _, _, P, c, S = _polytope()
        X = np.random.default_rng(rows).random((rows, 64)) ** 2
        assert np.array_equal(
            _project(X, iterations), ref.project_blocked(X, P, c, S, iterations)
        )

    def test_flat_fallback_equals_blocked(self):
        A, b, P, c, S = _polytope()
        X = np.random.default_rng(0).normal(size=(200, 80)) @ A * 1e16
        X[0, 3], X[1, 10], X[2, :8] = np.nan, np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            got, want = _project(X, 2), ref.project_blocked(X, P, c, S, 2)
        assert (got == 0.125).any()
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("iterations", [25, 40, 100])
    def test_acceptance_and_scores_on_a_stack_equal_per_step(self, iterations):
        # 25 and 40 iterations accept some proposals of the run but not
        # all, some steps none; 100 accept them all
        steps = _CLIMB_RUN
        props = _project(climb_stack(steps, seed=7).reshape(-1, 64), iterations)
        mask = _accepted(props)
        vals = _information_sum_batch(props[mask])
        per_step_masks, per_step_vals = [], []
        for step in props.reshape(steps, 32, 64):
            m = _accepted(step)
            per_step_masks.append(m)
            per_step_vals.append(_information_sum_batch(step[m]))
        assert np.array_equal(mask, np.concatenate(per_step_masks))
        assert np.array_equal(vals, np.concatenate(per_step_vals))
        if iterations < 100:
            assert 0 < mask.sum() < len(mask)

    def test_forced_improvements_match_reference(self, monkeypatch):
        # A linear score, patched into both probes, makes the climb improve
        # often; 75 more projection iterations let every proposal pass the
        # acceptance test.  The reference scores one step per call, so its
        # calls show where improvements land.
        weights = np.random.default_rng(0).normal(size=64)
        project = monogamy._project

        def scorer(log):
            def score(X):
                vals = 1.0 + (X * weights).sum(axis=1)
                log.append((X.copy(), vals))
                return vals

            return score

        lib_log, ref_log = [], []
        monkeypatch.setattr(
            monogamy, "_project", lambda X, iterations=60: project(X, iterations + 75)
        )
        monkeypatch.setattr(
            ref,
            "project",
            lambda X, A, b, pinv_t, iterations=60: project(X, iterations + 75),
        )
        monkeypatch.setattr(monogamy, "_information_sum_batch", scorer(lib_log))
        monkeypatch.setattr(ref, "_information_sum_batch", scorer(ref_log))
        args = six_config()
        kwargs = dict(samples=50, seed=3, local_steps=3 * _CLIMB_RUN + 3)
        got, want = entropic_probe(*args, **kwargs), ref.entropic_probe(*args, **kwargs)
        assert got == want
        assert got.max_sampled.hex() == want.max_sampled.hex()

        sampled, steps = ref_log[0], ref_log[1:]
        assert len(steps) == kwargs["local_steps"]
        best, improved = max(1.0, sampled[1].max()), []
        for k, (X, vals) in enumerate(steps):
            assert len(X) == 32
            if vals.max() > best:
                best = vals.max()
                improved.append(k)
        positions = {k % _CLIMB_RUN for k in improved}
        assert {0, _CLIMB_RUN // 2, _CLIMB_RUN - 1} <= positions
        assert len(improved) < len(steps)

        def best_points(log):
            return [
                X[i] for X, vals in log for i in np.flatnonzero(vals == got.max_sampled)
            ]

        found = best_points(lib_log) + best_points(ref_log)
        assert len(found) >= 2
        assert all(np.array_equal(point, found[0]) for point in found)
