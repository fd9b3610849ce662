"""The pseudo-inverse projection of the entropic probe, kept by the tests
as a reference for the cached affine projector in `causalbox.monogamy`.

`project` rebuilds nothing itself but takes the transposed pseudo-inverse
of A: each iteration moves every row onto {x : A x = b} by subtracting
(X Aᵀ − b) A⁺ᵀ, clips at zero and renormalises each 8-cell block of the
table, giving a block that sums to at most 1e-12 the value 0.125.
`entropic_probe` is the probe loop around it, building A and its
pseudo-inverse on every call, with the same rng draws, batch size,
iteration counts and σ schedule as the library.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import numpy as np

from causalbox.boxes import Srv
from causalbox.geometry import CausalOrder
from causalbox.monogamy import (
    EntropicProbeReport,
    _information_sum_batch,
    _triangle_rows,
    _vertex_information_sum,
    jamming_vertex_table,
)
from causalbox.ons import LayoutMismatch, named_constraints


def normalise(X):
    """Clip at zero and scale each block of eight cells to sum one; a
    block summing to at most 1e-12 becomes 0.125 throughout."""
    X = np.clip(X, 0.0, None)
    blocks = X.reshape(-1, 8, 8)
    sums = blocks.sum(axis=2, keepdims=True)
    return np.where(sums > 1e-12, blocks / sums, 0.125).reshape(-1, 64)


def project(X, A, b, pinv_t, iterations=60):
    for _ in range(iterations):
        X = X - (X @ A.T - b) @ pinv_t
        X = normalise(X)
    return X


def entropic_probe(
    order: CausalOrder,
    inputs: Sequence[Srv],
    outputs: Sequence[Srv],
    *,
    samples: int = 10_000,
    seed: int = 0,
    local_steps: int = 200,
) -> EntropicProbeReport:
    named_constraints("six_config_triangle", order, inputs, outputs)
    for s in (*inputs, *outputs):
        if len(s.alphabet) != 2:
            raise LayoutMismatch("entropic probe needs binary alphabets")
    vertex = _vertex_information_sum(jamming_vertex_table())
    uniform = _vertex_information_sum(
        {
            xyz: {
                abc: Fraction(1, 8)
                for abc in itertools.product((0, 1), repeat=3)
            }
            for xyz in itertools.product((0, 1), repeat=3)
        }
    )
    A, b = _triangle_rows()
    pinv_t = np.linalg.pinv(A).T
    rng = np.random.default_rng(seed)

    def accept_mask(X):
        res = np.abs(X @ A.T - b).max(axis=1)
        return res < 1e-9

    best_val = float(vertex)
    best_point = None
    accepted = 0
    batch = 2000
    done = 0
    while done < samples:
        k = min(batch, samples - done)
        X = rng.random((k, 64)) ** 2
        X = project(X, A, b, pinv_t)
        mask = accept_mask(X)
        accepted += int(mask.sum())
        if mask.any():
            vals = _information_sum_batch(X[mask])
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val = float(vals[i])
                best_point = X[mask][i]
        done += k

    if best_point is None:
        # Climb from the exact vertex instead.
        vertex_flat = np.zeros(64)
        for xyz, row in jamming_vertex_table().items():
            for abc, p in row.items():
                idx = 0
                for v in (*xyz, *abc):
                    idx = idx * 2 + v
                vertex_flat[idx] = float(p)
        best_point = vertex_flat
    sigma = 0.05
    for step in range(local_steps):
        props = best_point + rng.normal(0.0, sigma, size=(32, 64))
        props = project(props, A, b, pinv_t, iterations=25)
        mask = accept_mask(props)
        if mask.any():
            vals = _information_sum_batch(props[mask])
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val = float(vals[i])
                best_point = props[mask][i]
        sigma = max(sigma * 0.98, 0.005)

    bound = 1.0 + 1e-9
    return EntropicProbeReport(
        vertex_value=vertex,
        uniform_value=uniform,
        max_sampled=best_val,
        bound=bound,
        samples=samples,
        accepted=accepted,
        ok=best_val <= bound and vertex == 1,
    )
