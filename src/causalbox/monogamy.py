"""Monogamy of pairwise XOR games among three agents.

One total function f on [m] x [m] spawns three pairwise games (AB, BC,
AC all scored by f on the relevant inputs, uniform input weights).  How
large the sum of winning probabilities can get depends on the causal
regime: unconstrained signalling, no-signalling, or fixed bystander
inputs.  A numerical probe explores the entropic version of the bound
on the jamming-style constraint polytope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .boxes import Srv
from .geometry import CausalOrder
from .ons import LayoutMismatch, named_constraints
from .simplex import LpResult, solve_lp, verify_lp_certificate


def _plain_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class XorGame:
    """Total predicate table f[x][y] in {0, 1} on inputs 0..m-1."""

    m: int
    f: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # a float, bool or string is rejected, not converted to a bit
        if not _plain_int(self.m):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        rows = tuple(tuple(row) for row in self.f)
        object.__setattr__(self, "f", rows)
        if self.m < 1 or len(rows) != self.m:
            raise ValueError("f must have m rows")
        for row in rows:
            if len(row) != self.m or not all(_plain_int(v) and v in (0, 1) for v in row):
                raise ValueError("f entries must be bits in an m by m table")

    @staticmethod
    def chsh() -> "XorGame":
        return XorGame(2, ((0, 0), (0, 1)))

    @staticmethod
    def input_copy() -> "XorGame":
        # f(x, y) = x: winnable classically by broadcasting x.
        return XorGame(2, ((0, 0), (1, 1)))

    @staticmethod
    def constant(bit: int = 0, m: int = 2) -> "XorGame":
        return XorGame(m, tuple(tuple(bit for _ in range(m)) for _ in range(m)))

    def triples(self):
        return itertools.product(range(self.m), repeat=3)

    def pattern(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        """Required XOR values (a+b, b+c, a+c) at this input triple."""
        return self.f[x][y], self.f[y][z], self.f[x][z]


@dataclass(frozen=True)
class TripleClassification:
    """Input triples bucketed by how many pairwise conditions demand
    odd parity; the bucket decides the per-triple optimum."""

    s_aaa: int
    s_aac: int
    s_acc: int
    s_ccc: int

    @property
    def total(self) -> int:
        return self.s_aaa + self.s_aac + self.s_acc + self.s_ccc


@dataclass(frozen=True)
class GameValueReport:
    value: Fraction
    theory: str
    witness: Mapping | None = None
    lp: LpResult | None = None
    detail: str = ""


def classify(game: XorGame) -> TripleClassification:
    counts = [0, 0, 0, 0]
    for x, y, z in game.triples():
        counts[sum(game.pattern(x, y, z))] += 1
    return TripleClassification(
        s_aaa=counts[3], s_aac=counts[2], s_acc=counts[1], s_ccc=counts[0]
    )


def _as_dist(row) -> dict[tuple[int, int, int], Fraction]:
    if isinstance(row, tuple):
        return {tuple(int(v) for v in row): Fraction(1)}
    return {tuple(int(v) for v in k): Fraction(p) for k, p in dict(row).items()}


TERM_CHECKS = {
    "ab": lambda abc, pat: abc[0] ^ abc[1] == pat[0],
    "bc": lambda abc, pat: abc[1] ^ abc[2] == pat[1],
    "ac": lambda abc, pat: abc[0] ^ abc[2] == pat[2],
}


def evaluate_behavior(
    game: XorGame, behavior: Mapping, terms: Sequence[str] = ("ab", "bc", "ac")
) -> Fraction:
    """Sum of the selected pairwise winning probabilities, each averaged
    over the bystander's input."""
    total = Fraction(0)
    for x, y, z in game.triples():
        pat = game.pattern(x, y, z)
        for abc, p in _as_dist(behavior[(x, y, z)]).items():
            total += p * sum(TERM_CHECKS[t](abc, pat) for t in terms)
    return total / game.m**3


def signalling_monogamy(game: XorGame) -> GameValueReport:
    """Closed-form optimum plus a deterministic witness.

    A triple with even demanded parity admits all three conditions at
    once; odd parity caps it at two, and the witness always satisfies
    the AB and BC conditions.
    """
    cls = classify(game)
    value = Fraction(
        2 * (cls.s_aaa + cls.s_acc) + 3 * (cls.s_ccc + cls.s_aac), game.m**3
    )
    witness = {}
    for x, y, z in game.triples():
        u, v, _ = game.pattern(x, y, z)
        witness[(x, y, z)] = (0, u, u ^ v)
    return GameValueReport(value=value, theory="signalling", witness=witness)


def brute_force_signalling(game: XorGame) -> GameValueReport:
    """Independent per-triple maximization over all eight outputs."""
    total = 0
    witness = {}
    for x, y, z in game.triples():
        u, v, w = game.pattern(x, y, z)
        best, best_abc = -1, None
        for a, b, c in itertools.product((0, 1), repeat=3):
            hits = (a ^ b == u) + (b ^ c == v) + (a ^ c == w)
            if hits > best:
                best, best_abc = hits, (a, b, c)
        total += best
        witness[(x, y, z)] = best_abc
    return GameValueReport(
        value=Fraction(total, game.m**3), theory="signalling", witness=witness
    )


# ----------------------------------------------------------------------
# no-signalling linear program


def build_ns_lp(game: XorGame, terms: Sequence[str] = ("ab", "ac")):
    """Equality-form LP data for maximizing the chosen pairwise terms
    over tripartite no-signalling behaviors.

    Variable order: (x, y, z, a, b, c) row-major.  Returns (A, b, c,
    index) where index maps the tuple to its column.
    """
    m = game.m
    keys = [
        (x, y, z, a, b, c)
        for x, y, z in game.triples()
        for a, b, c in itertools.product((0, 1), repeat=3)
    ]
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def blank():
        return [Fraction(0)] * n

    for x, y, z in game.triples():
        row = blank()
        for a, b, c in itertools.product((0, 1), repeat=3):
            row[index[(x, y, z, a, b, c)]] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))

    # Moving one party's input must not move the other two's marginal.
    parties = (
        (0, (1, 2)),  # x varies, (b, c) marginal fixed
        (1, (0, 2)),  # y varies, (a, c) marginal fixed
        (2, (0, 1)),  # z varies, (a, b) marginal fixed
    )
    for axis, kept in parties:
        others = [i for i in range(3) if i != axis]
        for ctx in itertools.product(range(m), repeat=2):
            for pair in itertools.product((0, 1), repeat=2):
                for moved in range(1, m):
                    row = blank()
                    for variant, sign in ((moved, 1), (0, -1)):
                        xyz = [0, 0, 0]
                        xyz[axis] = variant
                        xyz[others[0]], xyz[others[1]] = ctx
                        for abc in itertools.product((0, 1), repeat=3):
                            if (abc[kept[0]], abc[kept[1]]) == pair:
                                row[index[(*xyz, *abc)]] += sign
                    rows.append(row)
                    rhs.append(Fraction(0))

    objective = blank()
    for x, y, z in game.triples():
        pat = game.pattern(x, y, z)
        for abc in itertools.product((0, 1), repeat=3):
            weight = sum(TERM_CHECKS[t](abc, pat) for t in terms)
            if weight:
                objective[index[(x, y, z, *abc)]] = Fraction(weight, m**3)
    return rows, rhs, objective, index


def ns_monogamy_lp(
    game: XorGame, terms: Sequence[str] = ("ab", "ac")
) -> GameValueReport:
    """Exact optimum of the chosen pairwise sum under no-signalling,
    with a zero-gap dual certificate attached."""
    A, b, c, index = build_ns_lp(game, terms)
    result = solve_lp(A, b, c, maximize=True)
    if not verify_lp_certificate(A, b, c, result, maximize=True):
        raise AssertionError("simplex returned an uncertified optimum")
    behavior: dict = {}
    for (x, y, z, a, bb, cc), col in index.items():
        p = result.x[col]
        if p:
            behavior.setdefault((x, y, z), {})[(a, bb, cc)] = p
    return GameValueReport(
        value=result.value,
        theory="no_signalling",
        witness=behavior,
        lp=result,
        detail="terms=" + "+".join(terms),
    )


# ----------------------------------------------------------------------
# fixed bystander inputs


def evaluate_specific(
    game: XorGame, behavior: Mapping, fixed_inputs: tuple[int, int, int]
) -> Fraction:
    """Score ω_AB|z=z0 + ω_AC|y=y0 + ω_BC|x=x0 for a given behavior."""
    x0, y0, z0 = fixed_inputs
    total = Fraction(0)
    for x, y, z in game.triples():
        weights = []
        if z == z0:
            weights.append("ab")
        if y == y0:
            weights.append("ac")
        if x == x0:
            weights.append("bc")
        if not weights:
            continue
        pat = game.pattern(x, y, z)
        for abc, p in _as_dist(behavior[(x, y, z)]).items():
            total += p * sum(TERM_CHECKS[t](abc, pat) for t in weights)
    return total / game.m**2


def specific_input_value(
    game: XorGame, fixed_inputs: tuple[int, int, int] | None = (0, 0, 0)
) -> GameValueReport:
    """Optimum when each pairwise term pins its bystander input.

    Per-triple enumeration over the referenced triples only; passing
    None averages the bystanders instead, which is exactly the plain
    signalling optimum.
    """
    if fixed_inputs is None:
        return signalling_monogamy(game)
    x0, y0, z0 = fixed_inputs
    for v in (x0, y0, z0):
        if not 0 <= v < game.m:
            raise ValueError("fixed input out of range")
    total = 0
    witness = {}
    for x, y, z in game.triples():
        terms = []
        if z == z0:
            terms.append("ab")
        if y == y0:
            terms.append("ac")
        if x == x0:
            terms.append("bc")
        if not terms:
            continue
        pat = game.pattern(x, y, z)
        best, best_abc = -1, None
        for abc in itertools.product((0, 1), repeat=3):
            hits = sum(TERM_CHECKS[t](abc, pat) for t in terms)
            if hits > best:
                best, best_abc = hits, abc
        total += best
        witness[(x, y, z)] = best_abc
    return GameValueReport(
        value=Fraction(total, game.m**2),
        theory="specific_input",
        witness=witness,
        detail=f"fixed_inputs={fixed_inputs}",
    )


# ----------------------------------------------------------------------
# entropic probe on the triangle constraint polytope


def jamming_vertex_table() -> dict:
    """The extreme point where the AB jammer input is broadcast into
    the parity of A and B while C stays independent."""
    table = {}
    for x, y, z in itertools.product((0, 1), repeat=3):
        table[(x, y, z)] = {
            (a, b, c): Fraction(1, 4)
            for a, b, c in itertools.product((0, 1), repeat=3)
            if a ^ b == z
        }
    return table


def _exact_log2(p: Fraction) -> int:
    num, den = p.numerator, p.denominator
    if num & (num - 1) or den & (den - 1):
        raise ValueError(f"{p} is not a power of two")
    return (num.bit_length() - 1) - (den.bit_length() - 1)


def mutual_information_bits_exact(joint: Mapping[tuple, Fraction]) -> Fraction:
    """I(M:N) in bits for a joint distribution whose probabilities are
    all powers of two (or zero); everything stays rational."""
    left: dict = {}
    right: dict = {}
    for (mv, nv), p in joint.items():
        left[mv] = left.get(mv, Fraction(0)) + p
        right[nv] = right.get(nv, Fraction(0)) + p
    total = Fraction(0)
    for (mv, nv), p in joint.items():
        if p == 0:
            continue
        total += p * (_exact_log2(p) - _exact_log2(left[mv]) - _exact_log2(right[nv]))
    return total


def _vertex_information_sum(table: Mapping) -> Fraction:
    """I(AB:Z) + I(AC:Y) + I(BC:X) with uniform inputs, exact."""
    out = Fraction(0)
    groups = (((0, 1), 2), ((0, 2), 1), ((1, 2), 0))
    for kept, jammer_axis in groups:
        joint: dict = {}
        for xyz, row in table.items():
            for abc, p in row.items():
                key = ((abc[kept[0]], abc[kept[1]]), xyz[jammer_axis])
                joint[key] = joint.get(key, Fraction(0)) + p * Fraction(1, 8)
        out += mutual_information_bits_exact(joint)
    return out


@dataclass(frozen=True)
class EntropicProbeReport:
    vertex_value: Fraction
    uniform_value: Fraction
    max_sampled: float
    bound: float
    samples: int
    accepted: int
    ok: bool


def _triangle_rows() -> tuple[np.ndarray, np.ndarray]:
    """Constraint matrix for the triangle family on the flattened
    (x, y, z, a, b, c) table: row normalization plus, for each pair of
    readers, invariance of their joint marginal under the two inputs
    that are not their own jammer."""
    import numpy as np

    def flat(x, y, z, a, b, c):
        return (((((x * 2 + y) * 2 + z) * 2 + a) * 2 + b) * 2) + c

    rows, rhs = [], []
    for x, y, z in itertools.product((0, 1), repeat=3):
        row = np.zeros(64)
        for a, b, c in itertools.product((0, 1), repeat=3):
            row[flat(x, y, z, a, b, c)] = 1.0
        rows.append(row)
        rhs.append(1.0)
    specs = (
        ((0, 1), 2, (0, 1)),  # P(ab | ...) may depend on z only
        ((0, 2), 1, (0, 2)),  # P(ac | ...) on y only
        ((1, 2), 0, (1, 2)),  # P(bc | ...) on x only
    )
    for kept, own_axis, free_axes in specs:
        for own in (0, 1):
            for pair in itertools.product((0, 1), repeat=2):
                variants = [v for v in itertools.product((0, 1), repeat=2)]
                for var in variants[1:]:
                    row = np.zeros(64)
                    for variant, sign in ((var, 1.0), (variants[0], -1.0)):
                        xyz = [0, 0, 0]
                        xyz[own_axis] = own
                        xyz[free_axes[0]], xyz[free_axes[1]] = variant
                        for abc in itertools.product((0, 1), repeat=3):
                            if (abc[kept[0]], abc[kept[1]]) == pair:
                                row[flat(*xyz, *abc)] += sign
                    rows.append(row)
                    rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def _information_sum_batch(tables: np.ndarray) -> np.ndarray:
    """Objective for a batch of flattened tables, in bits."""
    import numpy as np

    T = tables.reshape(-1, 2, 2, 2, 2, 2, 2)  # (n, x, y, z, a, b, c)

    def mi(joint):  # joint shape (n, u, v, s): pair outcomes u, v and setting s
        p = joint
        pm = p.sum(axis=3, keepdims=True)
        ps = p.sum(axis=(1, 2), keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(p > 1e-15, p / (pm * ps), 1.0)
            terms = np.where(p > 1e-15, p * np.log2(ratio), 0.0)
        return terms.sum(axis=(1, 2, 3))

    j_ab_z = T.sum(axis=6).mean(axis=(1, 2)) / 2.0  # (n, z, a, b)
    j_ab_z = np.moveaxis(j_ab_z, 1, -1)  # (n, a, b, z)
    j_ac_y = T.sum(axis=5).mean(axis=(1, 3)) / 2.0  # (n, y, a, c)
    j_ac_y = np.moveaxis(j_ac_y, 1, -1)
    j_bc_x = T.sum(axis=4).mean(axis=(2, 3)) / 2.0  # (n, x, b, c)
    j_bc_x = np.moveaxis(j_bc_x, 1, -1)
    return mi(j_ab_z) + mi(j_ac_y) + mi(j_bc_x)


def entropic_probe(
    order: CausalOrder,
    inputs: Sequence[Srv],
    outputs: Sequence[Srv],
    *,
    samples: int = 10_000,
    seed: int = 0,
    local_steps: int = 200,
) -> EntropicProbeReport:
    """Search the triangle constraint polytope for the largest value of
    I(AB:Z) + I(AC:Y) + I(BC:X) under uniform inputs.

    The jamming vertex is evaluated exactly (it scores 1); random
    interior points come from projection sampling, refined by a little
    hill climbing.  The report asserts nothing: callers compare
    max_sampled against bound themselves via ok.
    """
    import numpy as np

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

    def project(X, iterations=60):
        for _ in range(iterations):
            X = X - (X @ A.T - b) @ pinv_t
            X = np.clip(X, 0.0, None)
            blocks = X.reshape(-1, 8, 8)
            sums = blocks.sum(axis=2, keepdims=True)
            X = np.where(sums > 1e-12, blocks / sums, 0.125).reshape(-1, 64)
        return X

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
        X = project(X)
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
        props = project(props, iterations=25)
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
