"""Monogamy of pairwise XOR games among three agents.

One total function f on [m] x [m] spawns three pairwise games (AB, BC,
AC all scored by f on the relevant inputs, uniform input weights).  How
large the sum of winning probabilities can get depends on the causal
regime: unconstrained signalling, no-signalling, or fixed bystander
inputs.  A numerical probe explores the entropic version of the bound
on the jamming-style constraint polytope.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .boxes import Srv
from .geometry import CausalOrder
from .ons import LayoutMismatch, named_constraints
from .rational import _plain_int
from .simplex import LpResult, solve_lp, verify_lp_certificate


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


# The pairwise terms in the order of XorGame.pattern's parities.
_TERMS = ("ab", "bc", "ac")


def _hits(abc, pattern, scored) -> int:
    """How many terms flagged in scored (in _TERMS order) the outputs
    (a, b, c) win against the demanded parities pattern."""
    a, b, c = abc
    u, v, w = pattern
    s_ab, s_bc, s_ac = scored
    return (s_ab and a ^ b == u) + (s_bc and b ^ c == v) + (s_ac and a ^ c == w)


def _scored_triples(game: XorGame, terms: Sequence[str], fixed_inputs):
    """Each input triple at which some selected term is scored, as
    (triple, demanded parities, scored flags in _TERMS order).

    With fixed_inputs None every selected term is scored everywhere, its
    bystander averaged; with (x0, y0, z0) a term is scored only where its
    bystander input is pinned: ab at z = z0, bc at x = x0, ac at y = y0.
    The pins must be a 3-tuple of ints in [0, m); a float, bool or string
    is rejected, not converted.
    """
    if not set(terms) <= set(_TERMS):
        raise ValueError(f"terms must be among {_TERMS}, got {terms!r}")
    if fixed_inputs is not None:
        if not isinstance(fixed_inputs, tuple) or len(fixed_inputs) != 3:
            raise ValueError(f"fixed inputs must be a 3-tuple, got {fixed_inputs!r}")
        for v in fixed_inputs:
            if not _plain_int(v) or not 0 <= v < game.m:
                raise ValueError(f"fixed input {v!r} is not an integer in [0, {game.m})")
    selected = tuple(t in terms for t in _TERMS)
    for x, y, z in game.triples():
        scored = selected
        if fixed_inputs is not None:
            x0, y0, z0 = fixed_inputs
            scored = (
                selected[0] and z == z0, selected[1] and x == x0, selected[2] and y == y0
            )
            if not any(scored):
                continue
        yield (x, y, z), game.pattern(x, y, z), scored


def evaluate_behavior(
    game: XorGame,
    behavior: Mapping,
    terms: Sequence[str] = _TERMS,
    fixed_inputs: tuple[int, int, int] | None = None,
) -> Fraction:
    """Sum of the selected pairwise winning probabilities, each averaged
    over the bystander's input, or with fixed_inputs (x0, y0, z0) read
    at the pinned bystander: ω_AB|z=z0 + ω_BC|x=x0 + ω_AC|y=y0.  The
    behavior is looked up only at triples where some term is scored."""
    total = Fraction(0)
    for xyz, pattern, scored in _scored_triples(game, terms, fixed_inputs):
        for abc, p in _as_dist(behavior[xyz]).items():
            total += p * _hits(abc, pattern, scored)
    return total / game.m ** (3 if fixed_inputs is None else 2)


@functools.cache
def _best_outputs(pattern, scored) -> tuple[int, tuple[int, int, int]]:
    """The most scored terms any outputs win at one triple, and the
    first output triple in product order that wins that many."""
    best, best_abc = -1, None
    for abc in itertools.product((0, 1), repeat=3):
        hits = _hits(abc, pattern, scored)
        if hits > best:
            best, best_abc = hits, abc
    return best, best_abc


def _per_triple_optimum(game: XorGame, fixed_inputs) -> tuple[Fraction, dict]:
    """Optimum of all three terms with each triple answered on its own,
    and the deterministic witness that attains it."""
    total = 0
    witness = {}
    for xyz, pattern, scored in _scored_triples(game, _TERMS, fixed_inputs):
        hits, witness[xyz] = _best_outputs(pattern, scored)
        total += hits
    return Fraction(total, game.m ** (3 if fixed_inputs is None else 2)), witness


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
    value, witness = _per_triple_optimum(game, None)
    return GameValueReport(value=value, theory="signalling", witness=witness)


# ----------------------------------------------------------------------
# no-signalling linear program


def _marginal_rows(m: int, specs) -> tuple[list[list[int]], list[int]]:
    """Int equality rows on the row-major (x, y, z, a, b, c) table with m
    inputs per party and binary outputs.

    First one normalisation row per input triple.  Then each spec
    (kept, fixed, free) names two outputs and a split of the three input
    axes: for every value of the fixed inputs, every pair of kept
    outputs and every value of the free inputs after the first, one row
    says the kept outputs' joint marginal there equals the one at the
    first (all-zero) value of the free inputs.
    """
    width = 8 * m**3

    def col(xyz, abc):
        x, y, z = xyz
        a, b, c = abc
        return ((x * m + y) * m + z) * 8 + a * 4 + b * 2 + c

    outs = list(itertools.product((0, 1), repeat=3))
    rows: list[list[int]] = []
    rhs: list[int] = []
    for xyz in itertools.product(range(m), repeat=3):
        row = [0] * width
        for abc in outs:
            row[col(xyz, abc)] = 1
        rows.append(row)
        rhs.append(1)
    for kept, fixed, free in specs:
        variants = list(itertools.product(range(m), repeat=len(free)))
        for ctx in itertools.product(range(m), repeat=len(fixed)):
            for pair in itertools.product((0, 1), repeat=2):
                for var in variants[1:]:
                    row = [0] * width
                    for values, sign in ((var, 1), (variants[0], -1)):
                        xyz = [0, 0, 0]
                        for axis, v in (*zip(fixed, ctx), *zip(free, values)):
                            xyz[axis] = v
                        for abc in outs:
                            if (abc[kept[0]], abc[kept[1]]) == pair:
                                row[col(xyz, abc)] += sign
                    rows.append(row)
                    rhs.append(0)
    return rows, rhs


# No-signalling: moving one party's input must not move the other two's
# marginal, as (kept outputs, fixed inputs, free input).
_NS_SPECS = (
    ((1, 2), (1, 2), (0,)),  # x varies, (b, c) marginal fixed
    ((0, 2), (0, 2), (1,)),  # y varies, (a, c) marginal fixed
    ((0, 1), (0, 1), (2,)),  # z varies, (a, b) marginal fixed
)


def build_ns_lp(game: XorGame, terms: Sequence[str] = ("ab", "ac")):
    """Equality-form LP data for maximizing the chosen pairwise terms
    over tripartite no-signalling behaviors.

    Variable order: (x, y, z, a, b, c) row-major.  Returns (A, b, c,
    index) where index maps the tuple to its column.  Every entry of A
    and b is an int (0 or ±1); the objective's nonzero entries are
    Fractions over m**3 and its zeros are ints.
    """
    m = game.m
    keys = [
        (x, y, z, a, b, c)
        for x, y, z in game.triples()
        for a, b, c in itertools.product((0, 1), repeat=3)
    ]
    index = {k: i for i, k in enumerate(keys)}
    rows, rhs = _marginal_rows(m, _NS_SPECS)
    objective: list[int | Fraction] = [0] * len(keys)
    for xyz, pattern, scored in _scored_triples(game, terms, None):
        for abc in itertools.product((0, 1), repeat=3):
            weight = _hits(abc, pattern, scored)
            if weight:
                objective[index[(*xyz, *abc)]] = Fraction(weight, m**3)
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


def specific_input_value(
    game: XorGame, fixed_inputs: tuple[int, int, int] | None = (0, 0, 0)
) -> GameValueReport:
    """Optimum when each pairwise term pins its bystander input.

    Per-triple optimum over the referenced triples only; passing None
    averages the bystanders instead, which is exactly the plain
    signalling optimum.  fixed_inputs must be a 3-tuple of ints in
    [0, m) (not bools); anything else raises ValueError.
    """
    if fixed_inputs is None:
        return signalling_monogamy(game)
    value, witness = _per_triple_optimum(game, fixed_inputs)
    return GameValueReport(
        value=value,
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


# The triangle family: each pair of readers' joint marginal may depend
# only on their own jammer's input, as (kept outputs, jammer input,
# free inputs).
_TRIANGLE_SPECS = (
    ((0, 1), (2,), (0, 1)),  # P(ab | ...) may depend on z only
    ((0, 2), (1,), (0, 2)),  # P(ac | ...) on y only
    ((1, 2), (0,), (1, 2)),  # P(bc | ...) on x only
)


def _triangle_rows() -> tuple[np.ndarray, np.ndarray]:
    """Constraint matrix for the triangle family on the flattened
    (x, y, z, a, b, c) table, as float arrays: row normalization plus,
    for each pair of readers, invariance of their joint marginal under
    the two inputs that are not their own jammer."""
    import numpy as np

    rows, rhs = _marginal_rows(2, _TRIANGLE_SPECS)
    return np.array(rows, dtype=float), np.array(rhs, dtype=float)


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


@functools.cache
def _polytope():
    """The triangle system and the pieces of one projection step, built
    once per process as read-only arrays: A and b (for the acceptance
    residual), the symmetric projector P = I − A⁺A onto null(A), the
    offset c = A⁺b, so that X P + c moves each row of X to its nearest
    point of {A x = b}, and the 64 x 8 indicator S of the eight 8-cell
    blocks of the table, so that X S holds the block sums."""
    import numpy as np

    A, b = _triangle_rows()
    pinv = np.linalg.pinv(A)
    P = np.eye(64) - pinv @ A
    c = pinv @ b
    S = np.repeat(np.eye(8), 8, axis=0)
    for arr in (A, b, P, c, S):
        arr.flags.writeable = False
    return A, b, P, c, S


def _project(X, iterations=60):
    """Alternate the affine step X P + c with clipping at zero and
    renormalising each block of eight cells to sum one; a block summing
    to at most 1e-12 becomes 0.125 throughout.  X itself is not
    changed."""
    import numpy as np

    _, _, P, c, S = _polytope()
    for _ in range(iterations):
        X = X @ P
        X += c
        np.maximum(X, 0.0, out=X)
        sums = X @ S
        big = sums > 1e-12
        blocks = X.reshape(-1, 8, 8)
        np.divide(blocks, sums[:, :, None], out=blocks, where=big[:, :, None])
        if not big.all():
            blocks[~big] = 0.125
    return X


@functools.cache
def _exact_values() -> tuple[Fraction, Fraction]:
    """The information sum at the jamming vertex and at the uniform
    table, exactly."""
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
    return vertex, uniform


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
    hill climbing.  Each projection iteration is one affine map X P + c,
    with the projector P = I − A⁺A onto null(A) and c = A⁺b computed
    once per process, followed by clipping and block renormalisation.
    A point is accepted only when its residual |X Aᵀ − b| against the
    raw constraint rows is below 1e-9.  The report asserts nothing:
    callers compare max_sampled against bound themselves via ok.

    samples, local_steps and seed must be ints >= 0 (not bools), so the
    same arguments always give the same report; anything else raises
    ValueError.
    """
    for name, value in (
        ("samples", samples), ("seed", seed), ("local_steps", local_steps)
    ):
        if not _plain_int(value) or value < 0:
            raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    for s in (*inputs, *outputs):
        if len(s.alphabet) != 2:
            raise LayoutMismatch("entropic probe needs binary alphabets")
    named_constraints("six_config_triangle", order, inputs, outputs)
    import numpy as np

    vertex, uniform = _exact_values()
    A, b, _, _, _ = _polytope()
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
        X = _project(X)
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
        props = _project(props, iterations=25)
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
