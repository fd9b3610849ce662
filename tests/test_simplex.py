"""Exact simplex: optima, certificates, and a float cross-check.

`reference_dual` is the dense solve the simplex once used for its dual:
B^T y = c_B by Gaussian elimination on the final basis.  The tests keep
it as a reference that the dual read from the final tableau must match
exactly.  The Fraction tableau the integer rows replaced is kept in
`simplex_reference.py`; the integer core must end on the same basis with
the same result, or raise the same error, on every LP given to both.
The Fraction certificate check is kept there too: the integer check must
agree with it on solved and forged certificates, and a forged cell of x
or y, or a forged value, must fail it.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import causalbox.simplex as simplex
import simplex_reference as ref
from causalbox.monogamy import XorGame, build_ns_lp
from causalbox.simplex import (
    InfeasibleError,
    LpResult,
    UnboundedError,
    solve_lp,
    verify_lp_certificate,
)

F = Fraction


def _solve_dual(columns: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve B^T y = c_B by Gaussian elimination, exactly."""
    m = len(rhs)
    M = [[columns[j][i] for i in range(m)] + [rhs[j]] for j in range(m)]
    for col in range(m):
        row = next(r for r in range(col, m) if M[r][col] != 0)
        M[col], M[row] = M[row], M[col]
        piv = M[col][col]
        M[col] = [v / piv for v in M[col]]
        for r in range(m):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[i][m] for i in range(m)]


def solve_with_basis(monkeypatch, A, b, c, *, maximize=True):
    """solve_lp's result together with its final basis.

    Every phase runs through `_run_simplex(T, basis, ...)` on one basis
    list, which the pivots update in place; the spy keeps a reference.
    """
    seen = []
    run = simplex._run_simplex

    def spy(T, basis, *args):
        seen.append(basis)
        return run(T, basis, *args)

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_run_simplex", spy)
        result = solve_lp(A, b, c, maximize=maximize)
    return result, list(seen[-1])


def reference_dual(A, b, c, basis, *, maximize=True):
    """B^-T c_B for the final basis over the columns [A | I], mapped back
    through the rows solve_lp negates (b_i < 0) and the sign of a
    minimization."""
    m, n = len(A), len(c)
    signs = [-1 if F(v) < 0 else 1 for v in b]
    obj = [F(v) if maximize else -F(v) for v in c]
    cols = [
        [signs[i] * F(A[i][j]) for i in range(m)]
        if j < n
        else [F(int(k == j - n)) for k in range(m)]
        for j in basis
    ]
    y = _solve_dual(cols, [obj[j] if j < n else F(0) for j in basis])
    y = [s * v for s, v in zip(signs, y)]
    return tuple(y if maximize else [-v for v in y])


def test_simple_maximum():
    A = [[1, 1, 1]]
    b = [1]
    c = [3, 2, 0]
    res = solve_lp(A, b, c)
    assert res.value == 3
    assert res.x == (1, 0, 0)
    assert verify_lp_certificate(
        [[F(v) for v in row] for row in A], [F(1)], [F(v) for v in c], res
    )


def test_minimize():
    A = [[1, 1, -1, 0], [1, -1, 0, -1]]
    b = [2, 1]
    c = [2, 3, 0, 0]
    res = solve_lp(A, b, c, maximize=False)
    # x1 = 2, rest slack: constraints x1 + x2 >= ... check directly.
    assert res.value == sum(F(ci) * xi for ci, xi in zip(c, res.x))
    assert verify_lp_certificate(
        [[F(v) for v in row] for row in A],
        [F(v) for v in b],
        [F(v) for v in c],
        res,
        maximize=False,
    )


def test_negative_rhs_rows_are_flipped():
    # Same feasible set written with a negated row.
    res = solve_lp([[-1, -1, -1]], [-1], [3, 2, 0])
    assert res.value == 3
    assert verify_lp_certificate(
        [[F(-1), F(-1), F(-1)]], [F(-1)], [F(3), F(2), F(0)], res
    )


def test_redundant_rows_are_tolerated():
    A = [[1, 1], [2, 2]]
    b = [1, 2]
    res = solve_lp(A, b, [1, 0])
    assert res.value == 1
    assert verify_lp_certificate(
        [[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)], [F(1), F(0)], res
    )


def test_infeasible():
    with pytest.raises(InfeasibleError):
        solve_lp([[1, 1], [1, 1]], [1, 2], [1, 1])


def test_unbounded():
    with pytest.raises(UnboundedError):
        solve_lp([[0, 1]], [1], [1, 0])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_lp([[1, 2, 3]], [1, 2], [1, 1, 1])


def test_certificate_rejects_tampering():
    res = solve_lp([[1, 1, 1]], [1], [3, 2, 0])
    forged = LpResult(res.value + 1, res.x, res.y)
    assert not verify_lp_certificate(
        [[F(1), F(1), F(1)]], [F(1)], [F(3), F(2), F(0)], forged
    )


def test_fractional_data():
    res = solve_lp([[F(1, 2), F(1, 3)]], [F(1, 6)], [F(1), F(1)])
    assert res.value == F(1, 2)  # put all mass on the second variable


def test_against_float_solver():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m, n = 3, 6
        A = rng.integers(-3, 4, size=(m, n))
        x0 = rng.integers(0, 4, size=n)
        b = A @ x0
        c = rng.integers(-5, 6, size=n)
        try:
            res = solve_lp(A.tolist(), b.tolist(), c.tolist())
        except UnboundedError:
            ref = linprog(
                -c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs"
            )
            assert ref.status == 3  # unbounded
            continue
        ref = linprog(
            -c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs"
        )
        assert ref.status == 0
        assert abs(float(res.value) + ref.fun) < 1e-7
        assert verify_lp_certificate(
            [[F(int(v)) for v in row] for row in A],
            [F(int(v)) for v in b],
            [F(int(v)) for v in c],
            res,
        )


def _random_lps():
    """The seeded LPs of test_against_float_solver that have an optimum."""
    rng = np.random.default_rng(5)
    for _ in range(30):
        m, n = 3, 6
        A = rng.integers(-3, 4, size=(m, n))
        x0 = rng.integers(0, 4, size=n)
        b = A @ x0
        c = rng.integers(-5, 6, size=n)
        yield A.tolist(), b.tolist(), c.tolist()


def test_dual_matches_reference_on_random_lps(monkeypatch):
    solved = 0
    for A, b, c in _random_lps():
        for maximize in (True, False):
            try:
                res, basis = solve_with_basis(monkeypatch, A, b, c, maximize=maximize)
            except UnboundedError:
                continue
            assert res.y == reference_dual(A, b, c, basis, maximize=maximize)
            solved += 1
    assert solved >= 30


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=4)))
def test_dual_matches_reference_on_two_input_games(monkeypatch, bits):
    game = XorGame(2, (bits[:2], bits[2:]))
    A, b, c, _ = build_ns_lp(game)
    res, basis = solve_with_basis(monkeypatch, A, b, c)
    assert res.y == reference_dual(A, b, c, basis)
    assert verify_lp_certificate(A, b, c, res)


@pytest.mark.parametrize("maximize", [True, False])
def test_no_constraint_rows(maximize):
    bounded, unbounded = ([0, -1], [1, 0]) if maximize else ([1, 0], [0, -1])
    res = solve_lp([], [], bounded, maximize=maximize)
    assert res == LpResult(F(0), (F(0), F(0)), ())
    assert verify_lp_certificate([], [], [F(v) for v in bounded], res, maximize=maximize)
    with pytest.raises(UnboundedError):
        solve_lp([], [], unbounded, maximize=maximize)


@pytest.mark.parametrize("bad", [0.1, "1/3", True])
@pytest.mark.parametrize("where", ["A", "b", "c"])
def test_inexact_entries_are_rejected(where, bad):
    data = {"A": [[1, 1]], "b": [1], "c": [1, 0]}
    if where == "A":
        data["A"] = [[bad, 1]]
    else:
        data[where] = [bad] + data[where][1:]
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        solve_lp(data["A"], data["b"], data["c"])


# ----------------------------------------------------------------------
# the integer core against the Fraction reference


def assert_matches_reference(monkeypatch, A, b, c, *, maximize=True):
    """Same result and final basis as the Fraction core, or the same
    error; returns the error class, or None when an optimum exists."""
    try:
        expected = ref.solve_lp(A, b, c, maximize=maximize)
    except (InfeasibleError, UnboundedError) as exc:
        with pytest.raises(ValueError) as raised:
            solve_lp(A, b, c, maximize=maximize)
        assert type(raised.value) is type(exc)
        return type(exc)
    got = solve_with_basis(monkeypatch, A, b, c, maximize=maximize)
    assert got == expected
    return None


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=4)))
def test_reference_on_two_input_games(monkeypatch, bits):
    game = XorGame(2, (bits[:2], bits[2:]))
    for terms in (("ab", "ac"), ("ab",), ("ab", "ac", "bc")):
        A, b, c, _ = build_ns_lp(game, terms)
        assert assert_matches_reference(monkeypatch, A, b, c) is None


def test_reference_on_three_input_game(monkeypatch):
    rng = random.Random("simplex_reference:three_input")
    game = XorGame(3, tuple(tuple(rng.randrange(2) for _ in range(3)) for _ in range(3)))
    A, b, c, _ = build_ns_lp(game, ("ab", "ac", "bc"))
    assert assert_matches_reference(monkeypatch, A, b, c) is None


def test_reference_on_random_lps(monkeypatch):
    outcomes = []
    for A, b, c in _random_lps():
        for maximize in (True, False):
            outcomes.append(assert_matches_reference(monkeypatch, A, b, c, maximize=maximize))
    assert outcomes.count(None) >= 30 and UnboundedError in outcomes


def _fractional_lp(rng):
    """A feasible LP with denominators up to 6, some rows negated so their
    rhs is negative, and a redundant row: a combination of two others."""
    m, n = 3, 6

    def q():
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))

    A = [[q() for _ in range(n)] for _ in range(m)]
    x0 = [F(rng.randint(0, 3), rng.choice((1, 2, 5))) for _ in range(n)]
    b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    for i in range(m):
        if b[i] > 0 and rng.random() < 0.5:
            A[i], b[i] = [-a for a in A[i]], -b[i]
    s, t = q(), q()
    A.append([s * u + t * v for u, v in zip(A[0], A[1])])
    b.append(s * b[0] + t * b[1])
    return A, b, [q() for _ in range(n)]


def test_reference_on_fractional_lps(monkeypatch):
    rng = random.Random("simplex_reference:fractional")
    outcomes = []
    for _ in range(40):
        A, b, c = _fractional_lp(rng)
        for maximize in (True, False):
            outcomes.append(assert_matches_reference(monkeypatch, A, b, c, maximize=maximize))
    assert outcomes.count(None) >= 40 and UnboundedError in outcomes


@pytest.mark.parametrize(
    "A, b, c",
    [
        ([[F(1, 2), F(1, 3)]], [F(1, 6)], [F(1), F(1)]),
        ([[-1, -1, -1]], [-1], [3, 2, 0]),
        ([[1, 1], [2, 2]], [1, 2], [1, 0]),
        ([[1, -1, 0], [-2, 2, 0], [0, 1, 1]], [F(-1, 2), 1, F(3, 4)], [1, 2, -1]),
        ([[1, 1], [1, 1]], [1, 2], [1, 1]),
        ([[0, 1]], [1], [1, 0]),
        ([[F(2, 3), -1]], [F(-4, 9)], [F(1, 7), F(1, 5)]),
        # the costs' numerators share a factor, 2, that their denominator lacks
        ([[1, 1, 1]], [1], [F(2, 3), F(4, 3), 0]),
    ],
)
@pytest.mark.parametrize("maximize", [True, False])
def test_reference_on_hand_lps(monkeypatch, A, b, c, maximize):
    assert_matches_reference(monkeypatch, A, b, c, maximize=maximize)


def _mixed_denominator_lp():
    """An LP whose rows, rhs and objective have different denominators."""
    A = [[F(1, 2), F(1, 3), 0, F(-1, 4)], [F(1, 5), 0, F(1, 7), 1]]
    b = [F(1, 6), F(2, 35)]
    c = [F(1), F(3, 4), F(-2, 9), F(1, 8)]
    return A, b, c


def _certified_lps():
    """(A, b, c, maximize, result) for solved LPs of every shape above."""
    game_lps = [build_ns_lp(XorGame.chsh())[:3], build_ns_lp(XorGame.constant(1))[:3]]
    for A, b, c in [*game_lps, _mixed_denominator_lp(), *itertools.islice(_random_lps(), 8)]:
        for maximize in (True, False):
            try:
                yield A, b, c, maximize, solve_lp(A, b, c, maximize=maximize)
            except UnboundedError:
                continue


class TestCertificateMutations:
    """Hand mutations of solved certificates: one cell of x, one cell of
    y or the value.  Each must fail the integer check, which must agree
    with the Fraction reference throughout."""

    def test_solved_certificates_pass(self):
        count = 0
        for A, b, c, maximize, res in _certified_lps():
            assert verify_lp_certificate(A, b, c, res, maximize=maximize)
            assert ref.verify_lp_certificate(A, b, c, res, maximize=maximize)
            count += 1
        assert count >= 12

    def test_one_cell_of_x(self):
        for A, b, c, maximize, res in _certified_lps():
            for j in range(len(res.x)):
                if not any(row[j] for row in A):
                    continue
                for delta in (F(1, 7), -res.x[j] or F(1)):
                    x = list(res.x)
                    x[j] += delta
                    forged = LpResult(res.value, tuple(x), res.y)
                    assert not verify_lp_certificate(A, b, c, forged, maximize=maximize)
                    assert not ref.verify_lp_certificate(A, b, c, forged, maximize=maximize)

    def test_one_cell_of_y(self):
        # A cell on a row with b_i != 0 moves the dual objective; a large
        # move on any row with a nonzero entry breaks dual feasibility.
        for A, b, c, maximize, res in _certified_lps():
            for i, row in enumerate(A):
                deltas = (F(1, 11),) if b[i] else ()
                if any(row):
                    deltas += (F(10**6), F(-(10**6)))
                for delta in deltas:
                    y = list(res.y)
                    y[i] += delta
                    forged = LpResult(res.value, res.x, tuple(y))
                    got = verify_lp_certificate(A, b, c, forged, maximize=maximize)
                    assert got == ref.verify_lp_certificate(
                        A, b, c, forged, maximize=maximize
                    )
                    if b[i] and delta == F(1, 11):
                        assert not got
            y = list(res.y)
            i = next(i for i, row in enumerate(A) if any(row))
            sign = 1 if maximize else -1
            # push the reduced cost of some column of row i past zero
            y[i] += sign * F(10**6) * (-1 if any(a > 0 for a in A[i]) else 1)
            forged = LpResult(res.value, res.x, tuple(y))
            assert not verify_lp_certificate(A, b, c, forged, maximize=maximize)

    def test_x_with_a_negative_cell(self):
        # every equation and the gap still hold; only x >= 0 fails
        A, b, c = [[F(1), F(1)]], [F(1)], [F(1), F(1)]
        res = solve_lp(A, b, c)
        assert res.value == 1 and verify_lp_certificate(A, b, c, res)
        forged = LpResult(res.value, (F(2), F(-1)), res.y)
        assert not verify_lp_certificate(A, b, c, forged)
        assert not ref.verify_lp_certificate(A, b, c, forged)

    def test_feasible_x_below_the_value(self):
        # the uniform behaviour is no-signalling but wins CHSH's two terms
        # with 1, not 3/2; y and the value still certify each other
        A, b, c, _ = build_ns_lp(XorGame.chsh())
        res = solve_lp(A, b, c)
        forged = LpResult(res.value, (F(1, 8),) * len(c), res.y)
        assert not verify_lp_certificate(A, b, c, forged)
        assert not ref.verify_lp_certificate(A, b, c, forged)
        uniform = LpResult(F(1), forged.x, res.y)
        assert not verify_lp_certificate(A, b, c, uniform)

    def test_the_value(self):
        for A, b, c, maximize, res in _certified_lps():
            for delta in (F(1), F(-1, 1000), F(1, 10**30)):
                forged = LpResult(res.value + delta, res.x, res.y)
                assert not verify_lp_certificate(A, b, c, forged, maximize=maximize)
                assert not ref.verify_lp_certificate(A, b, c, forged, maximize=maximize)

    def test_random_forgeries_agree_with_reference(self):
        rng = random.Random(11)
        agreed = rejected = 0
        for A, b, c, maximize, res in _certified_lps():
            for _ in range(20):
                x, y, value = list(res.x), list(res.y), res.value
                which = rng.randrange(3)
                delta = F(rng.randint(-3, 3), rng.randint(1, 4))
                if which == 0:
                    x[rng.randrange(len(x))] += delta
                elif which == 1 and y:
                    y[rng.randrange(len(y))] += delta
                else:
                    value += delta
                forged = LpResult(value, tuple(x), tuple(y))
                got = verify_lp_certificate(A, b, c, forged, maximize=maximize)
                assert got == ref.verify_lp_certificate(A, b, c, forged, maximize=maximize)
                agreed += 1
                rejected += not got
        assert agreed >= 240 and rejected >= agreed // 2
