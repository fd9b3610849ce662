"""Exact isometries of flat spacetime: rational Lorentz matrices plus
translations, with constructors parametrised to stay inside the
rationals (boosts by the exponential of the rapidity, rotations by the
half-angle tangent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .geometry import Event, GeometryError, Minkowski, _check_point
from .rational import parse_rational

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def _eta(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j == 0 else (-1 if i == j else 0)) for j in range(n))
        for i in range(n)
    )


def _scaled(a: Matrix) -> tuple[list[tuple[int, ...]], int]:
    """(N, d) with a == N / d entry by entry: d is the least common
    denominator of a's entries and N their integer numerators over it."""
    d = lcm(*(c.denominator for row in a for c in row))
    return [tuple(c.numerator * (d // c.denominator) for c in row) for row in a], d


def _product(*factors: Matrix) -> Matrix:
    """The product of the matrices, multiplied in integers over each
    factor's common denominator, with one normalised Fraction per entry
    of the result."""
    rows, den = _scaled(factors[0])
    for f in factors[1:]:
        n, d = _scaled(f)
        cols = tuple(zip(*n))
        rows = [tuple(sum(map(mul, row, col)) for col in cols) for row in rows]
        den *= d
    return tuple(tuple(Fraction(c, den) for c in row) for row in rows)


def _numerators(v: Vector) -> tuple[list[int], int]:
    """(N, d) with v == N / d entry by entry, d the least common
    denominator of v's entries."""
    d = lcm(*(c.denominator for c in v))
    return [c.numerator * (d // c.denominator) for c in v], d


def _matvec(a: Matrix, v: Vector) -> Vector:
    rows, den = _scaled(a)
    nv, d = _numerators(v)
    den *= d
    return tuple(Fraction(sum(map(mul, row, nv)), den) for row in rows)


def _transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a)))


def _det(a: Matrix) -> Fraction:
    """det(N) / d^n for a == N / d, det(N) by fraction-free (Bareiss)
    elimination: every division is exact."""
    rows, d = _scaled(a)
    rows = [list(r) for r in rows]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * top[k] - f * top[j]) // prev
        prev = top[k]
    return Fraction(sign * rows[-1][-1], d**n)


def _identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def _linear_matrix(dim: int, entries: dict[tuple[int, int], Fraction | int]) -> Matrix:
    """The identity matrix of size dim + 1 except at the given (row,
    column) entries."""
    n = dim + 1
    return tuple(
        tuple(Fraction(entries.get((i, j), i == j)) for j in range(n))
        for i in range(n)
    )


def _linear(dim: int, entries: dict[tuple[int, int], Fraction | int]) -> PoincareMap:
    """The map with no translation whose matrix is _linear_matrix(dim,
    entries)."""
    return PoincareMap(_linear_matrix(dim, entries), (Fraction(0),) * (dim + 1))


def _boost_entries(k: Fraction, i: int) -> dict[tuple[int, int], Fraction]:
    """The entries of the boost with parameter k > 0 along the spatial
    axis of matrix row i (see PoincareMap.boost)."""
    c = (k + 1 / k) / 2
    s = (k - 1 / k) / 2
    return {(0, 0): c, (0, i): -s, (i, 0): -s, (i, i): c}


def _plane_rows(dim: int, axes: tuple[int, int]) -> tuple[int, int]:
    """The matrix rows of two distinct spatial axes, checked in range."""
    a, b = axes
    if a == b or not (0 <= a < dim and 0 <= b < dim):
        raise GeometryError("rotation axes must be two distinct spatial axes")
    return a + 1, b + 1


@dataclass(frozen=True)
class PoincareMap:
    """x -> matrix @ x + translation on (t, x1, ..., xd) coordinates.

    The constructor verifies the exact isometry condition, so every
    instance preserves the squared interval identically.
    """

    matrix: Matrix
    translation: Vector

    def __post_init__(self):
        n = len(self.matrix)
        if n < 2 or any(len(row) != n for row in self.matrix):
            raise GeometryError("matrix must be square of size dim+1 >= 2")
        if len(self.translation) != n:
            raise GeometryError("translation length must match matrix size")
        for c in (*(c for row in self.matrix for c in row), *self.translation):
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise GeometryError(f"entry {c!r} is not an int or a Fraction")
        # The matrix is N / d: it preserves the interval form exactly
        # when N^T eta N == d^2 eta, checked column pair by column pair.
        rows, d = _scaled(self.matrix)
        cols = tuple(zip(*rows))
        d2 = d * d
        for i, a in enumerate(cols):
            for j in range(i, n):
                b = cols[j]
                gram = a[0] * b[0] - sum(map(mul, a[1:], b[1:]))
                if gram != (0 if i != j else d2 if i == 0 else -d2):
                    raise GeometryError("matrix does not preserve the interval form")

    @property
    def dim(self) -> int:
        return len(self.matrix) - 1

    @property
    def is_orthochronous(self) -> bool:
        return self.matrix[0][0] >= 1

    @property
    def is_proper(self) -> bool:
        return _det(self.matrix) == 1

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(dim: int) -> "PoincareMap":
        return _linear(dim, {})

    @staticmethod
    def translation_map(dt, dx: Sequence) -> "PoincareMap":
        shift = (parse_rational(dt), *(parse_rational(c) for c in dx))
        return PoincareMap(_identity(len(shift)), shift)

    @staticmethod
    def boost(dim: int, k, axis: int = 0) -> "PoincareMap":
        """Boost along a spatial axis, parametrised by the exponential of
        the rapidity: cosh = (k + 1/k)/2, sinh = (k - 1/k)/2 with k > 0
        rational, so every entry stays rational.  k > 1 sends inertial
        worldlines toward the negative axis direction.
        """
        k = parse_rational(k)
        if k <= 0:
            raise GeometryError("boost parameter must be positive")
        if not 0 <= axis < dim:
            raise GeometryError("boost axis out of range")
        return _linear(dim, _boost_entries(k, axis + 1))

    @staticmethod
    def rotation(dim: int, m, axes: tuple[int, int] = (0, 1)) -> "PoincareMap":
        """Rotation in a spatial coordinate plane by the angle whose
        half-angle tangent is the rational m: cos = (1-m^2)/(1+m^2),
        sin = 2m/(1+m^2).
        """
        m = parse_rational(m)
        i, j = _plane_rows(dim, axes)
        den = 1 + m * m
        c = (1 - m * m) / den
        s = 2 * m / den
        return _linear(dim, {(i, i): c, (i, j): -s, (j, i): s, (j, j): c})

    @staticmethod
    def half_turn(dim: int, axes: tuple[int, int] = (0, 1)) -> "PoincareMap":
        """Rotation by a straight angle in a spatial plane (both axes
        negated); proper, and not reachable by the half-angle-tangent
        parametrisation."""
        i, j = _plane_rows(dim, axes)
        return _linear(dim, {(i, i): -1, (j, j): -1})

    @staticmethod
    def spatial_reflection(dim: int, axis: int = 0) -> "PoincareMap":
        if not 0 <= axis < dim:
            raise GeometryError("reflection axis out of range")
        return _linear(dim, {(axis + 1, axis + 1): -1})

    # -- algebra ----------------------------------------------------------

    def compose(self, other: "PoincareMap") -> "PoincareMap":
        """self after other."""
        if self.dim != other.dim:
            raise GeometryError("dimension mismatch in composition")
        return PoincareMap(
            _product(self.matrix, other.matrix),
            tuple(
                a + b
                for a, b in zip(_matvec(self.matrix, other.translation), self.translation)
            ),
        )

    def inverse(self) -> "PoincareMap":
        eta = _eta(len(self.matrix))
        inv = _product(eta, _transpose(self.matrix), eta)
        return PoincareMap(
            inv, tuple(-c for c in _matvec(inv, self.translation))
        )

    def apply(self, e: Event) -> Event:
        _check_point(e, self.dim)
        vec = (e.t, *e.x)
        out = tuple(
            a + b for a, b in zip(_matvec(self.matrix, vec), self.translation)
        )
        return Event(t=out[0], x=out[1:])


# ----------------------------------------------------------------------
# mutual-influence loop construction


def _loop_direction(t: Fraction, xs: Vector) -> Vector:
    """Rational unit vector e with e . x - |t| = A(|x|^2 - t^2)/(A^2 + r^2),
    where A = |x_i| + |t| for an index i of largest |x_i| and r^2 is the
    sum of the other x_j^2: the inverse stereographic image of
    (x_j / A)_{j != i} about the pole sgn(x_i) e_i.

    Over a common denominator of t and x, A, r^2 and A^2 + r^2 scale to
    integers by one common power, so each entry is one Fraction of
    integers."""
    (tn, *xn), _ = _numerators((t, *xs))
    i = max(range(len(xn)), key=lambda j: abs(xn[j]))
    a = abs(xn[i]) + abs(tn)
    r2 = sum(c * c for j, c in enumerate(xn) if j != i)
    den = a * a + r2
    e = [Fraction(2 * a * c, den) for c in xn]
    e[i] = Fraction(a * a - r2 if xn[i] > 0 else r2 - a * a, den)
    return tuple(e)


def _householder(dim: int, e: Vector) -> Matrix:
    """diag(1, H) for the spatial Householder reflection H that swaps the
    unit vector e and the first axis (the identity when they agree).

    With v = e - e_1 over a common denominator, H = I - 2 v v^T / (v . v)
    has one integer numerator per entry over v . v."""
    en, d = _numerators(e)
    v = (en[0] - d, *en[1:])
    vv = sum(c * c for c in v)
    if not vv:
        return _identity(dim + 1)
    spatial = [
        [Fraction((i == j) * vv - 2 * vi * vj, vv) for j, vj in enumerate(v)]
        for i, vi in enumerate(v)
    ]
    zero = Fraction(0)
    return (
        (Fraction(1), *(zero,) * dim),
        *((zero, *row) for row in spatial),
    )


def find_loop_transform(
    order: Minkowski, p: Event, q: Event, allow_reflection: bool = False
) -> PoincareMap | None:
    """An orthochronous isometry L with q strictly before L(p) and L(q)
    strictly before p, so influence can run p -> (beyond q) -> back
    before p; proper unless the dimension is 1.

    Returns None exactly when p == q, when p strictly precedes q (every
    allowed map keeps the future cone forward in time, and two
    future-causal vectors never sum to a past one), or when the pair is
    spacelike in one spatial dimension and allow_reflection is False.
    If q strictly precedes p the identity works.  Raises GeometryError
    on any order other than Minkowski(d).

    Lemma (closed form for a spacelike pair).  Let w = q - p = (t, x)
    with |x|^2 > t^2.
    - Direction: _loop_direction gives a rational unit e with
      a = e . x > |t|, since a - |t| = A(|x|^2 - t^2)/(A^2 + r^2).
    - Alignment: H~ = diag(1, H), H the Householder swapping e and the
      first axis, so y = H x has y_1 = a.
    - Map: Lambda = H~ F B(k) H~, with B(k) the boost along the first
      axis and F the half turn of axes 1, 2 (the reflection of axis 1
      when d = 1).  With delta = a - t > 0, tau = a + t > 0 and
      rho = sum_{i >= 3} y_i^2, the vector H~ (w + Lambda w) is
      s = ((tau/k - k delta)/2 + t, (-k delta - tau/k)/2 + a, 0,
      2 y_3, ..., 2 y_d), whose s_0^2 - s_1^2 is (k delta - tau)^2 / k.
    - Boost: k = (4 rho/delta + 2 tau + 1)/delta makes
      (k delta - tau) delta = 4 rho + (tau + 1) delta, so
      ((k delta - tau)^2 / k - 4 rho) k delta = 4 rho + (tau + 1)^2 delta
      > 0, where 4 rho is the sum of the remaining s_i^2; and
      2 s_0 = -(k delta - tau)(k delta + delta)/(k delta) < 0.  So
      sigma = w + Lambda w is past-timelike.
    - Translation: L(x) = Lambda x + q - Lambda p - sigma/2 gives
      L(p) - q = p - L(q) = -sigma/2, future-timelike.
    """
    if not isinstance(order, Minkowski):
        raise GeometryError(
            f"a loop transform needs Minkowski(d), not {type(order).__name__}"
        )
    order.validate_event(p)
    order.validate_event(q)
    dim = order.dim
    if p == q or order._precedes(p, q):
        return None
    if order._precedes(q, p):
        return PoincareMap.identity(dim)
    if dim == 1 and not allow_reflection:
        return None

    pvec = (p.t, *p.x)  # type: ignore[misc]
    qvec = (q.t, *q.x)  # type: ignore[misc]
    w = tuple(Fraction(b - a) for a, b in zip(pvec, qvec))
    t = w[0]
    align = _householder(dim, _loop_direction(t, w[1:]))
    y = _matvec(align, w)
    delta, tau = y[1] - t, y[1] + t
    rho = sum((c * c for c in y[3:]), Fraction(0))
    k = (4 * rho / delta + 2 * tau + 1) / delta
    # The factors are built and multiplied unchecked: the returned map
    # verifies the product's isometry condition once.  flip is the
    # reflection of axis 1 when d = 1 and the half turn of axes 1, 2
    # otherwise.
    flip = _linear_matrix(
        dim, {(1, 1): -1} if dim == 1 else {(1, 1): -1, (2, 2): -1}
    )
    boost = _linear_matrix(dim, _boost_entries(k, 1))
    lam = _product(align, flip, boost, align)
    sigma = tuple(a + b for a, b in zip(w, _matvec(lam, w)))
    shift = tuple(
        qc - lc - sc / 2 for qc, lc, sc in zip(qvec, _matvec(lam, pvec), sigma)
    )
    return PoincareMap(lam, shift)
