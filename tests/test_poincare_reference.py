"""The integer Poincaré arithmetic against the Fraction reference.

Products, matrix-vector products, determinants and the isometry check
of `causalbox.poincare` run in integers over each operand's common
denominator, and so do the loop direction and its Householder
alignment.  On seeded rational matrices, some with numerators and
denominators near 10^9, they must equal `poincare_reference` entry for
entry, down to the type of each entry.  `find_loop_transform` must
return the same map as with the reference arithmetic patched in, on
seeded pairs for d = 1, 2 and 3, with and without a reflection.
"""

import random
from fractions import Fraction

import pytest

import causalbox.poincare as poincare
import poincare_reference as ref
from causalbox.geometry import Event, GeometryError, Minkowski
from causalbox.poincare import PoincareMap, find_loop_transform

# Primes near 10^9, as in the coprime layouts of the sweep reference.
PRIMES = (999999937, 1000000007, 1000000009, 1000000021, 1000000033)


def rational(rng, big=False):
    """A seeded rational: small, or with a numerator and a denominator
    near 10^9; now and then 0 or a plain int."""
    roll = rng.random()
    if roll < 0.1:
        return 0
    if roll < 0.2:
        return rng.randint(-5, 5)
    if big:
        return Fraction(rng.randint(-(10**9), 10**9), rng.choice(PRIMES))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def matrix(rng, n, big=False):
    return tuple(tuple(rational(rng, big) for _ in range(n)) for _ in range(n))


def seeded_map(rng, dim, big=False):
    """A Poincaré map composed of seeded boosts, rotations, reflections
    and a translation."""
    m = PoincareMap.identity(dim)
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.4:
            k = Fraction(rng.randint(1, 10**9 if big else 9), rng.choice(PRIMES) if big else rng.randint(1, 9))
            step = PoincareMap.boost(dim, k, rng.randrange(dim))
        elif roll < 0.7 and dim >= 2:
            a = rng.randrange(dim)
            step = PoincareMap.rotation(dim, rational(rng, big), (a, (a + 1) % dim))
        else:
            step = PoincareMap.spatial_reflection(dim, rng.randrange(dim))
        m = step.compose(m)
    shift = [rational(rng, big) for _ in range(dim + 1)]
    return PoincareMap.translation_map(shift[0], shift[1:]).compose(m)


def same(got, want):
    """Equal, entry for entry and type for type."""
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("big", [False, True])
def test_products_equal_the_reference(big):
    rng = random.Random(f"poincare_reference:products:{big}")
    for _ in range(150):
        n = rng.randint(2, 4)
        a, b, c = (matrix(rng, n, big) for _ in range(3))
        v = tuple(rational(rng, big) for _ in range(n))
        same(poincare._product(a, b), ref.matmul(a, b))
        same(poincare._product(a, b, c), ref.product(a, b, c))
        same(poincare._matvec(a, v), ref.matvec(a, v))


@pytest.mark.parametrize("big", [False, True])
def test_determinant_equals_the_reference(big):
    rng = random.Random(f"poincare_reference:det:{big}")
    for _ in range(150):
        n = rng.randint(2, 4)
        a = [list(r) for r in matrix(rng, n, big)]
        if rng.random() < 0.3:
            # A singular matrix: one row a multiple of another.
            i, j = rng.sample(range(n), 2)
            f = rational(rng)
            a[i] = [f * c for c in a[j]]
        a = tuple(map(tuple, a))
        same(poincare._det(a), ref.det(a))


@pytest.mark.parametrize("big", [False, True])
def test_isometry_check_equals_the_reference(big):
    """Seeded maps are accepted, and each with one entry nudged is
    accepted exactly when the reference Gram matrix is eta."""
    rng = random.Random(f"poincare_reference:isometry:{big}")
    rejected = 0
    for _ in range(60):
        dim = rng.randint(1, 3)
        m = seeded_map(rng, dim, big)
        assert ref.preserves_interval(m.matrix)
        same(PoincareMap(m.matrix, m.translation), m)
        rows = [list(r) for r in m.matrix]
        i, j = rng.randrange(dim + 1), rng.randrange(dim + 1)
        rows[i][j] += rng.choice((Fraction(1, 10**9), Fraction(-1), Fraction(2, 3)))
        nudged = tuple(map(tuple, rows))
        if ref.preserves_interval(nudged):
            PoincareMap(nudged, m.translation)
        else:
            rejected += 1
            with pytest.raises(GeometryError, match="interval form"):
                PoincareMap(nudged, m.translation)
    assert rejected


@pytest.mark.parametrize("big", [False, True])
def test_map_algebra_equals_the_reference(big):
    rng = random.Random(f"poincare_reference:algebra:{big}")
    for _ in range(40):
        dim = rng.randint(1, 3)
        m, n = seeded_map(rng, dim, big), seeded_map(rng, dim, big)
        e = Event.at(*(rational(rng, big) for _ in range(dim + 1)))
        same(m.compose(n), reference(lambda: m.compose(n)))
        same(m.inverse(), reference(m.inverse))
        same(m.apply(e), reference(lambda: m.apply(e)))
        assert m.is_proper == (ref.det(m.matrix) == 1)


NAMES = ("_product", "_matvec", "_loop_direction", "_householder")
REFERENCE = (ref.product, ref.matvec, ref.loop_direction, ref.householder)


def reference(call):
    """call() with the reference arithmetic patched into poincare."""
    saved = [getattr(poincare, name) for name in NAMES]
    for name, f in zip(NAMES, REFERENCE):
        setattr(poincare, name, f)
    try:
        return call()
    finally:
        for name, f in zip(NAMES, saved):
            setattr(poincare, name, f)


def pairs(rng, dim, big):
    """Seeded (p, q) pairs: mostly spacelike, with timelike, lightlike
    and equal ones mixed in."""
    for _ in range(40):
        p = tuple(rational(rng, big) for _ in range(dim + 1))
        w = [rational(rng, big) for _ in range(dim + 1)]
        roll = rng.random()
        if roll < 0.1:
            w = [0] * (dim + 1)
        elif roll < 0.2:
            # Lightlike or timelike: |t| at least the l1 norm of x.
            w[0] = rng.choice((1, -1)) * (sum(abs(c) for c in w[1:]) + rng.choice((0, 1)))
        yield Event.at(*p), Event.at(*(a + b for a, b in zip(p, w)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("big", [False, True])
def test_loop_direction_and_alignment_equal_the_reference(dim, big):
    """On the spacelike seeded pairs, the direction and the Householder
    alignment equal the Fraction ones by value and by repr, and so do
    the alignments of the first axis (the identity) and of its
    negation."""
    rng = random.Random(f"poincare_reference:direction:{dim}:{big}")
    spacelike = 0
    for p, q in pairs(rng, dim, big):
        w = tuple(Fraction(b - a) for a, b in zip((p.t, *p.x), (q.t, *q.x)))
        t, xs = w[0], w[1:]
        if sum(c * c for c in xs) <= t * t:
            continue
        spacelike += 1
        e = poincare._loop_direction(t, xs)
        same(e, ref.loop_direction(t, xs))
        assert sum(c * c for c in e) == 1
        same(poincare._householder(dim, e), ref.householder(dim, e))
    assert spacelike
    for sign in (1, -1):
        e = (Fraction(sign), *(Fraction(0),) * (dim - 1))
        same(poincare._householder(dim, e), ref.householder(dim, e))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("allow_reflection", [False, True])
def test_loop_transform_equals_the_reference(dim, big, allow_reflection):
    order = Minkowski(dim)
    rng = random.Random(f"poincare_reference:loop:{dim}:{big}:{allow_reflection}")
    found = 0
    for p, q in pairs(rng, dim, big):
        got = find_loop_transform(order, p, q, allow_reflection)
        want = reference(lambda: find_loop_transform(order, p, q, allow_reflection))
        same(got, want)
        if got is not None:
            found += 1
            assert order.strictly_precedes(q, got.apply(p))
            assert order.strictly_precedes(got.apply(q), p)
    assert found


@pytest.mark.parametrize(
    "p, q, allow_reflection",
    [
        (Event.at(0, 0, 0, 0), Event.at(10**9, 10**9, Fraction(1, 10**9), Fraction(1, 10**9)), False),
        (Event.at(0, 0), Event.at(10**9, 10**9 + 1), True),
        (
            Event.at(Fraction(1, PRIMES[0]), Fraction(-3, PRIMES[1])),
            Event.at(Fraction(10**9, PRIMES[2]), Fraction(2 * 10**9, PRIMES[3])),
            True,
        ),
    ],
)
def test_near_null_loop_transform_equals_the_reference(p, q, allow_reflection):
    order = Minkowski(len(p.x))
    got = find_loop_transform(order, p, q, allow_reflection)
    same(got, reference(lambda: find_loop_transform(order, p, q, allow_reflection)))
    assert order.strictly_precedes(q, got.apply(p))
    assert order.strictly_precedes(got.apply(q), p)
