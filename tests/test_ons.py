"""Constraint generation, exact checking, and the named families."""

import itertools
import random
from fractions import Fraction

import pytest

import causalbox.ons
import ons_reference as ref
from causalbox.boxes import (
    Alphabet,
    CorrelationBox,
    Srv,
    canonical_box,
    marginalize,
)
from causalbox.geometry import Event, FiniteOrder, Minkowski, TerminatedDiagram
from causalbox.ons import (
    ConstraintInstance,
    LayoutMismatch,
    check_family,
    check_instances,
    check_ons,
    check_standard_ns,
    enumerate_constraints,
    named_constraints,
)
from causalbox.separation import Verdict, _separated, separated

M1 = Minkowski(1)
M2 = Minkowski(2)
BITS = Alphabet.binary()


def bell_box():
    return canonical_box(
        "pr_box",
        {
            "p1": Event.at(0, 0),
            "p2": Event.at(0, 6),
            "q1": Event.at(1, 0),
            "q2": Event.at(1, 6),
        },
    )


def signalling_bell_box():
    """b copies x and a copies y: both directions signal."""
    base = bell_box()
    table = {
        (x, y): {(y, x): Fraction(1)}
        for x, y in itertools.product("01", repeat=2)
    }
    return CorrelationBox(base.inputs, base.outputs, table, base.pairing)


def triangle_box(table=None):
    """One jammer input between two spacelike readers."""
    ins = (Srv("X", BITS, Event.at(0, 0)),)
    outs = (
        Srv("A1", BITS, Event.at(0, -2)),
        Srv("A2", BITS, Event.at(0, 2)),
    )
    if table is None:
        table = {}
        for x in "01":
            table[(x,)] = {
                (a1, a2): Fraction(1, 2)
                for a1, a2 in itertools.product("01", repeat=2)
                if int(a1) ^ int(a2) == int(x)
            }
    return CorrelationBox(ins, outs, table)


class TestEnumeration:
    def test_bell_layout_generates_cross_party_instances_only(self):
        box = bell_box()
        instances = enumerate_constraints(M1, box)
        fgs = {(inst.F, inst.G) for inst in instances}
        assert fgs == {((1,), (0,)), ((0,), (1,))}
        assert len(instances) == 4

    def test_instances_agree_outside_f(self):
        box = bell_box()
        for inst in enumerate_constraints(M1, box):
            for i in range(2):
                if i not in inst.F:
                    assert inst.x[i] == inst.x_prime[i]

    def test_deterministic_ordering(self):
        box = bell_box()
        a = enumerate_constraints(M1, box)
        b = enumerate_constraints(M1, box)
        assert a == b
        assert a[0].F == (0,) and a[0].x <= a[0].x_prime

    def test_jammer_blocks_joint_constraint(self):
        instances = enumerate_constraints(M1, triangle_box())
        fgs = {(inst.F, inst.G) for inst in instances}
        # Each reader alone is constrained, the pair is jammed.
        assert ((0,), (0, 1)) not in fgs
        assert ((0,), (0,)) in fgs and ((0,), (1,)) in fgs

    def test_subset_monotonicity_of_generated_pairs(self):
        box = bell_box()
        fgs = {(inst.F, inst.G) for inst in enumerate_constraints(M1, box)}
        for F, G in fgs:
            for f_sub in itertools.chain.from_iterable(
                itertools.combinations(F, r) for r in range(1, len(F) + 1)
            ):
                for g_sub in itertools.chain.from_iterable(
                    itertools.combinations(G, r) for r in range(1, len(G) + 1)
                ):
                    gather = [box.outputs[g].location for g in g_sub]
                    avoid = [box.inputs[f].location for f in f_sub]
                    from causalbox.separation import Verdict, separated

                    assert separated(M1, gather, avoid).verdict is Verdict.SEPARATED

    def test_ternary_alphabet_move_pairs(self):
        ins = (Srv("X", Alphabet.of(0, 1, 2), Event.at(0, 5)),)
        outs = (Srv("A", BITS, Event.at(0, 0)),)
        table = {(str(x),): {("0",): 1} for x in range(3)}
        box = CorrelationBox(ins, outs, table)
        instances = enumerate_constraints(M1, box)
        moves = {(inst.x, inst.x_prime) for inst in instances}
        assert moves == {
            (("0",), ("1",)),
            (("0",), ("2",)),
            (("1",), ("2",)),
        }

    def test_full_flip_moves_included_for_multi_f(self):
        ins = (
            Srv("X", BITS, Event.at(0, 9)),
            Srv("Y", BITS, Event.at(0, 12)),
        )
        outs = (Srv("A", BITS, Event.at(0, 0)),)
        table = {x: {("0",): 1} for x in itertools.product("01", repeat=2)}
        box = CorrelationBox(ins, outs, table)
        instances = enumerate_constraints(M1, box)
        moves = {
            (inst.x, inst.x_prime) for inst in instances if inst.F == (0, 1)
        }
        assert (("0", "0"), ("1", "1")) in moves
        assert (("0", "1"), ("1", "0")) in moves
        assert (("0", "0"), ("0", "1")) in moves
        # Unordered pairs appear exactly once, in label order.
        assert (("1", "1"), ("0", "0")) not in moves

    def test_joint_avoidance_in_space_is_decided(self):
        # 3+1 dimensions: the two inputs jointly block every gathering
        # point of the two outputs, and the sweep proves it.
        ins = (
            Srv("V1", BITS, Event.at(0, 0, Fraction(-1, 2), 0)),
            Srv("V2", BITS, Event.at(0, 0, Fraction(1, 2), 0)),
        )
        outs = (
            Srv("A", BITS, Event.at(0, -1, 0, 0)),
            Srv("B", BITS, Event.at(0, 1, 0, 0)),
        )
        table = {x: {} for x in itertools.product("01", repeat=2)}
        box = CorrelationBox(ins, outs, table)
        gather = [s.location for s in outs]
        avoid = [s.location for s in ins]
        res = separated(Minkowski(3), gather, avoid)
        assert res.verdict is Verdict.NOT_SEPARATED
        assert res.reason == "cone_closure"
        instances = enumerate_constraints(Minkowski(3), box)
        assert instances == all_pairs_reference(Minkowski(3), box)
        assert {(i.F, i.G) for i in instances} == {
            (F, G) for F in ((0,), (1,), (0, 1)) for G in ((0,), (1,), (0, 1))
        } - {((0, 1), (0, 1))}


# ----------------------------------------------------------------------
# lattice pruning against the unpruned all-pairs enumeration


def all_pairs_reference(order, box):
    """The enumeration without pruning: separated() on every nonempty
    (F, G) pair, with the reference move pairs, sorted by (F, G, x, x')
    label indices."""
    n_in, n_out = len(box.inputs), len(box.outputs)
    instances = []
    for size_g in range(1, n_out + 1):
        for G in itertools.combinations(range(n_out), size_g):
            gather = [box.outputs[g].location for g in G]
            for size_f in range(1, n_in + 1):
                for F in itertools.combinations(range(n_in), size_f):
                    avoid = [box.inputs[f].location for f in F]
                    result = separated(order, gather, avoid)
                    if result.verdict is Verdict.SEPARATED:
                        for x, y in ref.move_pairs(box.inputs, F):
                            instances.append(
                                ConstraintInstance(F, G, x, y, result)
                            )

    def label_indices(x):
        return tuple(s.alphabet.index(v) for s, v in zip(box.inputs, x))

    instances.sort(
        key=lambda c: (c.F, c.G, label_indices(c.x), label_indices(c.x_prime))
    )
    return instances


def _rat(rng, lo, hi):
    den = rng.choice((1, 2, 4))
    return Fraction(rng.randrange(lo * den, hi * den + 1), den)


def _points(rng, k, t_lo, t_hi):
    """k 1+1 events; about a quarter repeat an earlier location."""
    pts = []
    for _ in range(k):
        if pts and rng.random() < 0.25:
            pts.append(rng.choice(pts))
        else:
            pts.append(Event.at(_rat(rng, t_lo, t_hi), _rat(rng, -4, 4)))
    return pts


def seeded_layout(backend, seed):
    rng = random.Random(f"{backend}:{seed}")
    n_in, n_out = rng.randint(1, 4), rng.randint(1, 3)
    k = n_in + n_out
    if backend == "minkowski1":
        order, pts = M1, _points(rng, k, -2, 2)
    elif backend == "terminated":
        order = TerminatedDiagram([(x, _rat(rng, 3, 5)) for x in (-8, -3, 2, 7)])
        pts = _points(rng, k, -2, 1)
    else:
        labels = [f"e{i}" for i in range(k)]
        order = FiniteOrder(
            [(a, b) for a, b in itertools.combinations(labels, 2) if rng.random() < 0.3],
            labels,
        )
        pts = [Event.named(rng.choice(labels[: i + 1])) for i in range(k)]
    ins = tuple(Srv(f"X{i}", BITS, e) for i, e in enumerate(pts[:n_in]))
    outs = tuple(Srv(f"A{i}", BITS, e) for i, e in enumerate(pts[n_in:]))
    table = {x: {} for x in itertools.product("01", repeat=n_in)}
    return order, CorrelationBox(ins, outs, table)


class TestLatticePruning:
    @pytest.mark.parametrize("backend", ["minkowski1", "terminated", "finite"])
    def test_matches_all_pairs_reference(self, backend, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _separated(*args, **kwargs)

        lattice = 0
        for seed in range(40):
            order, box = seeded_layout(backend, seed)
            expected = all_pairs_reference(order, box)
            with monkeypatch.context() as patch:
                patch.setattr(causalbox.ons, "_separated", counting)
                assert enumerate_constraints(order, box) == expected
            lattice += (2 ** len(box.inputs) - 1) * (2 ** len(box.outputs) - 1)
        assert len(calls) < lattice

    def test_agents_box_skips_most_of_the_lattice(self, monkeypatch):
        # Input i sits below output i, so each ({i}, {i}) is NOT_SEPARATED
        # and every pair with i in both F and G contains it.  Only the 12
        # pairs with F and G disjoint and the 3 blocking pairs are asked.
        xs = (-4, 0, 4)
        ins = tuple(Srv(f"X{i}", BITS, Event.at(0, x)) for i, x in enumerate(xs))
        outs = tuple(Srv(f"A{i}", BITS, Event.at(1, x)) for i, x in enumerate(xs))
        table = {x: {} for x in itertools.product("01", repeat=3)}
        box = CorrelationBox(ins, outs, table, {i: i for i in range(3)})
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _separated(*args, **kwargs)

        monkeypatch.setattr(causalbox.ons, "_separated", counting)
        got = enumerate_constraints(M1, box)
        monkeypatch.undo()
        assert got == all_pairs_reference(M1, box)
        assert len(calls) == 15  # of the 7 * 7 pairs in the lattice


class TestValidationBoundary:
    """separated() and enumerate_constraints validate each distinct event
    once, where it enters, and then use the unchecked relation."""

    BACKENDS = ("minkowski1", "terminated", "finite")

    @staticmethod
    def counting(monkeypatch, order):
        seen = []
        real = type(order).validate_event

        def count(e):
            seen.append(e)
            real(order, e)

        monkeypatch.setattr(order, "validate_event", count)
        return seen

    @staticmethod
    def plane_layout(seed):
        rng = random.Random(f"plane:{seed}")
        pts = []
        for _ in range(rng.randint(2, 4)):
            if pts and rng.random() < 0.25:
                pts.append(rng.choice(pts))
            else:
                pts.append(Event.at(_rat(rng, -2, 2), _rat(rng, -3, 3), _rat(rng, -3, 3)))
        return M2, pts

    def layouts(self):
        for backend in self.BACKENDS:
            for seed in range(30):
                order, box = seeded_layout(backend, seed)
                yield order, [s.location for s in (*box.inputs, *box.outputs)]
        for seed in range(12):
            yield self.plane_layout(seed)

    # One case for each reason the random layouts may miss.
    FIXED = (
        (
            TerminatedDiagram([(-4, 3), (0, 1), (4, 3)]),
            [Event.at(0, 4), Event.at(0, -2), Event.at(0, 4)],
            [Event.at(0, -2)],
        ),
        (M2, [Event.at(1, -1, -2), Event.at(1, -2, 3)], [Event.at(-1, "3/2", "3/2")]),
        (
            M2,
            [Event.at(-2, -2, "-5/2"), Event.at("1/2", -2, "1/2")],
            [Event.at(2, -3, 0)],
        ),
    )

    def test_separated_validates_each_distinct_event_once(self, monkeypatch):
        rng = random.Random(11)
        cases = list(self.FIXED)
        for order, pts in self.layouts():
            gather = [rng.choice(pts) for _ in range(rng.randint(1, 3))]
            avoid = [rng.choice(pts) for _ in range(rng.randint(0, 2))]
            cases.append((order, gather, avoid))
        reasons = set()
        for order, gather, avoid in cases:
            with monkeypatch.context() as patch:
                seen = self.counting(patch, order)
                result = separated(order, gather, avoid)
            assert len(seen) == len(set(seen)) and set(seen) == {*gather, *avoid}
            assert result == separated(order, gather, avoid)
            reasons.add(result.reason)
        assert reasons == {
            "blocked_by_strict_past", "single_gather", "exhaustive",
            "no_common_future", "gather_at_avoid_point", "quadrant_escape",
            "quadrant_cover", "common_future", "gather_before_avoid",
            "plane_sweep", "cone_closure",
        }

    def test_enumeration_validates_each_distinct_location_once(self, monkeypatch):
        for backend in self.BACKENDS:
            for seed in range(30):
                order, box = seeded_layout(backend, seed)
                with monkeypatch.context() as patch:
                    seen = self.counting(patch, order)
                    got = enumerate_constraints(order, box)
                locations = {s.location for s in (*box.inputs, *box.outputs)}
                assert len(seen) == len(set(seen)) and set(seen) == locations
                assert got == all_pairs_reference(order, box)

    def test_out_of_domain_event_raises_domain_error(self):
        from causalbox.geometry import DomainError

        td = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
        inside, near, on = Event.at(-2, 0), Event.at(-3, 1), Event.at(1, 0)
        for gather, avoid in (([inside], [on]), ([inside, on], []), ([on], [inside])):
            with pytest.raises(DomainError):
                separated(td, gather, avoid)
        for k in range(4):
            pts = [inside, near, inside, near]
            pts[k] = on
            ins = tuple(Srv(f"X{i}", BITS, e) for i, e in enumerate(pts[:2]))
            outs = tuple(Srv(f"A{i}", BITS, e) for i, e in enumerate(pts[2:]))
            box = CorrelationBox(ins, outs, {x: {} for x in itertools.product("01", repeat=2)})
            with pytest.raises(DomainError):
                enumerate_constraints(td, box)


class TestChecking:
    def test_pr_box_satisfies_bell_constraints(self):
        assert check_ons(M1, bell_box()) == []

    def test_signalling_box_violates_everything(self):
        box = signalling_bell_box()
        reports = check_ons(M1, box)
        assert len(reports) == 4
        for rep in reports:
            assert rep.p_x != rep.p_x_prime
            assert rep.recompute(box)
            assert rep.instance.verify(M1, box)

    def test_report_carries_exact_probabilities(self):
        table = {
            ("0",): {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)},
            ("1",): {("0", "0"): Fraction(1, 4), ("1", "1"): Fraction(3, 4)},
        }
        reports = check_ons(M1, triangle_box(table))
        assert reports
        byg = {rep.instance.G: rep for rep in reports}
        assert byg[(0,)].p_x == Fraction(1, 2)
        assert byg[(0,)].p_x_prime == Fraction(1, 4)
        assert byg[(0,)].difference == Fraction(-1, 4)

    def test_xor_jamming_box_passes(self):
        assert check_ons(M1, triangle_box()) == []

    def test_one_report_per_violated_instance(self):
        table = {
            ("0",): {("0", "0"): 1},
            ("1",): {("1", "1"): 1},
        }
        reports = check_ons(M1, triangle_box(table))
        keys = [(r.instance.F, r.instance.G, r.instance.x, r.instance.x_prime) for r in reports]
        assert len(keys) == len(set(keys))
        assert len(reports) == 2

    @pytest.mark.parametrize(
        "order", [M1, TerminatedDiagram([(0, 20)])], ids=["minkowski", "terminated"]
    )
    def test_int_locations_certify_and_build(self, order):
        # The joint instance on (A, B) is licensed at the half-integer
        # lightcone corner t = 7/2, x = 1/2 of two int-located outputs.
        from causalbox.protocol import build_protocol

        ins = (Srv("X", BITS, Event(t=0, x=(10,))),)
        outs = (
            Srv("A", BITS, Event(t=0, x=(-3,))),
            Srv("B", BITS, Event(t=0, x=(4,))),
        )
        table = {(x,): {(x, "0"): Fraction(1)} for x in "01"}
        box = CorrelationBox(ins, outs, table)
        insts = enumerate_constraints(order, box)
        joint = next(i for i in insts if i.G == (0, 1))
        assert joint.certificate.reason == "quadrant_escape"
        assert joint.certificate.witness == Event.at(Fraction(7, 2), Fraction(1, 2))
        assert all(i.verify(order, box) for i in insts)
        reports = check_ons(order, box)
        assert {r.instance.G for r in reports} == {(0,), (0, 1)}
        for r in reports:
            assert build_protocol(order, box, r).sender == 0

    def test_verify_rejects_tampered_instance(self):
        box = bell_box()
        inst = enumerate_constraints(M1, box)[0]
        bad = ConstraintInstance(
            inst.F, inst.G, inst.x, inst.x, inst.certificate
        )
        tampered = ConstraintInstance(
            (0,), inst.G, ("0", "0"), ("1", "1"), inst.certificate
        )
        assert not tampered.verify(M1, box)
        assert inst.verify(M1, box)


class TestStandardNs:
    def test_pr_box_is_ns(self):
        assert check_standard_ns(bell_box())

    def test_signalling_box_is_not(self):
        assert not check_standard_ns(signalling_bell_box())

    def test_requires_square_box(self):
        locs = {"q1": Event.at(0, -2), "q2": Event.at(3, 0), "q3": Event.at(0, 2)}
        with pytest.raises(ValueError):
            check_standard_ns(canonical_box("loop_box", locs))

    def test_requires_bijective_pairing(self):
        box = bell_box()
        unpaired = CorrelationBox(box.inputs, box.outputs, box.table)
        with pytest.raises(ValueError):
            check_standard_ns(unpaired)

    def test_ns_mixture_passes_ons_in_paired_layouts(self):
        # With every input strictly before its own output, generated
        # instances never put an input and its matched output together,
        # so standard no-signalling implies every instance.
        pr = bell_box()
        table = {}
        for x, y in pr.settings():
            row = {}
            for a, b in pr.outcomes():
                local = Fraction(1, 4)  # uniform local noise
                row[(a, b)] = Fraction(1, 3) * pr.prob((x, y), (a, b)) + \
                    Fraction(2, 3) * local
            table[(x, y)] = row
        mixed = CorrelationBox(pr.inputs, pr.outputs, table, pr.pairing)
        assert check_standard_ns(mixed)
        assert check_ons(M1, mixed) == []


def triangle_points():
    return {
        "A": Event.at(0, 0, 0),
        "B": Event.at(0, 4, 0),
        "C": Event.at(0, 2, 3),
        "x": Event.at(0, 3, Fraction(3, 2)),
        "y": Event.at(0, 1, Fraction(3, 2)),
        "z": Event.at(0, 2, 0),
    }


def triangle_srvs(pts):
    ins = tuple(Srv(n, BITS, pts[n]) for n in ("x", "y", "z"))
    outs = tuple(Srv(n, BITS, pts[n.upper()]) for n in ("a", "b", "c"))
    return ins, outs


class TestNamedFamilies:
    def test_six_config_triangle_builds_six_lines(self):
        ins, outs = triangle_srvs(triangle_points())
        fam = named_constraints("six_config_triangle", M2, ins, outs)
        assert [ln.label for ln in fam.lines] == [
            "ab_setting_free",
            "ac_setting_free",
            "bc_setting_free",
            "a_setting_free",
            "b_setting_free",
            "c_setting_free",
        ]
        pair_line = fam.line("ab_setting_free")
        assert pair_line.F == (0, 1) and pair_line.G == (0, 1)
        assert len(pair_line.instances) == 12
        assert len(fam.line("a_setting_free").instances) == 16

    def test_six_config_rejects_displaced_jammer(self):
        pts = triangle_points()
        pts["z"] = Event.at(0, 20, 0)
        ins, outs = triangle_srvs(pts)
        with pytest.raises(LayoutMismatch):
            named_constraints("six_config_triangle", M2, ins, outs)

    def test_jam_check_runs_once_per_pair_line(self, monkeypatch):
        calls = []
        require_jammed = causalbox.ons._require_jammed

        def counting(order, gather, avoid, what):
            calls.append(what)
            return require_jammed(order, gather, avoid, what)

        monkeypatch.setattr(causalbox.ons, "_require_jammed", counting)
        ins, outs = triangle_srvs(triangle_points())
        named_constraints("six_config_triangle", M2, ins, outs)
        assert calls == [
            "ab_setting_free (jam)",
            "ac_setting_free (jam)",
            "bc_setting_free (jam)",
        ]
        calls.clear()
        ins, outs = self.compass_srvs()
        named_constraints("compass", M1, ins, outs)
        assert calls == ["ab_setting_free (jam)", "bc_setting_free (jam)"]

    def test_unjammed_pair_named_in_error(self):
        # y jams the ac pair; moved next to b, every line still separates
        # but y no longer stands between a and c.
        pts = triangle_points()
        pts["y"] = Event.at(0, 5, 0)
        ins, outs = triangle_srvs(pts)
        for G, F in (((0, 1), (0, 1)), ((0, 2), (0, 2)), ((1, 2), (1, 2))):
            gather = [outs[g].location for g in G]
            avoid = [ins[f].location for f in F]
            assert separated(M2, gather, avoid).verdict is Verdict.SEPARATED
        for g in range(3):
            avoid = [s.location for s in ins]
            assert separated(M2, [outs[g].location], avoid).verdict is Verdict.SEPARATED
        with pytest.raises(LayoutMismatch, match=r"^ac_setting_free \(jam\):"):
            named_constraints("six_config_triangle", M2, ins, outs)

    def test_six_config_satisfied_by_product_box(self):
        ins, outs = triangle_srvs(triangle_points())
        fam = named_constraints("six_config_triangle", M2, ins, outs)
        table = {
            x: {a: Fraction(1, 8) for a in itertools.product("01", repeat=3)}
            for x in itertools.product("01", repeat=3)
        }
        box = CorrelationBox(ins, outs, table)
        assert check_family(fam, box) == []

    def test_six_config_detects_violation(self):
        ins, outs = triangle_srvs(triangle_points())
        fam = named_constraints("six_config_triangle", M2, ins, outs)
        table = {}
        for x in itertools.product("01", repeat=3):
            # Output a leaks input x[0]: only allowed under jamming of
            # the bc pair, so the a-marginal lines must fire.
            table[x] = {
                (x[0], b, c): Fraction(1, 4)
                for b, c in itertools.product("01", repeat=2)
            }
        box = CorrelationBox(ins, outs, table)
        reports = check_family(fam, box)
        assert reports
        assert any(r.instance.G == (0,) for r in reports)

    def compass_srvs(self):
        p1, p2 = Event.at(1, 2), Event.at(1, 6)
        q1, q2, q3 = Event.at(0, 0), Event.at(0, 4), Event.at(0, 8)
        ins = (
            Srv("X", BITS, p1),
            Srv("X_m", BITS, p1),
            Srv("Y", BITS, p2),
            Srv("Y_m", BITS, p2),
        )
        outs = (Srv("A", BITS, q1), Srv("B", BITS, q2), Srv("C", BITS, q3))
        return ins, outs

    def test_compass_builds_five_lines(self):
        ins, outs = self.compass_srvs()
        fam = named_constraints("compass", M1, ins, outs)
        assert len(fam.lines) == 5
        ab = fam.line("ab_setting_free")
        assert ab.F == (2, 3) and ab.G == (0, 1)
        bc = fam.line("bc_setting_free")
        assert bc.F == (0, 1) and bc.G == (1, 2)

    def test_compass_rejects_unjammed_pair(self):
        ins, outs = self.compass_srvs()
        far = Srv("X", BITS, Event.at(1, -40))
        far_m = Srv("X_m", BITS, Event.at(1, -40))
        with pytest.raises(LayoutMismatch):
            named_constraints("compass", M1, (far, far_m, *ins[2:]), outs)

    def test_compass_rejects_non_spacelike_points(self):
        ins, outs = self.compass_srvs()
        bad = tuple(
            Srv(s.name, BITS, Event.at(9, 0)) for s in ins[:2]
        ) + ins[2:]
        with pytest.raises(LayoutMismatch):
            named_constraints("compass", M1, bad, outs)

    def test_compass_rejects_split_jammer_bits(self):
        ins, outs = self.compass_srvs()
        moved = (ins[0], Srv("X_m", BITS, Event.at(1, 3)), *ins[2:])
        with pytest.raises(LayoutMismatch):
            named_constraints("compass", M1, moved, outs)

    def test_unknown_family_name(self):
        ins, outs = self.compass_srvs()
        with pytest.raises(KeyError):
            named_constraints("mystery", M1, ins, outs)

    def test_compass_uniform_box_passes(self):
        ins, outs = self.compass_srvs()
        fam = named_constraints("compass", M1, ins, outs)
        table = {
            x: {a: Fraction(1, 8) for a in itertools.product("01", repeat=3)}
            for x in itertools.product("01", repeat=4)
        }
        box = CorrelationBox(ins, outs, table)
        assert check_family(fam, box) == []
