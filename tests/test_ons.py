"""Constraint generation, exact checking, and the named families."""

import dataclasses
import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

import causalbox.boxes
import causalbox.ons
import ons_reference as ref
from ons_helpers import check_family, check_standard_ns
from test_ons_reference import BACKENDS, seeded_box
from causalbox.boxes import (
    Alphabet,
    CorrelationBox,
    Srv,
    ValidationError,
    marginalize,
)
from causalbox.casestudies import CausalMechanism
from causalbox.geometry import Event, FiniteOrder, Minkowski, TerminatedDiagram
from causalbox.ons import (
    ConstraintInstance,
    LayoutMismatch,
    ViolationReport,
    check_instances,
    check_ons,
    enumerate_constraints,
    named_constraints,
)
from causalbox.protocol import exhaustive_protocol_search
from causalbox.scenario import preset
from causalbox.separation import Verdict, _separated, separated

M1 = Minkowski(1)
M2 = Minkowski(2)
BITS = Alphabet.binary()


def bell_box():
    return preset("bell_standard").box


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

    def test_box_without_outputs_has_no_instances(self):
        # No output means no G, so no pair: the inputs' locations are
        # still numbered and validated, and nothing is emitted.
        for n_in in (0, 1, 2):
            ins = tuple(Srv(f"X{i}", BITS, Event.at(0, i)) for i in range(n_in))
            table = {x: {(): 1} for x in itertools.product("01", repeat=n_in)}
            assert enumerate_constraints(M1, CorrelationBox(ins, (), table)) == []

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


def _plane_points(rng, k):
    """k Minkowski(2) events; about a quarter repeat an earlier location."""
    pts = []
    for _ in range(k):
        if pts and rng.random() < 0.25:
            pts.append(rng.choice(pts))
        else:
            pts.append(Event.at(_rat(rng, -2, 2), _rat(rng, -3, 3), _rat(rng, -3, 3)))
    return pts


def seeded_layout(backend, seed):
    """(order, box) of a seeded layout.  colocated draws every input and
    output location of a 1+1 layout from three points, so inputs share
    locations with each other and with outputs."""
    rng = random.Random(f"{backend}:{seed}")
    n_in, n_out = rng.randint(1, 4), rng.randint(1, 3)
    k = n_in + n_out
    if backend == "minkowski1":
        order, pts = M1, _points(rng, k, -2, 2)
    elif backend == "terminated":
        order = TerminatedDiagram([(x, _rat(rng, 3, 5)) for x in (-8, -3, 2, 7)])
        pts = _points(rng, k, -2, 1)
    elif backend == "minkowski2":
        order, pts = M2, _plane_points(rng, k)
    elif backend == "colocated":
        pool = _points(rng, 3, -2, 2)
        order, pts = M1, [rng.choice(pool) for _ in range(k)]
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
    @pytest.mark.parametrize(
        "backend", ["minkowski1", "terminated", "finite", "minkowski2", "colocated"]
    )
    def test_matches_all_pairs_reference(self, backend, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _separated(*args, **kwargs)

        lattice = decided = 0
        for seed in range(40):
            order, box = seeded_layout(backend, seed)
            expected = all_pairs_reference(order, box)
            del calls[:]
            with monkeypatch.context() as patch:
                patch.setattr(causalbox.ons, "_separated", counting)
                assert enumerate_constraints(order, box) == expected
            # No (gathered, avoided) family is decided twice.
            families = [(tuple(gather), tuple(avoid)) for _, gather, avoid, _ in calls]
            assert len(set(families)) == len(families)
            lattice += (2 ** len(box.inputs) - 1) * (2 ** len(box.outputs) - 1)
            decided += len(calls)
        assert decided < lattice

    def test_colocated_inputs_decide_each_family_once(self, monkeypatch):
        # X0 and X1 share a location, so F = (0,), (1,) and (0, 1) avoid
        # one location, and F = (0, 2), (1, 2) and (0, 1, 2) avoid two.
        # Every one of the 7 * 3 pairs is SEPARATED, so none is pruned,
        # and the 3 gathered sets against the 3 avoided sets make 9
        # distinct families: one _separated call each.
        ins = tuple(
            Srv(f"X{i}", BITS, e)
            for i, e in enumerate((Event.at(0, 0), Event.at(0, 0), Event.at(0, 10)))
        )
        outs = (Srv("A0", BITS, Event.at(1, -5)), Srv("A1", BITS, Event.at(1, -7)))
        box = CorrelationBox(ins, outs, {x: {} for x in itertools.product("01", repeat=3)})
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _separated(*args, **kwargs)

        monkeypatch.setattr(causalbox.ons, "_separated", counting)
        got = enumerate_constraints(M1, box)
        monkeypatch.undo()
        assert got == all_pairs_reference(M1, box)
        assert {(i.F, i.G) for i in got} == {
            (F, G)
            for F in itertools.chain.from_iterable(
                itertools.combinations(range(3), r) for r in (1, 2, 3)
            )
            for G in ((0,), (1,), (0, 1))
        }
        assert len(calls) == 9

    def test_plane_tie_under_two_denominators(self, monkeypatch):
        # The second input and the last two outputs are the first input
        # and outputs halved.  Over their common denominators, 1 and 2,
        # both families have the same integer events, so their sweeps
        # solve the same integer ties; the tie memo keeps them apart by L.
        full = [Event.at(1, 0, 1), Event.at(3, 4, -4), Event.at(3, 3, -1)]
        half = [Event(t=e.t / 2, x=tuple(c / 2 for c in e.x)) for e in full]
        ins = (Srv("X0", BITS, full[0]), Srv("X1", BITS, half[0]))
        outs = tuple(
            Srv(f"A{i}", BITS, e) for i, e in enumerate((*full[1:], *half[1:]))
        )
        box = CorrelationBox(ins, outs, {x: {} for x in itertools.product("01", repeat=2)})
        solved = []

        def recording(L, tie):
            solved.append((L, tuple(tie)))
            return tie_extrema(L, tie)

        tie_extrema = causalbox.separation._tie_extrema
        monkeypatch.setattr(causalbox.separation, "_tie_extrema", recording)
        got = enumerate_constraints(M2, box)
        monkeypatch.undo()
        assert got == all_pairs_reference(M2, box)
        by_tie: dict = {}
        for L, tie in solved:
            by_tie.setdefault(tie, set()).add(L)
        assert any(dens == {1, 2} for dens in by_tie.values())
        # Each (L, tie) is solved once per call.
        assert len(set(solved)) == len(solved)
        assert {(i.F, i.G) for i in got} >= {((0,), (0, 1)), ((1,), (2, 3))}

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
            "quadrant_cover", "common_future", "sweep", "cone_closure",
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


def _nonzero_row(box, x):
    return {a: p for a, p in box.row(x).items() if p}


class TestVectorTable:
    """Each box holds one vector table per output set G, its only cache
    of marginals; check_instances, the protocol search and marginalize
    all read it."""

    def test_each_vector_once_and_each_g_checked_once(self, monkeypatch):
        # Vectors are computed only for the settings of moves whose rows
        # differ, each (G, x) at most once; every G's table is still
        # taken once.
        vectors = causalbox.boxes._Vectors
        built, computed = [], []
        init, missing = vectors.__init__, vectors.__missing__

        def counting_init(table, box, G):
            built.append(G)
            init(table, box, G)

        def counting_missing(table, x):
            computed.append((table.G, x))
            return missing(table, x)

        monkeypatch.setattr(vectors, "__init__", counting_init)
        monkeypatch.setattr(vectors, "__missing__", counting_missing)
        violated = skipped = 0
        for backend in BACKENDS:
            for seed in range(4):
                order, box = seeded_box(backend, "factored", seed)
                assert "_outcome_index" not in vars(box)
                instances = enumerate_constraints(order, box)
                built.clear()
                computed.clear()
                reports = check_instances(box, instances)
                differing = [
                    i
                    for i in instances
                    if _nonzero_row(box, i.x) != _nonzero_row(box, i.x_prime)
                ]
                want = {(i.G, x) for i in differing for x in (i.x, i.x_prime)}
                assert len(computed) == len(set(computed)) and set(computed) == want
                skipped += len(differing) < len(instances)
                exhaustive_protocol_search(order, box, instances)
                for inst in instances:
                    marginalize(box, inst.G, inst.x_prime)
                assert check_instances(box, instances) == reports
                assert len(computed) == len(set(computed))
                assert sorted(built) == sorted({i.G for i in instances})
                assert bool(instances) == ("_outcome_index" in vars(box))
                violated += bool(reports)
        assert violated and skipped

    def test_box_and_its_tables_are_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            box = signalling_bell_box()
            assert check_ons(M1, box) and box._marginals
            alive = weakref.ref(box)
            del box
            assert alive() is None
        finally:
            gc.enable()

    def test_out_of_range_g_raises_index_error(self):
        box = bell_box()
        inst = enumerate_constraints(M1, box)[0]
        bad = dataclasses.replace(inst, G=(0, 2))
        for _ in range(2):
            with pytest.raises(IndexError, match="output index 2 out of range"):
                check_instances(box, [inst, bad])

    def test_stray_outcome_key_raises_on_first_read_of_its_row(self):
        table = {
            ("0",): {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)},
            ("1",): {("0", "0"): Fraction(1, 2), ("2", "0"): Fraction(1, 2)},
        }
        box = triangle_box(table)
        instances = enumerate_constraints(M1, box)
        assert marginalize(box, (0,), ("0",)) == {
            ("0",): Fraction(1, 2),
            ("1",): Fraction(1, 2),
        }
        for _ in range(2):
            with pytest.raises(ValidationError, match=r"x=1: \('2', '0'\)"):
                check_instances(box, instances)


class TestRecords:
    def test_records_are_frozen_slotted_values(self):
        reports = check_ons(M1, signalling_bell_box())
        rep = reports[0]
        inst = rep.instance
        for record, name in ((inst, "G"), (rep, "outcome")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, ())
            assert not hasattr(record, "__dict__")
        moved = dataclasses.replace(inst, x_prime=inst.x)
        assert moved != inst and moved.x_prime == inst.x
        assert moved.certificate is inst.certificate
        assert dataclasses.replace(rep, p_x=rep.p_x_prime) != rep
        copies = [dataclasses.replace(r) for r in reports]
        assert copies == reports
        assert [hash(c) for c in copies] == [hash(r) for r in reports]
        assert len({*reports, *copies}) == len(reports)

    @pytest.mark.parametrize("name", ["field", "note"])
    @pytest.mark.parametrize("cls", [ConstraintInstance, ViolationReport])
    def test_set_and_delete_raise_frozen_instance_error(self, cls, name):
        # "note" is no field: the frozen __setattr__ and __delattr__ that
        # dataclass generates raised TypeError from super() on it.
        rep = check_ons(M1, signalling_bell_box())[0]
        record = rep if cls is ViolationReport else rep.instance
        if name == "field":
            name = dataclasses.fields(cls)[0].name
        before = [getattr(record, f.name) for f in dataclasses.fields(cls)]
        with pytest.raises(dataclasses.FrozenInstanceError, match=name):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=name):
            delattr(record, name)
        assert [getattr(record, f.name) for f in dataclasses.fields(cls)] == before
        assert not hasattr(record, "note")

    def test_positional_and_keyword_construction_agree(self):
        rep = check_ons(M1, signalling_bell_box())[0]
        inst = rep.instance
        for cls, record in ((ConstraintInstance, inst), (ViolationReport, rep)):
            names = [f.name for f in dataclasses.fields(cls)]
            values = [getattr(record, name) for name in names]
            by_position = cls(*values)
            by_keyword = cls(**dict(zip(names, values)))
            assert by_position == by_keyword == record
            assert hash(by_position) == hash(by_keyword) == hash(record)
            assert [getattr(by_keyword, name) for name in names] == values
            with pytest.raises(TypeError):
                cls(*values[:-1])
            with pytest.raises(TypeError):
                cls(*values, values[-1])

    def test_fields_match_args_and_repr_are_unchanged(self):
        rep = check_ons(M1, signalling_bell_box())[0]
        inst = rep.instance
        names = ("F", "G", "x", "x_prime", "certificate")
        assert tuple(f.name for f in dataclasses.fields(ConstraintInstance)) == names
        assert ConstraintInstance.__match_args__ == names
        names = ("instance", "outcome", "p_x", "p_x_prime")
        assert tuple(f.name for f in dataclasses.fields(ViolationReport)) == names
        assert ViolationReport.__match_args__ == names
        assert repr(inst) == (
            f"ConstraintInstance(F={inst.F!r}, G={inst.G!r}, x={inst.x!r}, "
            f"x_prime={inst.x_prime!r}, certificate={inst.certificate!r})"
        )
        assert repr(rep) == (
            f"ViolationReport(instance={inst!r}, outcome={rep.outcome!r}, "
            f"p_x={rep.p_x!r}, p_x_prime={rep.p_x_prime!r})"
        )
        match rep:
            case ViolationReport(ConstraintInstance(F, G), outcome, p, q):
                assert (F, G, outcome, p, q) == (
                    inst.F, inst.G, rep.outcome, rep.p_x, rep.p_x_prime
                )
            case _:
                pytest.fail("positional pattern did not match")

    def test_constructed_records_equal_their_replace_copies(self):
        box = signalling_bell_box()
        for inst in enumerate_constraints(M1, box):
            built = ConstraintInstance(inst.F, inst.G, inst.x, inst.x_prime, inst.certificate)
            assert built == dataclasses.replace(built) == inst
        for rep in check_ons(M1, box):
            built = ViolationReport(rep.instance, rep.outcome, rep.p_x, rep.p_x_prime)
            assert built == dataclasses.replace(built) == rep


class TestStandardNs:
    def test_pr_box_is_ns(self):
        assert check_standard_ns(bell_box())

    def test_signalling_box_is_not(self):
        assert not check_standard_ns(signalling_bell_box())

    def test_requires_square_box(self):
        locs = (Event.at(0, -2), Event.at(3, 0), Event.at(0, 2))
        outs = tuple(Srv(n, BITS, e) for n, e in zip("ABC", locs))
        row = CausalMechanism("otp").row((None, None, None))
        with pytest.raises(ValueError):
            check_standard_ns(CorrelationBox((), outs, {(): row}))

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
