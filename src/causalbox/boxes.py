"""Exact conditional-probability boxes over spacetime-pinned variables.

A correlation box stores, for every joint input setting, an exact rational
distribution over joint outputs.  Inputs and outputs are SRVs: named
variables pinned to events of one causal backend.  Everything here is
pure table algebra; geometric questions stay in `separation`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .geometry import CausalOrder, Event
from .rational import parse_rational

IDLE = "idle"


class ValidationError(ValueError):
    """Raised when supplied table data is structurally unusable."""


def do_label(value: str) -> str:
    return f"do({value})"


def undo_label(label: str) -> str | None:
    """Inverse of do_label; None for labels that are not interventions."""
    if label.startswith("do(") and label.endswith(")"):
        return label[3:-1]
    return None


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite value set for one SRV.

    An intervention alphabet is {idle, do(a), ...} and keeps a link to
    the alphabet it overrides.
    """

    labels: tuple[str, ...]
    target: "Alphabet | None" = None

    def __post_init__(self):
        labels = tuple(str(v) for v in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate labels in alphabet {labels!r}")
        if self.target is not None:
            expected = (IDLE, *(do_label(v) for v in self.target.labels))
            if labels != expected:
                raise ValidationError(
                    f"intervention alphabet {labels!r} does not match target"
                )

    @staticmethod
    def of(*labels) -> "Alphabet":
        return Alphabet(tuple(str(v) for v in labels))

    @staticmethod
    def binary() -> "Alphabet":
        return Alphabet(("0", "1"))

    @staticmethod
    def interventions(target: "Alphabet") -> "Alphabet":
        return Alphabet(
            (IDLE, *(do_label(v) for v in target.labels)), target=target
        )

    @property
    def is_intervention(self) -> bool:
        return self.target is not None

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Srv:
    """A random variable together with the event where it is realised."""

    name: str
    alphabet: Alphabet
    location: Event


def _as_key(key) -> tuple[str, ...]:
    if isinstance(key, str):
        # Comma-joined serialisation form; "" encodes the empty tuple.
        return tuple(key.split(",")) if key else ()
    return tuple(str(v) for v in key)


@dataclass(frozen=True, eq=False)
class CorrelationBox:
    """Conditional distributions P(a | x), exact rationals throughout.

    The constructor is deliberately lenient: it normalises shapes and
    coerces numbers but never checks probabilities.  Run validate_box to
    obtain the full defect report; malformed boxes stay representable so
    that the checker can describe what is wrong with them.
    """

    inputs: tuple[Srv, ...]
    outputs: tuple[Srv, ...]
    table: Mapping = field(default_factory=dict)
    pairing: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        pairing = dict(self.pairing) if self.pairing else {}
        object.__setattr__(self, "pairing", pairing)
        table = {}
        for x, row in dict(self.table).items():
            table[_as_key(x)] = {
                _as_key(a): parse_rational(p) for a, p in dict(row).items()
            }
        object.__setattr__(self, "table", table)
        # The exact integer view: every entry is n / D over one common
        # denominator D of the whole table.
        object.__setattr__(
            self,
            "_denominator",
            math.lcm(*(p.denominator for row in table.values() for p in row.values())),
        )
        object.__setattr__(self, "_integer_rows", {})
        object.__setattr__(self, "_marginal_cache", {})
        object.__setattr__(self, "_marginal_dicts", {})

    # -- enumeration ---------------------------------------------------

    def settings(self) -> Iterator[tuple[str, ...]]:
        return itertools.product(*(s.alphabet.labels for s in self.inputs))

    def outcomes(self) -> Iterator[tuple[str, ...]]:
        return itertools.product(*(s.alphabet.labels for s in self.outputs))

    # -- lookup --------------------------------------------------------

    def row(self, x) -> Mapping[tuple[str, ...], Fraction]:
        return self.table.get(_as_key(x), {})

    def prob(self, x, a) -> Fraction:
        return self.row(x).get(_as_key(a), Fraction(0))

    def input_index(self, name: str) -> int:
        for i, s in enumerate(self.inputs):
            if s.name == name:
                return i
        raise KeyError(name)

    def output_index(self, name: str) -> int:
        for i, s in enumerate(self.outputs):
            if s.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class Issue:
    kind: str
    where: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.where}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[Issue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def of_kind(self, kind: str) -> list[Issue]:
        return [i for i in self.issues if i.kind == kind]


def validate_box(box: CorrelationBox, order: CausalOrder) -> ValidationReport:
    """Report every defect of a box: negative or non-normalised rows,
    missing or stray settings, malformed outcome keys, and matched agent
    pairs whose output does not lie strictly after its input."""
    issues: list[Issue] = []
    declared = set(box.settings())
    out_arity = len(box.outputs)
    valid_outcomes = set(box.outcomes())
    for x in sorted(declared):
        if x not in box.table:
            issues.append(Issue("missing_setting", f"x={','.join(x) or '()'}"))
    for x, row in sorted(box.table.items()):
        label = ",".join(x) or "()"
        if x not in declared:
            issues.append(Issue("unknown_setting", f"x={label}"))
            continue
        total = Fraction(0)
        for a, p in sorted(row.items()):
            if len(a) != out_arity or a not in valid_outcomes:
                issues.append(
                    Issue("unknown_outcome", f"x={label} a={','.join(a)}")
                )
                continue
            if p < 0:
                issues.append(
                    Issue("negativity", f"x={label} a={','.join(a)} p={p}")
                )
            total += p
        if total != 1:
            issues.append(Issue("normalization", f"x={label} sums to {total}"))
    for i, j in sorted(box.pairing.items()):
        p_loc = box.inputs[i].location
        q_loc = box.outputs[j].location
        if not order.strictly_precedes(p_loc, q_loc):
            issues.append(
                Issue(
                    "causal_ordering",
                    f"input {box.inputs[i].name} at {p_loc!r} does not "
                    f"strictly precede output {box.outputs[j].name} at {q_loc!r}",
                )
            )
    return ValidationReport(tuple(issues))


def _outcomes_of(box: CorrelationBox, G: Sequence[int]) -> Iterator[tuple[str, ...]]:
    """The outcomes of the outputs G in canonical order."""
    return itertools.product(*(box.outputs[g].alphabet.labels for g in G))


def _integer_row(box: CorrelationBox, x: tuple[str, ...]) -> list[tuple[int, int]]:
    """The row at setting x as (i, n) pairs: n / D is the probability of
    the i-th outcome of the box in canonical order.  Raises
    ValidationError for a key that is not an outcome of the box."""
    rows = box._integer_rows
    if x in rows:
        return rows[x]
    positions = [
        {v: i for i, v in enumerate(s.alphabet.labels)} for s in box.outputs
    ]
    D = box._denominator
    out = []
    for a, p in box.row(x).items():
        if len(a) != len(positions) or any(
            v not in pos for pos, v in zip(positions, a)
        ):
            raise ValidationError(
                f"x={','.join(x) or '()'}: {a!r} is not an outcome of the box"
            )
        i = 0
        for pos, v in zip(positions, a):
            i = i * len(pos) + pos[v]
        out.append((i, p.numerator * (D // p.denominator)))
    rows[x] = out
    return out


@functools.lru_cache(maxsize=1024)
def _projection(sizes: tuple[int, ...], G: tuple[int, ...]) -> tuple[int, ...]:
    """For each outcome of outputs with alphabet sizes `sizes`, in
    canonical order, the position of its restriction to G among the
    outcomes of G."""
    strides = [math.prod(sizes[h] for h in G[k + 1 :]) for k in range(len(G))]
    return tuple(
        sum(idx[g] * s for g, s in zip(G, strides))
        for idx in itertools.product(*map(range, sizes))
    )


def _marginal_vector(box: CorrelationBox, G: Sequence[int], x) -> tuple[int, ...]:
    """Exact marginal of the row at setting x onto the output indices G,
    as integers over the box's common denominator D: entry i is D times
    the probability of the i-th outcome of G in canonical order.

    Two vectors compare as distributions only within one box, whose D
    they share.  Every key in the row must be an outcome of the box,
    whether G covers the offending output or not.
    """
    G = tuple(G)
    x = _as_key(x)
    cache = box._marginal_cache
    key = (G, x)
    if key in cache:
        return cache[key]
    sizes = tuple(len(s.alphabet) for s in box.outputs)
    for g in G:
        if not 0 <= g < len(sizes):
            raise IndexError(f"output index {g} out of range")
    proj = _projection(sizes, G)
    out = [0] * math.prod(sizes[g] for g in G)
    for i, n in _integer_row(box, x):
        out[proj[i]] += n
    vec = cache[key] = tuple(out)
    return vec


def _first_difference(
    box: CorrelationBox,
    G: tuple[int, ...],
    left: tuple[int, ...],
    right: tuple[int, ...],
) -> tuple[tuple[str, ...], Fraction, Fraction]:
    """The first outcome of G, in canonical order, where two differing
    marginal vectors of the box differ, with both probabilities."""
    for i, (m, n) in enumerate(zip(left, right)):
        if m != n:
            break
    outcome = next(itertools.islice(_outcomes_of(box, G), i, None))
    return outcome, Fraction(m, box._denominator), Fraction(n, box._denominator)


def marginalize(
    box: CorrelationBox, G: Sequence[int], x
) -> dict[tuple[str, ...], Fraction]:
    """Exact marginal of the row at setting x onto the output indices G.

    Returns a complete vector (every outcome combination of G present,
    zeros included) so callers can compare distributions directly.
    Raises ValidationError when the row holds a key that is not an
    outcome of the box.
    """
    G = tuple(G)
    x = _as_key(x)
    cache = box._marginal_dicts
    key = (G, x)
    if key not in cache:
        vec = _marginal_vector(box, G, x)
        D = box._denominator
        cache[key] = {a: Fraction(n, D) for a, n in zip(_outcomes_of(box, G), vec)}
    return cache[key]


# ----------------------------------------------------------------------
# canonical constructions

# The stock three-output mechanisms that casestudies.build_model
# assembles, named here so the CLI can offer them without loading it.
MODELS = ("otp", "jam", "loop")


def _loop_table() -> dict:
    row = {}
    for a, b, c in itertools.product("01", repeat=3):
        if int(b) == int(a) ^ int(c):
            row[(a, b, c)] = Fraction(1, 4)
    return {(): row}


def canonical_box(name: str, locations: Mapping[str, Event], param=None) -> CorrelationBox:
    """Build one of the stock boxes at caller-supplied events.

    Names: loop_box (three outputs, b = a xor c uniform), pr_box (two
    paired agents winning a xor b = x*y), jam_mechanism_X(param) and
    jam_mechanism_Y(param) (switchable three-output jammers).
    """
    bits = Alphabet.binary()
    if name == "loop_box":
        outs = tuple(
            Srv(n, bits, locations[k]) for n, k in (("A", "q1"), ("B", "q2"), ("C", "q3"))
        )
        return CorrelationBox(inputs=(), outputs=outs, table=_loop_table())
    if name == "pr_box":
        ins = (Srv("X", bits, locations["p1"]), Srv("Y", bits, locations["p2"]))
        outs = (Srv("A", bits, locations["q1"]), Srv("B", bits, locations["q2"]))
        table = {}
        for x, y in itertools.product("01", repeat=2):
            row = {}
            for a, b in itertools.product("01", repeat=2):
                if int(a) ^ int(b) == int(x) * int(y):
                    row[(a, b)] = Fraction(1, 2)
            table[(x, y)] = row
        return CorrelationBox(inputs=ins, outputs=outs, table=table, pairing={0: 0, 1: 1})
    if name in ("jam_mechanism_X", "jam_mechanism_Y"):
        lam = parse_rational(param if param is not None else Fraction(1, 2))
        if not 0 <= lam <= 1:
            raise ValidationError(f"jam mechanism weight {lam} outside [0, 1]")
        switch_name = "X_m" if name == "jam_mechanism_X" else "Y_m"
        drive_name = "X" if name == "jam_mechanism_X" else "Y"
        ins = (
            Srv(drive_name, bits, locations["p"]),
            Srv(switch_name, bits, locations["p"]),
        )
        outs = tuple(
            Srv(n, bits, locations[k]) for n, k in (("A", "q1"), ("B", "q2"), ("C", "q3"))
        )
        table = {}
        for x, m in itertools.product("01", repeat=2):
            row = {}
            for a, b, c in itertools.product("01", repeat=3):
                if m == "0":
                    row[(a, b, c)] = Fraction(1, 8)
                    continue
                # Mechanism on: the named pair is locked to the drive bit,
                # the first pair member weighs param vs 1 - param, and the
                # bystander output stays uniform.
                if name == "jam_mechanism_X":
                    locked, lead = int(a) ^ int(b), a
                else:
                    locked, lead = int(b) ^ int(c), b
                if locked != int(x):
                    continue
                w = lam if lead == "0" else 1 - lam
                row[(a, b, c)] = w * Fraction(1, 2)
            table[(x, m)] = row
        return CorrelationBox(inputs=ins, outputs=outs, table=table)
    raise KeyError(f"unknown canonical box {name!r}")


# ----------------------------------------------------------------------
# interventions


@dataclass(frozen=True, eq=False)
class InterventionExtension:
    """A box enlarged by one intervention input aimed at output j.

    The idle row of the new input reproduces the base table; each do(a')
    row pins output j to a' and distributes the remaining outputs by the
    caller-supplied post tables.
    """

    base: CorrelationBox
    j: int
    srv: Srv
    box: CorrelationBox
    post_tables: Mapping

    def verify(self) -> bool:
        """Re-derive both defining laws directly from the stored pieces."""
        target = self.base.outputs[self.j].alphabet
        for x in self.base.settings():
            if marginalize(self.box, range(len(self.box.outputs)), (*x, IDLE)) != \
                    marginalize(self.base, range(len(self.base.outputs)), x):
                return False
            for forced in target.labels:
                row = self.box.row((*x, do_label(forced)))
                post = self.post_tables[(forced, x)]
                for a in self.box.outcomes():
                    want = Fraction(0)
                    if a[self.j] == forced:
                        rest = tuple(v for k, v in enumerate(a) if k != self.j)
                        want = post.get(rest, Fraction(0))
                    if row.get(a, Fraction(0)) != want:
                        return False
        return True


def extend_with_intervention(
    order: CausalOrder,
    box: CorrelationBox,
    j: int,
    q_prime: Event,
    post_tables: Mapping,
) -> InterventionExtension:
    """Adjoin an intervention input for output j, placed at q_prime.

    q_prime must weakly precede the target output's event (the forcing
    may happen at the very same point).  post_tables maps (forced value,
    base setting) to an exact distribution over the other outputs.
    """
    if not 0 <= j < len(box.outputs):
        raise IndexError(f"output index {j} out of range")
    target = box.outputs[j]
    if q_prime != target.location and not order.strictly_precedes(
        q_prime, target.location
    ):
        raise ValidationError(
            f"intervention point {q_prime!r} must weakly precede {target.location!r}"
        )
    others = [s for k, s in enumerate(box.outputs) if k != j]
    normalized: dict = {}
    for forced in target.alphabet.labels:
        for x in box.settings():
            try:
                supplied = post_tables[(forced, x)]
            except KeyError:
                raise ValidationError(
                    f"post table missing for do({forced}) at setting {x}"
                ) from None
            dist = {_as_key(a): parse_rational(p) for a, p in dict(supplied).items()}
            total = sum(dist.values(), Fraction(0))
            if total != 1 or any(p < 0 for p in dist.values()):
                raise ValidationError(
                    f"post table for do({forced}) at {x} is not a distribution"
                )
            for a in dist:
                if len(a) != len(others):
                    raise ValidationError(
                        f"post table outcome {a} has wrong arity at do({forced})"
                    )
            normalized[(forced, x)] = dist
    srv = Srv(f"I_{target.name}", Alphabet.interventions(target.alphabet), q_prime)
    table: dict = {}
    for x in box.settings():
        table[(*x, IDLE)] = dict(box.row(x))
        for forced in target.alphabet.labels:
            row = {}
            for rest, p in normalized[(forced, x)].items():
                if p == 0:
                    continue
                full = list(rest)
                full.insert(j, forced)
                row[tuple(full)] = p
            table[(*x, do_label(forced))] = row
    extended = CorrelationBox(
        inputs=(*box.inputs, srv),
        outputs=box.outputs,
        table=table,
        pairing=box.pairing,
    )
    return InterventionExtension(
        base=box, j=j, srv=srv, box=extended, post_tables=normalized
    )


# ----------------------------------------------------------------------
# embedding into the uniform-alphabet scenario


@dataclass(frozen=True)
class AgentSlot:
    """One party of the squared-up scenario, before padding."""

    input_index: int | None
    output_index: int | None
    in_labels: tuple[str, ...]
    out_labels: tuple[str, ...]
    location: Event


def _agent_slots(box: CorrelationBox) -> list[AgentSlot]:
    paired_inputs = dict(box.pairing)
    used_inputs = set(paired_inputs)
    slots = []
    for j, out in enumerate(box.outputs):
        owner = next((i for i, jj in paired_inputs.items() if jj == j), None)
        in_labels = box.inputs[owner].alphabet.labels if owner is not None else (IDLE,)
        slots.append(AgentSlot(owner, j, in_labels, out.alphabet.labels, out.location))
    for i, inp in enumerate(box.inputs):
        if i in used_inputs:
            continue
        slots.append(AgentSlot(i, None, inp.alphabet.labels, ("*",), inp.location))
    return slots


def embed_general(box: CorrelationBox) -> CorrelationBox:
    """Re-express an arbitrary box in the uniform n-agent scenario.

    Every agent gets max-size input and output alphabets, indexed 0..m-1
    and 0..k-1.  Settings that select a padding input produce all-zero
    rows; padding outcomes carry probability zero; on the embedded image
    the original probabilities appear unchanged.
    """
    slots = _agent_slots(box)
    m = max((len(s.in_labels) for s in slots), default=1)
    k = max((len(s.out_labels) for s in slots), default=1)
    in_alpha = Alphabet.of(*range(m))
    out_alpha = Alphabet.of(*range(k))
    new_inputs = tuple(
        Srv(f"Y{idx + 1}", in_alpha, s.location) for idx, s in enumerate(slots)
    )
    new_outputs = tuple(
        Srv(f"B{idx + 1}", out_alpha, s.location) for idx, s in enumerate(slots)
    )
    table: dict = {}
    for y in itertools.product(range(m), repeat=len(slots)):
        key = tuple(str(v) for v in y)
        if any(y[idx] >= len(s.in_labels) for idx, s in enumerate(slots)):
            table[key] = {}
            continue
        x = [None] * len(box.inputs)
        for idx, s in enumerate(slots):
            if s.input_index is not None:
                x[s.input_index] = s.in_labels[y[idx]]
        row = box.row(tuple(x))
        new_row = {}
        for a, p in row.items():
            if p == 0:
                continue
            b = []
            for idx, s in enumerate(slots):
                if s.output_index is None:
                    b.append("0")
                else:
                    b.append(str(s.out_labels.index(a[s.output_index])))
            new_row[tuple(b)] = p
        table[key] = new_row
    return CorrelationBox(
        inputs=new_inputs,
        outputs=new_outputs,
        table=table,
        pairing={i: i for i in range(len(slots))},
    )


def restrict_embedded(
    embedded: CorrelationBox, box: CorrelationBox
) -> dict[tuple[str, ...], dict[tuple[str, ...], Fraction]]:
    """Read the original table back out of its embedding (round trip)."""
    slots = _agent_slots(box)
    table: dict = {}
    for x in box.settings():
        y = []
        for s in slots:
            y.append(str(s.in_labels.index(x[s.input_index])) if s.input_index is not None else "0")
        row = {}
        for a in box.outcomes():
            b = []
            for s in slots:
                b.append(str(s.out_labels.index(a[s.output_index])) if s.output_index is not None else "0")
            p = embedded.prob(tuple(y), tuple(b))
            if p != 0:
                row[a] = p
        table[x] = row
    return table
