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
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from operator import itemgetter, ne
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
        object.__setattr__(self, "_marginals", {})
        object.__setattr__(self, "_probabilities", {})

    @functools.cached_property
    def _outcome_index(self) -> dict[tuple[str, ...], int]:
        """Each outcome of the box -> its position in canonical order,
        built on first use."""
        return dict(zip(self.outcomes(), count()))

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
    pairs whose output does not lie strictly after its input.

    Issues come in a fixed order: missing settings, then the rows of the
    table in setting order, each with its defects in outcome-key order,
    then the pairings.  The same pass fills the box's integer-row cache:
    a declared row whose keys are all outcomes of the box is stored as
    `_integer_row` would build it, so a later check reads no table entry
    again.  A row with a stray key is not stored, and `_integer_row`
    raises on its first read.
    """
    issues: list[Issue] = []
    declared = set(box.settings())
    index = box._outcome_index
    D = box._denominator
    rows = box._integer_rows
    for x in sorted(declared):
        if x not in box.table:
            issues.append(Issue("missing_setting", f"x={','.join(x) or '()'}"))
    for x, row in sorted(box.table.items()):
        label = ",".join(x) or "()"
        if x not in declared:
            issues.append(Issue("unknown_setting", f"x={label}"))
            continue
        # The row as (outcome index, n) entries and its total, both in
        # units of 1 / D, with its defects keyed by outcome.
        entries = []
        total = 0
        defects = []
        for a, p in row.items():
            i = index.get(a)
            if i is None:
                defects.append(
                    (a, Issue("unknown_outcome", f"x={label} a={','.join(a)}"))
                )
                continue
            num, den = p.as_integer_ratio()
            if num < 0:
                defects.append(
                    (a, Issue("negativity", f"x={label} a={','.join(a)} p={p}"))
                )
            n = num * (D // den)
            entries.append((i, n))
            total += n
        if len(entries) == len(row):
            rows[x] = entries
        issues += [issue for _, issue in sorted(defects, key=itemgetter(0))]
        if total != D:
            issues.append(
                Issue("normalization", f"x={label} sums to {Fraction(total, D)}")
            )
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


def _integer_row(box: CorrelationBox, x) -> list[tuple[int, int]]:
    """The row at setting x as (i, n) pairs, in the row's own order: n / D
    is the probability of the i-th outcome of the box in canonical order.
    Rows are cached in `box._integer_rows`, under x as the caller holds
    it; validate_box fills the cache for every row it finds sound, so
    after it this only looks rows up.  Raises ValidationError for a key
    that is not an outcome of the box."""
    rows = box._integer_rows
    if x in rows:
        return rows[x]
    index = box._outcome_index
    D = box._denominator
    try:
        out = [
            (index[a], p.numerator * (D // p.denominator))
            for a, p in box.row(x).items()
        ]
    except KeyError as exc:
        raise ValidationError(
            f"x={','.join(_as_key(x)) or '()'}: {exc.args[0]!r} is not an outcome of the box"
        ) from None
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


def _check_outputs(box: CorrelationBox, G: Sequence[int]) -> None:
    """Raise IndexError for an index in G that names no output of the box."""
    n = len(box.outputs)
    for g in G:
        if not 0 <= g < n:
            raise IndexError(f"output index {g} out of range")


class _Vectors(dict):
    """The marginal vectors of one box on the output indices G, keyed by
    setting, each computed on first use: entry i of a vector is D times
    the probability of the i-th outcome of G in canonical order.

    G is range-checked, and its projection and list of outcomes taken,
    once, when the table is built.  `fractions` holds marginalize's
    Fraction view of the same vectors.  The box is held by a weak
    reference: the box holds its tables, and a cycle would keep both
    alive until the cyclic garbage collector runs.
    """

    __slots__ = ("box", "G", "projection", "outcomes", "fractions")

    def __init__(self, box: CorrelationBox, G: tuple[int, ...]):
        super().__init__()
        _check_outputs(box, G)
        sizes = tuple(len(s.alphabet) for s in box.outputs)
        self.box, self.G = weakref.ref(box), G
        self.projection = _projection(sizes, G)
        self.outcomes = list(_outcomes_of(box, G))
        self.fractions: dict = {}

    def __missing__(self, x) -> tuple[int, ...]:
        out = [0] * len(self.outcomes)
        proj = self.projection
        for i, n in _integer_row(self.box(), x):
            out[proj[i]] += n
        vec = self[x] = tuple(out)
        return vec


def _vectors(box: CorrelationBox, G: tuple[int, ...]) -> _Vectors:
    """The box's vector table for the output indices G, its only cache
    of marginals on G, built on first use."""
    table = box._marginals.get(G)
    if table is None:
        table = box._marginals[G] = _Vectors(box, G)
    return table


def _marginal_vector(box: CorrelationBox, G: Sequence[int], x) -> tuple[int, ...]:
    """Exact marginal of the row at setting x onto the output indices G,
    as integers over the box's common denominator D: entry i is D times
    the probability of the i-th outcome of G in canonical order.

    Two vectors compare as distributions only within one box, whose D
    they share.  Every key in the row must be an outcome of the box,
    whether G covers the offending output or not.
    """
    return _vectors(box, tuple(G))[_as_key(x)]


def _probability(box: CorrelationBox, n: int) -> Fraction:
    """The probability n / D of a vector entry n of the box, built once
    per box and n: a box's reports repeat few distinct entries."""
    probabilities = box._probabilities
    p = probabilities.get(n)
    if p is None:
        p = probabilities[n] = Fraction(n, box._denominator)
    return p


def _first_difference(
    box: CorrelationBox,
    outcomes: Sequence[tuple[str, ...]],
    left: tuple[int, ...],
    right: tuple[int, ...],
) -> tuple[tuple[str, ...], Fraction, Fraction]:
    """The first outcome of G, in canonical order, where two differing
    marginal vectors of the box differ, with both probabilities;
    `outcomes` lists G's outcomes in that order, as its vector table
    holds them."""
    i = next(compress(count(), map(ne, left, right)))
    return outcomes[i], _probability(box, left[i]), _probability(box, right[i])


def marginalize(
    box: CorrelationBox, G: Sequence[int], x
) -> dict[tuple[str, ...], Fraction]:
    """Exact marginal of the row at setting x onto the output indices G.

    Returns a complete vector (every outcome combination of G present,
    zeros included) so callers can compare distributions directly.
    Raises ValidationError when the row holds a key that is not an
    outcome of the box.
    """
    table = _vectors(box, tuple(G))
    x = _as_key(x)
    cache = table.fractions
    if x not in cache:
        cache[x] = {
            a: _probability(box, n) for a, n in zip(table.outcomes, table[x])
        }
    return cache[x]


# ----------------------------------------------------------------------
# stock mechanisms

# The stock three-output mechanisms that casestudies.build_model
# assembles, named here so the CLI can offer them without loading it.
MODELS = ("otp", "jam", "loop")


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
