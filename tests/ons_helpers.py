"""Table checks that only the tests use, on top of `causalbox.ons`.

`check_standard_ns` is textbook no-signalling, which the ONS tests
compare against; `check_family` checks every instance of a named
constraint family.
"""

from __future__ import annotations

import itertools

from causalbox.boxes import CorrelationBox, marginalize
from causalbox.ons import NamedFamily, ViolationReport, check_instances


def check_standard_ns(box: CorrelationBox) -> bool:
    """Textbook no-signalling: for each party, the joint marginal of all
    other parties' outputs is independent of that party's input.

    Purely tabular; demands a square box whose pairing is a bijection
    between inputs and outputs.
    """
    n = len(box.inputs)
    if len(box.outputs) != n or n == 0:
        raise ValueError("standard no-signalling needs equally many inputs and outputs")
    if sorted(box.pairing.keys()) != list(range(n)) or sorted(
        box.pairing.values()
    ) != list(range(n)):
        raise ValueError("standard no-signalling needs a bijective pairing")
    for j in range(n):
        others = tuple(k for k in range(n) if k != box.pairing[j])
        non_j = [i for i in range(n) if i != j]
        contexts = itertools.product(*(box.inputs[i].alphabet.labels for i in non_j))
        for ctx in contexts:
            base = None
            for v in box.inputs[j].alphabet.labels:
                x = [None] * n
                for i, val in zip(non_j, ctx):
                    x[i] = val
                x[j] = v
                m = marginalize(box, others, tuple(x))
                if base is None:
                    base = m
                elif m != base:
                    return False
    return True


def check_family(fam: NamedFamily, box: CorrelationBox) -> list[ViolationReport]:
    return check_instances(box, [inst for line in fam.lines for inst in line.instances])
