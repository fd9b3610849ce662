"""The Fraction marginal and check code, kept by the tests as a reference
for the integer-vector check in `causalbox.ons`.

`marginalize` sums the row's entries into a dict of Fractions over the
outcomes of G, skipping keys of the wrong length, with no cache.
`check_instances` compares two such dicts per instance and reports the
first differing outcome in canonical order.  `protocol_search` is the
marginal half of `exhaustive_protocol_search`: the first instance whose
endpoint marginals differ, its first differing outcome, and the hybrid
step that `hybrid_localize` should pick, with both arm distributions.

`move_pairs` is the label-tuple move-pair builder that the memoised
index-tuple table in `causalbox.ons` replaced: it groups the settings
into classes that agree outside F, collects the pairs in a set, and
sorts them by the alphabet positions of their labels.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from causalbox.ons import ViolationReport


def _label_indices(inputs, x) -> tuple[int, ...]:
    return tuple(inputs[i].alphabet.index(v) for i, v in enumerate(x))


def move_pairs(inputs, F) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    settings = list(itertools.product(*(s.alphabet.labels for s in inputs)))
    classes: dict[tuple, list[tuple[str, ...]]] = {}
    non_f = [i for i in range(len(inputs)) if i not in F]
    for x in settings:
        classes.setdefault(tuple(x[i] for i in non_f), []).append(x)
    pairs: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for members in classes.values():
        for x in members:
            for f in F:
                alpha = inputs[f].alphabet
                for v in alpha.labels[alpha.index(x[f]) + 1 :]:
                    y = list(x)
                    y[f] = v
                    pairs.add((x, tuple(y)))
        if len(F) >= 2:
            for x, y in itertools.combinations(members, 2):
                if all(x[f] != y[f] for f in F):
                    lo, hi = sorted((x, y), key=lambda s: _label_indices(inputs, s))
                    pairs.add((lo, hi))
    key = lambda p: (_label_indices(inputs, p[0]), _label_indices(inputs, p[1]))
    return sorted(pairs, key=key)


def marginalize(box, G, x) -> dict[tuple[str, ...], Fraction]:
    out = {
        combo: Fraction(0)
        for combo in itertools.product(*(box.outputs[g].alphabet.labels for g in G))
    }
    for a, p in box.row(x).items():
        if len(a) != len(box.outputs):
            continue
        out[tuple(a[g] for g in G)] += p
    return out


def _first_report(box, inst) -> ViolationReport | None:
    left = marginalize(box, inst.G, inst.x)
    right = marginalize(box, inst.G, inst.x_prime)
    if left == right:
        return None
    a = next(a for a in left if left[a] != right[a])
    return ViolationReport(inst, a, left[a], right[a])


def check_instances(box, instances) -> list[ViolationReport]:
    return [r for r in (_first_report(box, inst) for inst in instances) if r]


def protocol_search(box, instances):
    """(report, sender, x_a, x_b, dist_a, dist_b) for the first instance
    whose marginals differ, or None when every instance holds."""
    for inst in instances:
        report = _first_report(box, inst)
        if report is None:
            continue
        current = list(inst.x)
        previous = inst.x
        for f in inst.F:
            current[f] = inst.x_prime[f]
            here = tuple(current)
            dist_a = marginalize(box, inst.G, previous)
            dist_b = marginalize(box, inst.G, here)
            if dist_a != dist_b:
                return report, f, previous, here, dist_a, dist_b
            previous = here
        raise AssertionError("endpoint marginals differ but no hybrid step does")
    return None
