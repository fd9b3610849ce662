"""The Fraction-sum `validate_box`, kept by the tests as a reference for
the one in `causalbox.boxes`, which sums each row as integers over the
box's common denominator.
"""

from __future__ import annotations

from fractions import Fraction

from causalbox.boxes import Issue, ValidationReport


def validate_box(box, order) -> ValidationReport:
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
