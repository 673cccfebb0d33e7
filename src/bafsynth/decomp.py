"""Sequential CNF decomposition through a fresh intermediate variable block.

Each clause i gets an intermediate variable z_i.  The first stage ties z_i
to the falsification of clause i's x-part (z_i <-> not x-part), so it is a
total function of the inputs; the second stage demands the y-part whenever
z_i holds (z_i -> y-part).  Projecting z away gives back the original CNF,
and every intermediate value reachable from a feasible input is feasible
for the second stage, so implementations of the two stages compose into an
implementation of the original specification.  The second stage over the
full intermediate domain may still be unrealizable even when the original
specification is realizable; that outcome is reported distinctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import LimitError
from .model import Assignment, Specification, holds
from .synth import back_and_forth
from . import dlist as _dlist

GOOD = "verified"
DECOMP_UNREALIZABLE = "decomposition-unrealizable"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class DecomposedPair:
    f1_clauses: tuple[tuple[int, ...], ...]  # over inputs and intermediates
    f2_spec: Specification  # intermediates as inputs, original outputs
    z_vars: tuple[int, ...]


@dataclass
class GoodDecompositionReport:
    equivalence_holds: bool  # original CNF == exists-z (stage1 and stage2)
    image_in_domain: bool  # reachable intermediates are stage2-feasible
    equivalence_witness: Assignment | None = None
    image_witness: Assignment | None = None


@dataclass
class CompositionReport:
    status: str
    spec_realizable: bool | None = None


def cnf_decompose(spec: Specification) -> DecomposedPair:
    """Build the two stages in clausal form.

    Stage 1 per clause i with x-part literals l_1..l_p: clauses
    (-z_i, -l_1) .. (-z_i, -l_p) and (z_i, l_1, .., l_p); an empty x-part
    degenerates to the unit (z_i).  Stage 2 per clause: (-z_i, y-part)."""
    base = max((*spec.inputs, *spec.outputs), default=0)
    z = tuple(base + i for i in spec.indices)
    f1: list[tuple[int, ...]] = []
    f2: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for i in spec.indices:
        zi = z[i - 1]  # above every input, so last in canonical order
        xlits = spec.x_part(i)
        f1.extend((-l, -zi) for l in xlits)
        f1.append((*xlits, zi))
        f2.append(((-zi,), spec.y_part(i)))
    f2_spec = Specification(z, spec.outputs, tuple(f2))
    return DecomposedPair(tuple(f1), f2_spec, z)


def check_good_decomposition(
    spec: Specification, pair: DecomposedPair, limit: int = 16
) -> GoodDecompositionReport:
    """Exhaustively check both decomposition properties.

    Requires |inputs| + |outputs| + |intermediates| <= limit.  The pair is
    not trusted to be well-formed (a corrupted stage 1 is detectable), so
    the intermediate assignments are enumerated rather than derived."""
    m, n, k = len(spec.inputs), len(spec.outputs), len(pair.z_vars)
    if m + n + k > limit:
        raise LimitError(f"{m + n + k} variables exceed the brute-force limit {limit}")

    xs = [dict(zip(spec.inputs, bits)) for bits in product((False, True), repeat=m)]
    ys = [dict(zip(spec.outputs, bits)) for bits in product((False, True), repeat=n)]
    zs = [dict(zip(pair.z_vars, bits)) for bits in product((False, True), repeat=k)]

    def f1_holds(x, zv):
        merged = {**x, **zv}
        return all(holds(c, merged) for c in pair.f1_clauses)

    def f2_holds(zv, y):
        return pair.f2_spec.evaluate({**zv, **y})

    image = {
        tuple(x.items()): [zv for zv in zs if f1_holds(x, zv)] for x in xs
    }
    stage2_feasible = {
        tuple(zv.items()): any(f2_holds(zv, y) for y in ys) for zv in zs
    }

    equivalence_holds, equivalence_witness = True, None
    for x in xs:
        for y in ys:
            lhs = spec.evaluate({**x, **y})
            rhs = any(f2_holds(zv, y) for zv in image[tuple(x.items())])
            if lhs != rhs:
                equivalence_holds, equivalence_witness = False, {**x, **y}
                break
        if not equivalence_holds:
            break

    image_in_domain, image_witness = True, None
    for x in xs:
        if not any(spec.evaluate({**x, **y}) for y in ys):
            continue  # property is only required on feasible inputs
        for zv in image[tuple(x.items())]:
            if not stage2_feasible[tuple(zv.items())]:
                image_in_domain, image_witness = False, {**x, **zv}
                break
        if not image_in_domain:
            break

    return GoodDecompositionReport(
        equivalence_holds, image_in_domain, equivalence_witness, image_witness
    )


def stage1_evaluate(spec: Specification, pair: DecomposedPair, x: Assignment) -> Assignment:
    """The direct stage-1 implementation: z_i is the negation of clause i's
    x-part under the given input."""
    return {
        pair.z_vars[i - 1]: not holds(spec.x_part(i), x) for i in spec.indices
    }


def compose_and_verify(spec: Specification, limit: int = 16) -> CompositionReport:
    """Synthesize stage 2, compose with the direct stage-1 evaluator, and
    exhaustively compare the composition against the original CNF on every
    feasible input.  Over the full intermediate domain stage 2 has one MFS
    (every z true), so a synthesized stage 2 is one decision with an empty
    guard, a constant function, and `GOOD` comes with `spec_realizable`."""
    m, n = len(spec.inputs), len(spec.outputs)
    if m + n > limit:
        raise LimitError(f"{m + n} variables exceed the brute-force limit {limit}")
    pair = cnf_decompose(spec)
    outcome = back_and_forth(pair.f2_spec)
    if not outcome.realizable:
        return CompositionReport(DECOMP_UNREALIZABLE)
    spec_realizable = True
    for xbits in product((False, True), repeat=m):
        x = dict(zip(spec.inputs, xbits))
        feasible = any(
            spec.evaluate({**x, **dict(zip(spec.outputs, ybits))})
            for ybits in product((False, True), repeat=n)
        )
        if not feasible:
            spec_realizable = False
            continue
        z = stage1_evaluate(spec, pair, x)
        y = _dlist.evaluate(outcome.decision_list, z)
        if y is None or not spec.evaluate({**x, **y}):
            return CompositionReport(COUNTEREXAMPLE, spec_realizable)
    return CompositionReport(GOOD, spec_realizable)
