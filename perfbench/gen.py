"""Seeded instance generators for the three benchmark workloads.

Every workload has a fixed make-up: the families, their sizes and, for
planted-synth, the random clause structure (drawn from STRUCTURE_SEED) are
constants of the benchmark.  The run seed draws a relabelling of each
instance (planted-synth: PLANTED_RELABELLINGS of each spec): a permutation
of the input ids and of the output ids, a polarity per variable, and the
clause order.  A relabelling keeps every structural property the synthesis
depends on (MFS and MSS counts, conflict-graph shape, realizability), so
two seeds differ in the order the deterministic solvers meet the clauses
and variables, not in the structure of the corpus.  That keeps the corpus
time steady across seeds while a held-out seed still exercises tie-breaks
no tuning has seen.

Generated clauses are never tautological and never repeat, so the
program's parse-time normalisation keeps the clause order, and clause i of
an instance here is clause i for the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

STRUCTURE_SEED = 1808_08190

# planted-synth: (inputs, outputs, clauses) per spec; every fifth spec gets a
# planted contradiction and is unrealizable
PLANTED_SHAPES = [(10, 8, k) for k in (20, 24, 28, 32, 36, 40) for _ in range(3)]
# planted-synth: relabellings of each spec in the corpus.  One relabelling
# moves a spec's synthesis time by up to 2x (order effects in the
# deterministic solvers), so the corpus averages over several.
PLANTED_RELABELLINGS = 3
# equiv-chain: widths of the y_i <-> x_i family
EQUIV_WIDTHS = (30, 60, 90, 120)
# graph-structure: (chain clauses, matched pairs); 2^pairs MFS each
GRAPH_SHAPES = ((300, 0), (250, 2), (200, 3), (250, 4), (150, 5))


@dataclass
class Instance:
    """One generated QDIMACS specification and what its construction
    guarantees about it."""

    name: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    clauses: list[tuple[int, ...]]
    realizable: bool
    ops: tuple[str, ...]  # "synth", "synth-mfs-enum", "analyze"
    mirror: dict[int, int] = field(default_factory=dict)  # equiv: output -> input
    pairs: list[tuple[int, int]] = field(default_factory=list)  # graph: 0-based clause pairs
    mfs_count: int | None = None
    chordal: bool | None = None

    def qdimacs(self) -> str:
        top = max((*self.inputs, *self.outputs), default=0)
        lines = [
            f"c perfbench {self.name}",
            f"p cnf {top} {len(self.clauses)}",
            "a " + " ".join(map(str, self.inputs)) + " 0",
            "e " + " ".join(map(str, self.outputs)) + " 0",
        ]
        lines += [" ".join(map(str, c)) + " 0" for c in self.clauses]
        return "\n".join(lines) + "\n"


def _sign(rng: random.Random) -> int:
    return 1 if rng.random() < 0.5 else -1


def _relabel(inst: Instance, rng: random.Random, flip: bool = True) -> Instance:
    """Permute input ids among themselves and output ids among themselves,
    flip each variable's polarity when `flip`, and shuffle the clauses.
    Literal order inside a clause is shuffled too."""
    ins, outs = list(inst.inputs), list(inst.outputs)
    new_ins, new_outs = ins[:], outs[:]
    rng.shuffle(new_ins)
    rng.shuffle(new_outs)
    lit_map = {}
    for old, new in zip(ins + outs, new_ins + new_outs):
        lit_map[old] = new * (_sign(rng) if flip else 1)
    order = list(range(len(inst.clauses)))
    rng.shuffle(order)
    where = {old: pos for pos, old in enumerate(order)}
    clauses = []
    for old in order:
        lits = [lit_map[abs(l)] * (1 if l > 0 else -1) for l in inst.clauses[old]]
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    mirror = {abs(lit_map[y]): abs(lit_map[x]) for y, x in inst.mirror.items()}
    return Instance(
        inst.name,
        tuple(sorted(new_ins)),
        tuple(sorted(new_outs)),
        clauses,
        inst.realizable,
        inst.ops,
        mirror,
        [(where[a], where[b]) for a, b in inst.pairs],
        inst.mfs_count,
        inst.chordal,
    )


# ----------------------------------------------------------------------
# families in their base labelling


def planted(rng: random.Random, m: int, n: int, k: int, contradiction: bool) -> Instance:
    """k clauses over inputs 1..m and outputs m+1..m+n that all hold under a
    planted Skolem function y_j = (a literal of one input).

    Each clause takes one or two output literals and up to two input
    literals, then the negation of the first output literal's image under
    the planted function, which makes it true whenever the outputs follow
    that function.  A contradiction adds (a | y) and (a | -y): with a false,
    no output works, so the spec is unrealizable."""
    inputs = tuple(range(1, m + 1))
    outputs = tuple(range(m + 1, m + n + 1))
    image = {y: _sign(rng) * rng.choice(inputs) for y in outputs}
    seen: set[tuple[frozenset[int], frozenset[int]]] = set()
    clauses: list[tuple[int, ...]] = []

    def add(xlits, ylits) -> None:
        key = (frozenset(xlits), frozenset(ylits))
        if key not in seen:
            seen.add(key)
            clauses.append(tuple(sorted(xlits)) + tuple(ylits))

    while len(clauses) < k:
        ylits = [_sign(rng) * y for y in rng.sample(outputs, rng.randint(1, 2))]
        xlits = {_sign(rng) * x for x in rng.sample(inputs, rng.randint(0, 2))}
        img = image[abs(ylits[0])] * (1 if ylits[0] > 0 else -1)
        if img in xlits:
            continue  # with -img added the x-part would be tautological
        xlits.add(-img)
        add(xlits, ylits)
    if contradiction:
        while True:
            a, y = _sign(rng) * rng.choice(inputs), rng.choice(outputs)
            xa = frozenset({a})
            if (xa, frozenset({y})) not in seen and (xa, frozenset({-y})) not in seen:
                break
        add({a}, [y])
        add({a}, [-y])
    kind = "unrealizable" if contradiction else "planted"
    return Instance(f"{kind}-{m}x{n}-{k}", inputs, outputs, clauses, not contradiction, ("synth",))


def equivalence(width: int) -> Instance:
    """y_i <-> x_i for i = 1..width, two clauses per pair."""
    inputs = tuple(range(1, width + 1))
    outputs = tuple(range(width + 1, 2 * width + 1))
    clauses = []
    for x, y in zip(inputs, outputs):
        clauses += [(-x, y), (x, -y)]
    return Instance(
        f"equiv-{width}",
        inputs,
        outputs,
        clauses,
        True,
        ("synth",),
        mirror=dict(zip(outputs, inputs)),
    )


def chain_matching(chain: int, pairs: int) -> Instance:
    """A single-MFS chain (a_i | z) for i = 1..chain joined with `pairs`
    matched clause pairs (u_j | y_j | z), (-u_j | -y_j | z).

    Only the matched pairs conflict, so the conflict graph is a perfect
    matching on 2*pairs vertices plus isolated chain vertices: 2^pairs MFS,
    and the consensus graph is chordal exactly when pairs < 2.  z = true
    satisfies every clause, and z joins all clauses into one component."""
    m = chain + pairs
    inputs = tuple(range(1, m + 1))
    outputs = tuple(range(m + 1, m + pairs + 2))
    z = outputs[-1]
    clauses = [(a, z) for a in range(1, chain + 1)]
    matched = []
    for j in range(pairs):
        u, y = chain + 1 + j, m + 1 + j
        matched.append((len(clauses), len(clauses) + 1))
        clauses += [(u, y, z), (-u, -y, z)]
    return Instance(
        f"chain{chain}-match{pairs}",
        inputs,
        outputs,
        clauses,
        True,
        ("analyze", "synth-mfs-enum"),
        pairs=matched,
        mfs_count=2**pairs,
        chordal=pairs < 2,
    )


# ----------------------------------------------------------------------
# workloads


def planted_synth(seed: int) -> list[Instance]:
    base_rng = random.Random(STRUCTURE_SEED)
    rng = random.Random(seed)
    out = []
    for i, (m, n, k) in enumerate(PLANTED_SHAPES):
        base = planted(base_rng, m, n, k, contradiction=i % 5 == 4)
        out += [_relabel(base, rng) for _ in range(PLANTED_RELABELLINGS)]
    return out


def equiv_chain(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [_relabel(equivalence(w), rng, flip=False) for w in EQUIV_WIDTHS]


def graph_structure(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [_relabel(chain_matching(c, p), rng) for c, p in GRAPH_SHAPES]


WORKLOADS = {
    "planted-synth": planted_synth,
    "equiv-chain": equiv_chain,
    "graph-structure": graph_structure,
}
