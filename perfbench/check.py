"""Correctness checks made apart from the program.

The decision lists are read back from the serialized text with the small
reader below, and the guard semantics are applied here: a decision fires
on an input when none of its guard clauses has its input part falsified.
Component documents are matched to clauses by their output variables, so
nothing here depends on the program's own parser, evaluator or verifier.
Clause sets are int bitmasks over 0-based clause positions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from gen import Instance

EXHAUSTIVE_INPUTS = 10  # check every input up to this many input variables
SAMPLED_INPUTS = 256  # otherwise this many seeded random inputs, plus all-0 and all-1
BRUTE_FORCE_OUTPUTS = 16


class CheckFailure(Exception):
    pass


@dataclass
class Doc:
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    decisions: list[tuple[frozenset[int], dict[int, bool]]]  # 1-based local guard


def read_lists(text: str) -> list[Doc]:
    """Parse a concatenation of `dl 1` documents."""
    docs: list[Doc] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        tag, _, rest = line.partition(" ")
        if tag == "dl":
            if rest.strip() != "1":
                raise CheckFailure(f"unknown document version {rest!r}")
            docs.append(Doc((), (), []))
            continue
        if not docs:
            raise CheckFailure("content before the first `dl` line")
        doc = docs[-1]
        if tag == "spec":
            continue
        if tag == "in":
            doc.inputs = tuple(int(t) for t in rest.split())
        elif tag == "out":
            doc.outputs = tuple(int(t) for t in rest.split())
        elif tag == "d":
            left, bar, right = rest.partition("|")
            if not bar:
                raise CheckFailure(f"decision without '|': {line!r}")
            out = {}
            for tok in right.split():
                var, _, bit = tok.partition("=")
                out[int(var)] = bit == "1"
            doc.decisions.append((frozenset(int(t) for t in left.split()), out))
        else:
            raise CheckFailure(f"unexpected line {line!r}")
    return docs


def _satisfied(lits, values: dict[int, bool]) -> bool:
    return any(values[abs(l)] == (l > 0) for l in lits)


class Evaluator:
    """First-firing-decision semantics of per-component documents over the
    instance's clauses."""

    def __init__(self, inst: Instance, docs: list[Doc]):
        ins, outs = set(inst.inputs), set(inst.outputs)
        self.inst = inst
        self.xparts = [tuple(l for l in c if abs(l) in ins) for c in inst.clauses]
        self.yparts = [tuple(l for l in c if abs(l) in outs) for c in inst.clauses]
        owner = {}
        for d in docs:
            if set(d.inputs) != ins:
                raise CheckFailure("document inputs differ from the specification inputs")
            for v in d.outputs:
                if v in owner or v not in outs:
                    raise CheckFailure(f"output {v} is in no or several documents")
                owner[v] = d
        if set(owner) != outs:
            raise CheckFailure("some outputs are in no document")
        self.parts = []  # per document: [(guard mask, output)]
        placed = 0
        for d in docs:
            members = [
                i for i, y in enumerate(self.yparts) if any(owner[abs(l)] is d for l in y)
            ]
            for i in members:
                placed |= 1 << i
                if any(owner[abs(l)] is not d for l in self.yparts[i]):
                    raise CheckFailure(f"clause {i + 1} spans two documents")
            rows = []
            for guard, out in d.decisions:
                if set(out) != set(d.outputs):
                    raise CheckFailure("decision output is not total over its document")
                mask = 0
                for g in guard:
                    if not 1 <= g <= len(members):
                        raise CheckFailure(f"guard index {g} out of range")
                    mask |= 1 << members[g - 1]
                rows.append((mask, out))
            self.parts.append(rows)
        if placed != (1 << len(inst.clauses)) - 1:
            raise CheckFailure("some clause belongs to no document")

    def falsified(self, x: dict[int, bool]) -> int:
        mask = 0
        for i, xp in enumerate(self.xparts):
            if not _satisfied(xp, x):
                mask |= 1 << i
        return mask

    def output(self, x: dict[int, bool]) -> dict[int, bool] | None:
        """Combined output of the first firing decision per document."""
        fals = self.falsified(x)
        y: dict[int, bool] = {}
        for rows in self.parts:
            for mask, out in rows:
                if not mask & fals:
                    y.update(out)
                    break
            else:
                return None
        return y

    def check_input(self, x: dict[int, bool]) -> dict[int, bool]:
        y = self.output(x)
        if y is None:
            raise CheckFailure(f"no decision fires on input {_fmt(x)}")
        values = {**x, **y}
        for i, c in enumerate(self.inst.clauses):
            if not _satisfied(c, values):
                raise CheckFailure(f"clause {i + 1} is false on input {_fmt(x)}")
        return y


def _fmt(x: dict[int, bool]) -> str:
    return "".join("1" if x[v] else "0" for v in sorted(x))


def check_inputs(inst: Instance, rng: random.Random) -> list[dict[int, bool]]:
    """Every input when there are few, otherwise a seeded sample."""
    vs = inst.inputs
    if len(vs) <= EXHAUSTIVE_INPUTS:
        return [dict(zip(vs, bits)) for bits in itertools.product((False, True), repeat=len(vs))]
    xs = [dict.fromkeys(vs, False), dict.fromkeys(vs, True)]
    xs += [{v: rng.random() < 0.5 for v in vs} for _ in range(SAMPLED_INPUTS)]
    return xs


def check_realizable(inst: Instance, result: dict, rng: random.Random) -> int:
    """The outputs of the delivered lists satisfy every clause on every
    checked input.  Returns the number of decisions."""
    if result["status"] != "realizable" or not result["verified"]:
        raise CheckFailure(f"{inst.name}: status {result['status']}, verified {result['verified']}")
    docs = read_lists(result["dl_text"])
    ev = Evaluator(inst, docs)
    for x in check_inputs(inst, rng):
        y = ev.check_input(x)
        for out_var, in_var in inst.mirror.items():
            if y[out_var] != x[in_var]:
                raise CheckFailure(f"{inst.name}: output {out_var} differs from input {in_var}")
    if inst.mirror:
        if len(docs) != len(inst.mirror) or any(
            len(d.outputs) != 1 or len(d.decisions) != 2 for d in docs
        ):
            raise CheckFailure(f"{inst.name}: expected one 2-decision list per output")
    if inst.mfs_count is not None:
        check_one_decision_per_mfs(inst, docs)
    return sum(len(d.decisions) for d in docs)


def check_one_decision_per_mfs(inst: Instance, docs: list[Doc]) -> None:
    """MFS enumeration over a chain-matching instance: one document, and the
    guards are exactly the MFS complements, one clause of each matched pair."""
    if len(docs) != 1:
        raise CheckFailure(f"{inst.name}: expected one component, got {len(docs)}")
    expected = {frozenset(c + 1 for c in pick) for pick in itertools.product(*inst.pairs)}
    guards = [g for g, _ in docs[0].decisions]
    if len(guards) != inst.mfs_count or set(guards) != expected:
        raise CheckFailure(
            f"{inst.name}: {len(guards)} decisions, expected one per MFS ({inst.mfs_count})"
        )


def check_unrealizable(inst: Instance, result: dict) -> None:
    """The program reports unrealizable, and no output works on its witness
    input (brute force over the outputs)."""
    if result["status"] != "unrealizable" or result["witness"] is None:
        raise CheckFailure(f"{inst.name}: expected unrealizable, got {result['status']}")
    x = {int(v): b for v, b in result["witness"]["input"].items()}
    if set(x) != set(inst.inputs):
        raise CheckFailure(f"{inst.name}: witness input is not total over the inputs")
    if len(inst.outputs) > BRUTE_FORCE_OUTPUTS:
        raise CheckFailure(f"{inst.name}: too many outputs to brute-force")
    for bits in itertools.product((False, True), repeat=len(inst.outputs)):
        values = {**x, **dict(zip(inst.outputs, bits))}
        if all(_satisfied(c, values) for c in inst.clauses):
            raise CheckFailure(f"{inst.name}: witness input {_fmt(x)} has a feasible output")


def check_analyze(inst: Instance, edges: list[tuple[int, int]], count, chordal) -> None:
    """Clique count, chordality and conflict edges match the construction."""
    want_edges = sorted(tuple(sorted((a + 1, b + 1))) for a, b in inst.pairs)
    if sorted(edges) != want_edges:
        raise CheckFailure(f"{inst.name}: conflict edges {len(edges)}, expected {len(want_edges)}")
    if count != inst.mfs_count:
        raise CheckFailure(f"{inst.name}: {count} maximal cliques, expected {inst.mfs_count}")
    if chordal != inst.chordal:
        raise CheckFailure(f"{inst.name}: chordal={chordal}, expected {inst.chordal}")
