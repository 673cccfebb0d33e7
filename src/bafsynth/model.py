"""Relational CNF specifications over disjoint input/output variable blocks.

Each clause is stored split into its input part (literals over universal
variables) and output part (literals over existential variables).  All
derived clause sets (falsified sets, must-satisfy sets, MFS, MSS) are plain
frozensets of 1-based clause indices, so the input-to-output correspondence
is the identity on indices.  Checks that test many clauses at once read an
index set as an int mask instead (`index_mask`, `mask_indices`).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import ParseError

# Literals are signed DIMACS-style integers: +v / -v for variable v >= 1.
Assignment = dict[int, bool]


def _canonical(lits: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l)))


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals; empty clause is constant false."""

    lits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lits", _canonical(self.lits))
        for lit in self.lits:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if -lit in self.lits:
                raise ValueError("clause contains a complementary literal pair")

    @property
    def is_empty(self) -> bool:
        return not self.lits

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.lits)

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Value under a total assignment of the clause's variables."""
        return any(assignment[abs(l)] == (l > 0) for l in self.lits)


@dataclass(frozen=True)
class SplitClause:
    """One original clause, split into input and output parts."""

    x_part: Clause
    y_part: Clause

    def all_lits(self) -> tuple[int, ...]:
        """The clause's literals in canonical order.  Both parts are
        canonical and, in a Specification, over disjoint variables, so
        sorting by variable merges them."""
        return tuple(sorted(self.x_part.lits + self.y_part.lits, key=abs))

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return self.x_part.evaluate(assignment) or self.y_part.evaluate(assignment)


@dataclass(frozen=True)
class Specification:
    """A 2QBF CNF specification: forall inputs, exists outputs, clauses hold.

    Clause indices are 1-based throughout the public API.  A set of clause
    indices can also be an int mask (`index_mask`): bit i stands for clause
    i, and bit 0 is never set.  `ypart_groups` indexes the clauses by output
    part, so a check that needs only a clause's y-part and its membership in
    an index set tests each distinct y-part once.
    """

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    clauses: tuple[SplitClause, ...]

    def __post_init__(self):
        ins, outs = set(self.inputs), set(self.outputs)
        if len(ins) != len(self.inputs) or len(outs) != len(self.outputs):
            raise ValueError("duplicate variable in a quantifier block")
        if ins & outs:
            raise ValueError("inputs and outputs overlap")
        if any(v < 1 for v in ins | outs):
            raise ValueError("variable ids must be positive")
        seen = set()
        for sc in self.clauses:
            if not ins.issuperset(map(abs, sc.x_part.lits)):
                raise ValueError("x-part uses a non-input variable")
            if not outs.issuperset(map(abs, sc.y_part.lits)):
                raise ValueError("y-part uses a non-output variable")
            key = (sc.x_part.lits, sc.y_part.lits)
            if key in seen:
                raise ValueError("duplicate clause")
            seen.add(key)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def indices(self) -> range:
        """1-based clause indices."""
        return range(1, len(self.clauses) + 1)

    def clause(self, i: int) -> SplitClause:
        return self.clauses[i - 1]

    def x_part(self, i: int) -> Clause:
        return self.clauses[i - 1].x_part

    def y_part(self, i: int) -> Clause:
        return self.clauses[i - 1].y_part

    @cached_property
    def empty_ypart_indices(self) -> tuple[int, ...]:
        """Clauses with no output literals; they make the specification
        unrealizable whenever their x-part can be falsified (always,
        post-normalization)."""
        return tuple(i for i in self.indices if self.y_part(i).is_empty)

    @cached_property
    def ypart_groups(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each distinct y-part's literals, in order of first occurrence,
        with the mask of the clauses that carry it."""
        groups: dict[tuple[int, ...], int] = {}
        for i, sc in enumerate(self.clauses, 1):
            lits = sc.y_part.lits
            groups[lits] = groups.get(lits, 0) | 1 << i
        return tuple(groups.items())

    @property
    def full_mask(self) -> int:
        """The mask of every clause index."""
        return (1 << (len(self.clauses) + 1)) - 2

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Truth value of the whole CNF under a total assignment."""
        return all(sc.evaluate(assignment) for sc in self.clauses)

    def to_qdimacs(self) -> str:
        """Canonical QDIMACS text (sorted literals, normalized clause set)."""
        max_var = max((*self.inputs, *self.outputs), default=0)
        lines = [
            f"p cnf {max_var} {len(self.clauses)}",
            "a " + " ".join(str(v) for v in self.inputs) + " 0" if self.inputs else "a 0",
            "e " + " ".join(str(v) for v in self.outputs) + " 0" if self.outputs else "e 0",
        ]
        for sc in self.clauses:
            lits = sc.all_lits()
            lines.append(" ".join(map(str, lits)) + " 0" if lits else "0")
        return "\n".join(lines) + "\n"

    @cached_property
    def digest(self) -> str:
        return hashlib.sha256(self.to_qdimacs().encode("utf-8")).hexdigest()


def index_mask(indices: Iterable[int]) -> int:
    """The mask of a set of clause indices: bit i stands for clause i."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_indices(mask: int) -> Iterator[int]:
    """The indices in `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def true_literals(assignment: Mapping[int, bool]) -> set[int]:
    """The literals `assignment` makes true: a clause over its variables is
    true exactly when the clause shares a literal with this set."""
    return {v if b else -v for v, b in assignment.items()}


def fals(spec: Specification, x: Mapping[int, bool]) -> frozenset[int]:
    """Indices of clauses whose x-part is falsified by the input assignment."""
    _require_total(x, spec.inputs, "input")
    return frozenset(i for i in spec.indices if not spec.x_part(i).evaluate(x))


def _require_total(assignment: Mapping[int, bool], variables: tuple[int, ...], kind: str):
    if set(assignment) != set(variables):
        raise ValueError(f"assignment is not total over the {kind} variables")


def decode_text(data: bytes) -> str:
    """The UTF-8 text of a document; bytes that are not UTF-8 are a
    ParseError, like any other malformed document."""
    try:
        return bytes(data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


_HEADER_RE = re.compile(r"p\s+cnf\s+(\d+)\s+(\d+)\s*$")


def parse_qdimacs(text: str | bytes) -> Specification:
    """Parse a 2QBF QDIMACS document.

    Accepted shape: comment lines `c ...`, a `p cnf V C` header, exactly one
    universal line `a <ids> 0`, then exactly one existential line
    `e <ids> 0`, then clause lines of nonzero integers each terminated by 0.
    Tautological clauses are dropped, duplicate clauses are kept once, and
    every variable used in a clause must be declared in a quantifier line.
    """
    if isinstance(text, (bytes, bytearray)):
        text = decode_text(text)
    header = None
    a_vars: list[int] | None = None
    e_vars: list[int] | None = None
    clause_tokens: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            m = _HEADER_RE.match(line)
            try:
                header = (int(m.group(1)), int(m.group(2)))
            except (AttributeError, ValueError):  # no match, or too many digits for int
                raise ParseError(f"line {lineno}: malformed header: {line!r}") from None
            continue
        if header is None:
            raise ParseError(f"line {lineno}: expected `p cnf` header before {line!r}")
        first = line.split(None, 1)[0]
        if first in ("a", "e"):
            if clause_tokens:
                raise ParseError(f"line {lineno}: quantifier line after clauses")
            ids = _parse_quant_line(line, lineno)
            if first == "a":
                if a_vars is not None:
                    raise ParseError(f"line {lineno}: more than one universal line")
                if e_vars is not None:
                    raise ParseError(
                        f"line {lineno}: universal block must precede existential block"
                    )
                a_vars = ids
            else:
                if e_vars is not None:
                    raise ParseError(f"line {lineno}: more than one existential line")
                e_vars = ids
            continue
        if a_vars is None or e_vars is None:
            raise ParseError(f"line {lineno}: clause before quantifier prefix")
        try:
            toks = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in clause") from None
        clause_tokens.extend(toks)

    if header is None:
        raise ParseError("empty input: no `p cnf` header found")
    if a_vars is None:
        raise ParseError("missing universal (`a`) line")
    if e_vars is None:
        raise ParseError("missing existential (`e`) line")

    num_vars = header[0]
    inputs, outputs = tuple(a_vars), tuple(e_vars)
    declared = set(inputs) | set(outputs)
    if len(declared) != len(inputs) + len(outputs):
        raise ParseError("a variable is declared in both quantifier blocks")
    for v in declared:
        if v > num_vars:
            raise ParseError(f"declared variable {v} exceeds header variable count")

    raw_clauses = _split_on_zero(clause_tokens)
    split_clauses: list[SplitClause] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    in_set, out_set = set(inputs), set(outputs)
    for lits in raw_clauses:
        lits = _canonical(lits)
        if any(-l in lits for l in lits):
            continue  # tautology, always satisfied
        for l in lits:
            if abs(l) not in declared:
                raise ParseError(f"literal {l} references undeclared variable {abs(l)}")
        x_lits = tuple(l for l in lits if abs(l) in in_set)
        y_lits = tuple(l for l in lits if abs(l) in out_set)
        key = (x_lits, y_lits)
        if key in seen:
            continue
        seen.add(key)
        split_clauses.append(SplitClause(Clause(x_lits), Clause(y_lits)))

    return Specification(inputs, outputs, tuple(split_clauses))


def _parse_quant_line(line: str, lineno: int) -> list[int]:
    toks = line.split()[1:]
    if not toks or toks[-1] != "0":
        raise ParseError(f"line {lineno}: quantifier line must end with 0")
    ids = []
    for t in toks[:-1]:
        try:
            v = int(t)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer variable id {t!r}") from None
        if v <= 0:
            raise ParseError(f"line {lineno}: variable ids must be positive, got {v}")
        ids.append(v)
    if len(set(ids)) != len(ids):
        raise ParseError(f"line {lineno}: duplicate variable in quantifier line")
    return ids


def _split_on_zero(tokens: list[int]) -> list[list[int]]:
    clauses: list[list[int]] = []
    current: list[int] = []
    for t in tokens:
        if t == 0:
            clauses.append(current)
            current = []
        else:
            current.append(t)
    if current:
        raise ParseError("last clause is not terminated by 0")
    return clauses
