"""Relational CNF specifications over disjoint input/output variable blocks.

Each clause is stored split into its input part (literals over universal
variables) and output part (literals over existential variables).  A part
is a tuple of literals in canonical order: variables strictly ascending, so
no literal repeats and no complementary pair occurs.  `parse_qdimacs` is the
only place that sorts literals; `Specification` checks the parts it is given
once, and the components `Specification.restrict` cuts from a checked
specification are not checked again.  Every component shares its parent's
inputs, so `restrict` also hands each one the parent's rendering of the input
ids (`input_ids`) and its largest input id (`max_input`): the QDIMACS text
and the `.dl` `in` line of a component cost its own size plus one copy of
that string, not one `str()` per input.  All derived clause sets (falsified
sets, must-satisfy sets, MFS, MSS) are plain frozensets of 1-based clause
indices, so the input-to-output correspondence is the identity on indices.
Checks that test many clauses at once read an index set as an int mask
instead (`index_mask`, `mask_indices`).  Each specification indexes once
which clauses hold each literal (`occurs`, ANDed over a tuple by `holders`)
for the conflict graph, subsumption, x-part containment (`xpart_groups`)
and the partition by shared outputs; a component builds its own.  A truth
table over a few variables keeps one int mask per clause (`clause_masks`),
and a solver query numbers its variables compactly (`numbering`).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ParseError

# Literals are signed DIMACS-style integers: +v / -v for variable v >= 1.
Assignment = dict[int, bool]


def holds(lits: Iterable[int], assignment: Mapping[int, bool]) -> bool:
    """Whether the disjunction `lits` is true under an assignment of its
    variables; the empty disjunction is false."""
    return any(assignment[abs(l)] == (l > 0) for l in lits)


def _check_part(lits: tuple[int, ...], block: set[int], name: str, kind: str) -> None:
    """Raise ValueError unless `lits` is a canonical part over `block`, the
    `kind` variables, in one pass: strictly ascending variables rule out a
    repeated literal and a complementary pair, and a variable of `block`
    is never 0."""
    if not isinstance(lits, tuple):
        raise ValueError(f"{name} is not a tuple of literals")
    prev = last = 0
    for l in lits:
        v = abs(l)
        if v not in block:
            if l == 0:
                raise ValueError("literal 0 is not allowed")
            raise ValueError(f"{name} uses a non-{kind} variable")
        if v <= prev:
            if l == -last:
                raise ValueError("clause contains a complementary literal pair")
            if l == last:
                raise ValueError(f"{name} repeats literal {l}")
            raise ValueError(f"{name} is not sorted by variable")
        prev, last = v, l


@dataclass(frozen=True)
class Specification:
    """A 2QBF CNF specification: forall inputs, exists outputs, clauses hold.

    `clauses` holds one `(x-part, y-part)` pair of canonical literal tuples
    per clause.  Construction checks the quantifier blocks and every part
    (a tuple pair of tuples, canonical order, variables of the right block,
    no duplicate clause); it is the one place that checks data from outside
    the program.

    Clause indices are 1-based throughout the public API.  A set of clause
    indices can also be an int mask (`index_mask`): bit i stands for clause
    i, and bit 0 is never set.  The derived indices are masks too: `occurs`
    per literal, `ypart_groups` per distinct y-part (so a check that needs
    only y-parts tests each once) and `xpart_groups` per distinct x-part (so
    a clause set sheds the clauses that contain another of its x-parts with
    one OR per clause).
    """

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    clauses: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        ins, outs = set(self.inputs), set(self.outputs)
        if len(ins) != len(self.inputs) or len(outs) != len(self.outputs):
            raise ValueError("duplicate variable in a quantifier block")
        if ins & outs:
            raise ValueError("inputs and outputs overlap")
        if any(v < 1 for v in ins | outs):
            raise ValueError("variable ids must be positive")
        for clause in self.clauses:
            if not isinstance(clause, tuple) or len(clause) != 2:
                raise ValueError("clause is not an (x-part, y-part) pair")
            x_lits, y_lits = clause
            _check_part(x_lits, ins, "x-part", "input")
            _check_part(y_lits, outs, "y-part", "output")
        if len(set(self.clauses)) != len(self.clauses):
            raise ValueError("duplicate clause")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def indices(self) -> range:
        """1-based clause indices."""
        return range(1, len(self.clauses) + 1)

    def x_part(self, i: int) -> tuple[int, ...]:
        return self.clauses[i - 1][0]

    def y_part(self, i: int) -> tuple[int, ...]:
        return self.clauses[i - 1][1]

    def restrict(
        self, indices: Iterable[int], outputs: tuple[int, ...] | None = None
    ) -> Specification:
        """The specification of the distinct clauses `indices`, in the given
        order, over the same inputs and `outputs`, which default to the
        outputs the clauses' y-parts use, ascending; given ones must include
        those.  Its clauses are this specification's checked ones, so it is
        built without checking them again, and it shares this
        specification's `inputs`, `input_ids` and `max_input`, but not
        `occurs`, which numbers this specification's clauses."""
        clauses = tuple(self.clauses[i - 1] for i in indices)
        if outputs is None:
            outputs = tuple(variables_of(y_lits for _, y_lits in clauses))
        part = object.__new__(Specification)
        part.__dict__.update(
            inputs=self.inputs,
            outputs=outputs,
            clauses=clauses,
            input_ids=self.input_ids,
            max_input=self.max_input,
        )
        return part

    @cached_property
    def input_ids(self) -> str:
        """The input ids in block order, separated by single spaces: the
        body of the QDIMACS `a` line and of the `.dl` `in` line."""
        return " ".join(map(str, self.inputs))

    @cached_property
    def max_input(self) -> int:
        """The largest input id, 0 without inputs."""
        return max(self.inputs, default=0)

    @cached_property
    def empty_ypart_indices(self) -> tuple[int, ...]:
        """Clauses with no output literals; they make the specification
        unrealizable whenever their x-part can be falsified (always,
        post-normalization)."""
        return tuple(i for i in self.indices if not self.y_part(i))

    @cached_property
    def ypart_groups(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each distinct y-part's literals, in order of first occurrence,
        with the mask of the clauses that carry it."""
        groups: dict[tuple[int, ...], int] = {}
        for i, (_, lits) in enumerate(self.clauses, 1):
            groups[lits] = groups.get(lits, 0) | 1 << i
        return tuple(groups.items())

    @cached_property
    def xpart_groups(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each distinct x-part's literals, in order of first occurrence,
        with the mask of the clauses whose x-part properly contains it: its
        `holders`, less the clauses that carry it."""
        carriers: dict[tuple[int, ...], int] = {}
        for i, (lits, _) in enumerate(self.clauses, 1):
            carriers[lits] = carriers.get(lits, 0) | 1 << i
        return tuple((lits, self.holders(lits) ^ mask) for lits, mask in carriers.items())

    @cached_property
    def occurs(self) -> dict[int, int]:
        """Each literal's mask of the clauses whose x-part or y-part holds it
        (the blocks share no variable); a literal no clause holds is no key."""
        occurs: dict[int, int] = {}
        for i, (x_lits, y_lits) in enumerate(self.clauses, 1):
            for l in x_lits + y_lits:
                occurs[l] = occurs.get(l, 0) | 1 << i
        return occurs

    def holders(self, lits: Iterable[int]) -> int:
        """The clauses that hold every literal of `lits`: the AND of their
        `occurs` masks from `full_mask`, so every clause for no literal."""
        occurs, mask = self.occurs, self.full_mask
        for l in lits:
            mask &= occurs.get(l, 0)
        return mask

    @property
    def full_mask(self) -> int:
        """The mask of every clause index."""
        return (1 << (len(self.clauses) + 1)) - 2

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Truth value of the whole CNF under a total assignment."""
        return all(holds(x, assignment) or holds(y, assignment) for x, y in self.clauses)

    def to_qdimacs(self) -> str:
        """Canonical QDIMACS text (sorted literals, normalized clause set)."""
        max_var = max(self.max_input, max(self.outputs, default=0))
        lines = [
            f"p cnf {max_var} {len(self.clauses)}",
            f"a {self.input_ids} 0" if self.inputs else "a 0",
            "e " + " ".join(str(v) for v in self.outputs) + " 0" if self.outputs else "e 0",
        ]
        for x_lits, y_lits in self.clauses:
            lits = sorted(x_lits + y_lits, key=abs)  # the parts' variables are disjoint
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


def numbering(variables: Iterable[int], first: int = 1) -> dict[int, int]:
    """Signed local literals for `variables`, in the given order: the n-th
    variable (from 0) and its negation become first + n and -(first + n).
    A solver query renumbered this way keeps the relative order of its
    variables, which is all the SAT engine reads of an id."""
    return {sign * v: sign * n for n, v in enumerate(variables, first) for sign in (1, -1)}


def variables_of(parts: Iterable[tuple[int, ...]]) -> list[int]:
    """The ids of the variables that the literal tuples `parts` use,
    ascending."""
    return sorted({abs(l) for lits in parts for l in lits})


def clause_masks(variables: Sequence[int], clauses: Iterable) -> tuple[list[int], int]:
    """The truth table of the `clauses` over `variables`: bit a of a mask
    stands for the assignment that sets the i-th variable (1-based, in the
    given order) to bit i-1 of a.  Returns each clause's mask of satisfying
    assignments and the mask of all 2^n assignments.  The variable masks
    are built by doubling: each new variable copies every earlier mask into
    the upper half of a table twice as wide and takes that half as its own."""
    size, true = 1, []
    for _ in variables:
        true = [t | t << size for t in true]
        true.append(((1 << size) - 1) << size)
        size <<= 1
    full = (1 << size) - 1
    lit = {}
    for v, t in zip(variables, true):
        lit[v], lit[-v] = t, full ^ t
    masks = []
    for clause in clauses:
        sat = 0
        for l in clause:
            sat |= lit[l]
        masks.append(sat)
    return masks, full


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
    return frozenset(i for i in spec.indices if not holds(spec.x_part(i), x))


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

    clauses: dict[tuple[tuple[int, ...], tuple[int, ...]], None] = {}
    in_set, out_set = set(inputs), set(outputs)
    for raw in _split_on_zero(clause_tokens):
        lits = sorted(set(raw), key=abs)  # the one sort of each clause's literals
        if any(a == -b for a, b in zip(lits, lits[1:])):
            continue  # tautology, always satisfied
        for l in lits:
            if abs(l) not in declared:
                raise ParseError(f"literal {l} references undeclared variable {abs(l)}")
        x_lits = tuple(l for l in lits if abs(l) in in_set)
        y_lits = tuple(l for l in lits if abs(l) in out_set)
        clauses[x_lits, y_lits] = None  # a duplicate clause is kept once

    return Specification(inputs, outputs, tuple(clauses))


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
