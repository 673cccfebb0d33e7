"""Decision lists: ordered (guard, output assignment) pairs.

A guard is a set of clause indices; it fires on an input exactly when every
indexed clause's x-part is true, i.e. when the input falsifies none of the
guard's clauses.  Lists built from a sequence of MSS/MFS index sets store
the complement of each set as the guard, so firing means the clauses the
output witness was chosen for are the only ones the input can falsify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .model import Assignment, Specification, holds, index_mask, mask_indices, true_literals

FORMAT_VERSION = 1


@dataclass
class Decision:
    guard: frozenset[int]
    output: dict[int, bool]


@dataclass
class DecisionList:
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    decisions: tuple[Decision, ...]
    spec_digest: str
    spec: Specification | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.decisions)


def build_decision_list(
    spec: Specification,
    index_sets: list[frozenset[int]],
    witnesses: list[Assignment],
) -> DecisionList:
    """One decision per index set: guard = complement of the set, output =
    the witness assignment, which `check_output` checks."""
    if len(index_sets) != len(witnesses):
        raise ValueError("index sets and witnesses differ in length")
    every = frozenset(spec.indices)
    decisions = []
    for sel, wit in zip(index_sets, witnesses):
        if not sel <= every:
            raise ValueError("index set out of range")
        guard = every - sel
        check_output(spec, guard, wit)
        decisions.append(Decision(guard, dict(wit)))
    return DecisionList(
        spec.inputs, spec.outputs, tuple(decisions), spec.digest, spec
    )


def check_output(spec: Specification, guard: frozenset[int], wit: Assignment) -> None:
    """Raise ValueError unless `wit` assigns exactly `spec`'s outputs and
    satisfies the y-part of every clause outside `guard`.  Each distinct
    y-part is checked once; the error names the smallest such clause whose
    y-part the witness falsifies."""
    if wit.keys() != set(spec.outputs):
        raise ValueError("witness is not total over the outputs")
    mask = spec.full_mask ^ index_mask(guard)  # the clauses outside, from the smaller guard
    true, bad = true_literals(wit), 0
    for lits, ys in spec.ypart_groups:
        if true.isdisjoint(lits):
            bad |= ys & mask
    if bad:
        j = next(mask_indices(bad))
        raise ValueError(f"witness does not satisfy the y-part of clause {j}")


def evaluate(dl: DecisionList, x: Assignment):
    """Output of the first decision whose guard fires; None when uncovered."""
    return evaluate_combined((dl,), x)


def combine(parts: list[DecisionList], spec: Specification) -> tuple[DecisionList, ...]:
    """The component lists as an implementation of the full spec, after
    checking that they cover its outputs: raises ValueError unless every
    output of `spec` is an output of exactly one list and the lists have no
    other outputs."""
    covered: set[int] = set()
    for dl in parts:
        block = set(dl.outputs)
        if block & covered:
            raise ValueError(f"decision lists overlap on outputs {_ids(block & covered)}")
        covered |= block
    outputs = set(spec.outputs)
    if covered - outputs:
        raise ValueError(f"outputs {_ids(covered - outputs)} are not outputs of the specification")
    if outputs - covered:
        raise ValueError(f"no decision list covers outputs {_ids(outputs - covered)}")
    return tuple(parts)


def _ids(variables) -> str:
    return " ".join(str(v) for v in sorted(variables))


def evaluate_combined(parts: tuple[DecisionList, ...], x: Assignment):
    """Union of the outputs of the lists `combine` returned; None if any
    list leaves the input uncovered.  Raises ValueError for an unbound list
    or unless `x` assigns exactly the list's inputs, checked once per
    distinct `inputs` tuple (the components of a partition share one)."""
    out, checked = {}, set()
    for dl in parts:
        sp = dl.spec
        if sp is None:
            raise ValueError("decision list is not bound to a specification")
        if sp.digest != dl.spec_digest:
            raise ValueError("decision list was built against a different specification")
        if id(dl.inputs) not in checked:
            if x.keys() != set(dl.inputs):
                raise ValueError("assignment is not total over the inputs")
            checked.add(id(dl.inputs))
        for dec in dl.decisions:
            if all(holds(sp.x_part(g), x) for g in dec.guard):
                out.update(dec.output)
                break
        else:
            return None
    return out


# ----------------------------------------------------------------------
# text format: line-oriented, LF, one decision per `d` line


def serialize(dl: DecisionList) -> str:
    """The list's text; the `in` line is the bound specification's
    `input_ids` when the list's inputs are that specification's."""
    sp = dl.spec
    if sp is not None and dl.inputs == sp.inputs:
        ids = sp.input_ids
    else:
        ids = " ".join(map(str, dl.inputs))
    lines = [
        f"dl {FORMAT_VERSION}",
        f"spec {dl.spec_digest}",
        "in " + ids,
        "out " + " ".join(str(v) for v in dl.outputs),
    ]
    for dec in dl.decisions:
        parts = ["d", *[str(i) for i in sorted(dec.guard)], "|"]
        parts += [f"{v}={int(b)}" for v, b in sorted(dec.output.items())]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse(text: str) -> DecisionList:
    """Inverse of serialize.  The list is bound to no specification;
    `parse_many` binds the documents it parses."""
    lines = [l for l in text.splitlines() if l.strip()]
    if len(lines) < 4:
        raise ParseError("truncated decision-list document")
    if lines[0].split() != ["dl", str(FORMAT_VERSION)]:
        raise ParseError(f"unsupported document header: {lines[0]!r}")
    if not lines[1].startswith("spec "):
        raise ParseError("missing spec digest line")
    digest = lines[1][5:].strip()
    inputs = _id_line(lines[2], "in")
    outputs = _id_line(lines[3], "out")
    decisions = []
    for line in lines[4:]:
        if line != "d" and not line.startswith("d "):
            raise ParseError(f"unexpected line in decision-list document: {line!r}")
        body = line[1:]
        if "|" not in body:
            raise ParseError(f"missing '|' separator: {line!r}")
        left, _, right = body.partition("|")
        try:
            guard = frozenset(int(t) for t in left.split())
        except ValueError:
            raise ParseError(f"bad guard indices: {line!r}") from None
        output: dict[int, bool] = {}
        for tok in right.split():
            var, _, bit = tok.partition("=")
            try:
                output[int(var)] = {"0": False, "1": True}[bit]
            except (KeyError, ValueError):
                raise ParseError(f"bad output token {tok!r}") from None
        if len(output) != len(right.split()):
            raise ParseError(f"decision assigns an output twice: {line!r}")
        if any(i < 1 for i in guard):
            raise ParseError("guard indices must be positive")
        if set(output) != set(outputs):
            raise ParseError("decision output is not total over the outputs")
        decisions.append(Decision(guard, output))
    return DecisionList(inputs, outputs, tuple(decisions), digest)


def parse_many(text: str, spec_by_digest: dict[str, Specification] | None = None):
    """Split a concatenation of decision-list documents and parse each one.
    A document whose digest names a specification in `spec_by_digest` is
    bound to it, and takes that specification's `inputs` tuple when its
    own inputs equal it, so the documents of one partition share one tuple
    as the synthesized lists do."""
    blocks: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("dl "):
            blocks.append([line])
        elif blocks:
            blocks[-1].append(line)
        elif line.strip():
            raise ParseError("content before first document header")
    lists = []
    for block in blocks:
        doc = "\n".join(block) + "\n"
        dl = parse(doc)
        if spec_by_digest is not None and dl.spec_digest in spec_by_digest:
            dl.spec = sp = spec_by_digest[dl.spec_digest]
            if dl.inputs == sp.inputs:
                dl.inputs = sp.inputs
        lists.append(dl)
    return lists


def _id_line(line: str, tag: str) -> tuple[int, ...]:
    toks = line.split()
    if not toks or toks[0] != tag:
        raise ParseError(f"expected `{tag}` line, got {line!r}")
    try:
        ids = tuple(int(t) for t in toks[1:])
    except ValueError:
        raise ParseError(f"bad variable ids in `{tag}` line") from None
    if len(set(ids)) != len(ids):
        raise ParseError(f"repeated variable id in `{tag}` line")
    return ids


def to_json_dict(dl: DecisionList) -> dict:
    return {
        "format": "dl",
        "version": FORMAT_VERSION,
        "spec": dl.spec_digest,
        "inputs": list(dl.inputs),
        "outputs": list(dl.outputs),
        "decisions": [
            {
                "guard": sorted(dec.guard),
                "output": {str(v): b for v, b in sorted(dec.output.items())},
            }
            for dec in dl.decisions
        ],
    }
