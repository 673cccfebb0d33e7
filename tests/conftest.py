import random

import pytest

from bafsynth import maxsat
from bafsynth.model import parse_qdimacs

EXAMPLE1_TEXT = """\
c worked example: 4 clauses over 2 inputs and 2 outputs
p cnf 4 4
a 1 2 0
e 3 4 0
1 -2 3 0
1 2 -3 0
2 3 -4 0
-1 2 4 0
"""

# x has no feasible output for either value: clauses force y and not-y
UNREALIZABLE_TEXT = """\
p cnf 2 4
a 1 0
e 2 0
1 2 0
1 -2 0
-1 2 0
-1 -2 0
"""


def identity_qdimacs(k: int) -> str:
    """The equivalence family: output i must equal input i, in CNF."""
    lines = [f"p cnf {2 * k} {2 * k}"]
    lines.append("a " + " ".join(str(i) for i in range(1, k + 1)) + " 0")
    lines.append("e " + " ".join(str(k + i) for i in range(1, k + 1)) + " 0")
    for i in range(1, k + 1):
        lines.append(f"-{i} {k + i} 0")
        lines.append(f"{i} -{k + i} 0")
    return "\n".join(lines) + "\n"


def output_chain_qdimacs(k: int) -> str:
    """One component over outputs y_1..y_k (ids 2..k+1) and one input x:
    y_1 is not x, and y_i implies y_(i+1).  Two MFS, two decisions."""
    lines = [f"p cnf {k + 1} {k + 1}", "a 1 0"]
    lines.append("e " + " ".join(str(v) for v in range(2, k + 2)) + " 0")
    lines += ["1 2 0", "-1 -2 0"]
    lines += [f"-{v} {v + 1} 0" for v in range(2, k + 1)]
    return "\n".join(lines) + "\n"


def random_spec_text(rng: random.Random, max_in=6, max_out=6, max_clauses=20) -> str:
    """Unbiased random splits; produces plenty of degenerate shapes (empty
    x- or y-parts), good for structural and parsing tests."""
    m = rng.randint(1, max_in)
    n = rng.randint(1, max_out)
    k = rng.randint(1, max_clauses)
    lines = [f"p cnf {m + n} {k}"]
    lines.append("a " + " ".join(str(v) for v in range(1, m + 1)) + " 0")
    lines.append("e " + " ".join(str(v) for v in range(m + 1, m + n + 1)) + " 0")
    for _ in range(k):
        width = rng.randint(1, min(4, m + n))
        vs = rng.sample(range(1, m + n + 1), width)
        lits = [v if rng.random() < 0.5 else -v for v in vs]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def random_synth_spec_text(rng: random.Random, max_in=6, max_out=6, max_clauses=20) -> str:
    """Random specs leaning toward output-bearing clauses and positive
    output literals, so realizable instances with nontrivial MFS/MSS
    structure show up often; still yields many unrealizable ones."""
    m = rng.randint(1, max_in)
    n = rng.randint(1, max_out)
    k = rng.randint(1, max_clauses)
    lines = [f"p cnf {m + n} {k}"]
    lines.append("a " + " ".join(str(v) for v in range(1, m + 1)) + " 0")
    lines.append("e " + " ".join(str(v) for v in range(m + 1, m + n + 1)) + " 0")
    for _ in range(k):
        nx = rng.randint(0, min(2, m))
        ny = rng.randint(0, min(2, n))
        if nx + ny == 0 or (ny == 0 and rng.random() < 0.9):
            ny = rng.randint(1, min(2, n))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, m + 1), nx)]
        lits += [
            v if rng.random() < 0.7 else -v
            for v in rng.sample(range(m + 1, m + n + 1), ny)
        ]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def repeated_ypart_spec_text(rng: random.Random, max_in=5, max_out=4, max_clauses=24) -> str:
    """Random specs whose y-parts come from a pool of at most four, so most
    y-parts are shared by several clauses; the pool sometimes holds the
    empty y-part."""
    m = rng.randint(1, max_in)
    n = rng.randint(1, max_out)
    outs = range(m + 1, m + n + 1)
    pool = []
    for _ in range(rng.randint(1, 4)):
        ys = rng.sample(outs, rng.randint(0 if rng.random() < 0.1 else 1, min(2, n)))
        pool.append([v if rng.random() < 0.6 else -v for v in ys])
    k = rng.randint(1, max_clauses)
    lines = [f"p cnf {m + n} {k}"]
    lines.append("a " + " ".join(str(v) for v in range(1, m + 1)) + " 0")
    lines.append("e " + " ".join(str(v) for v in outs) + " 0")
    for _ in range(k):
        xs = rng.sample(range(1, m + 1), rng.randint(0, min(3, m)))
        lits = [v if rng.random() < 0.5 else -v for v in xs] + rng.choice(pool)
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def renamed_spec_text(rng: random.Random, text: str) -> str:
    """`text`, a spec text from one of the generators here, with its
    variables renamed by a random permutation of their ids and the ids of
    each quantifier line shuffled: the same specification up to renaming,
    with input and output ids interleaved and `a`/`e` lines in no
    particular order."""
    header, a_line, e_line, *clause_lines = text.splitlines()
    n = int(header.split()[2])
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    new = {sign * v: sign * w for v, w in enumerate(ids, 1) for sign in (1, -1)}

    def block(line):
        vs = [new[int(t)] for t in line.split()[1:-1]]
        rng.shuffle(vs)
        return " ".join([line[0], *map(str, vs), "0"])

    lines = [header, block(a_line), block(e_line)]
    for line in clause_lines:
        lines.append(" ".join([*(str(new[int(t)]) for t in line.split()[:-1]), "0"]))
    return "\n".join(lines) + "\n"


PLANTED_MISSES = 10_000  # draws in a row without a new clause


def planted_spec_text(rng: random.Random, m: int, n: int, k: int) -> str:
    """k distinct clauses over inputs 1..m and outputs m+1..m+n that hold
    when each output copies a random literal of one input: one or two
    output literals, up to two input literals, and the negation of the
    first output literal's planted value.  Realizable by construction.
    Raises ValueError after PLANTED_MISSES draws in a row that add no
    clause, which is how a k beyond the clauses m and n allow shows."""
    image = {y: rng.choice((1, -1)) * rng.randint(1, m) for y in range(m + 1, m + n + 1)}
    clauses: dict[frozenset[int], None] = {}
    sign = lambda v: rng.choice((1, -1)) * v  # noqa: E731
    misses = 0
    while len(clauses) < k:
        ys = [sign(y) for y in rng.sample(sorted(image), rng.randint(1, min(2, n)))]
        xs = {sign(x) for x in rng.sample(range(1, m + 1), rng.randint(0, min(2, m)))}
        first = image[abs(ys[0])] if ys[0] > 0 else -image[abs(ys[0])]
        before = len(clauses)
        if first not in xs:
            clauses[frozenset(xs | {-first, *ys})] = None
        misses = 0 if len(clauses) > before else misses + 1
        if misses == PLANTED_MISSES:
            raise ValueError(f"{k} distinct clauses look out of reach over {m} inputs and {n} outputs")
    lines = [f"p cnf {m + n} {k}"]
    lines.append("a " + " ".join(str(v) for v in range(1, m + 1)) + " 0")
    lines.append("e " + " ".join(str(v) for v in range(m + 1, m + n + 1)) + " 0")
    lines += [" ".join(map(str, sorted(c, key=abs))) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def example1():
    return parse_qdimacs(EXAMPLE1_TEXT)


@pytest.fixture(scope="session")
def unrealizable4():
    return parse_qdimacs(UNREALIZABLE_TEXT)



@pytest.fixture(scope="session")
def maxsat_paths():
    """`for _ in maxsat_paths():` runs its body once per MaxSAT path: with
    `maxsat.TABLE_BITS` at its default, so a session over few outputs is a
    truth table, and at 0, so every session over an output is a CDCL
    `MaxSatSession` (and `synth.irredundant` keeps every decision).  The
    verifier shares the budget: at the default its coverage check on few
    inputs is a truth table, and at 0 every one is its SAT query.  Each
    budget is set by a MonkeyPatch that is undone before the next one, and
    also when the body fails; the fixture is session-scoped, so Hypothesis
    tests can use it."""

    def paths():
        for bits in (maxsat.TABLE_BITS, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(maxsat, "TABLE_BITS", bits)
                yield bits

    return paths
