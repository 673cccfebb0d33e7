import random

import pytest

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


@pytest.fixture(scope="session")
def example1():
    return parse_qdimacs(EXAMPLE1_TEXT)


@pytest.fixture(scope="session")
def unrealizable4():
    return parse_qdimacs(UNREALIZABLE_TEXT)

