"""Seeded random 2QBF specifications in the fixed-shape model of Chen and
Interian ("A model for generating random quantified Boolean formulas",
IJCAI 2005), for `tools/ab.py --random MxNxK[:SEED]`.

`random_2qbf(SEED, M, N, K)` is the QDIMACS text of K distinct clauses over
universal inputs 1..M and existential outputs M+1..M+N.  Each clause draws
P = 2 inputs and Q = 3 outputs, all distinct, each with a random sign, so
every clause has the same length and none subsumes another.  The draw is repeated until it gives a clause not drawn
before, so K may not exceed `distinct_clauses(M, N)`.  Nothing plants a
Skolem function: an instance may be unrealizable.
"""

from __future__ import annotations

import argparse
import random
import re
from math import comb

P, Q = 2, 3  # universal and existential literals per clause


def distinct_clauses(m: int, n: int) -> int:
    """How many distinct clauses the model can draw over m inputs and n
    outputs."""
    return comb(m, P) * comb(n, Q) << (P + Q)


def check_shape(m: int, n: int, k: int) -> None:
    """Raise ValueError unless m >= P, n >= Q and 1 <= k <=
    `distinct_clauses(m, n)`."""
    if m < P or n < Q or not 1 <= k <= distinct_clauses(m, n):
        bound = distinct_clauses(m, n) if m >= P and n >= Q else 0
        raise ValueError(f"{m}x{n}x{k} needs M >= {P}, N >= {Q} and 1 <= K <= {bound}")


def random_2qbf(seed: int, m: int, n: int, k: int) -> str:
    """The QDIMACS text of k distinct random clauses over inputs 1..m and
    outputs m+1..m+n, drawn by `random.Random(seed)`; each clause lists its
    literals in ascending variable id.  Raises ValueError when
    `check_shape` refuses the shape."""
    check_shape(m, n, k)
    rng = random.Random(seed)
    inputs, outputs = range(1, m + 1), range(m + 1, m + n + 1)
    clauses: dict[tuple[int, ...], None] = {}
    while len(clauses) < k:
        vs = sorted(rng.sample(inputs, P)) + sorted(rng.sample(outputs, Q))
        clauses[tuple(v if rng.random() < 0.5 else -v for v in vs)] = None
    lines = [f"c random 2QBF {m}x{n}x{k}:{seed}", f"p cnf {m + n} {k}"]
    lines.append("a " + " ".join(map(str, inputs)) + " 0")
    lines.append("e " + " ".join(map(str, outputs)) + " 0")
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def shape(text: str) -> tuple[int, int, int, int]:
    """`MxNxK[:SEED]` as (M, N, K, SEED), SEED 0 when left out; refused
    unless `check_shape` accepts M, N and K."""
    got = re.fullmatch(r"(\d+)x(\d+)x(\d+)(?::(\d+))?", text)
    if not got:
        raise argparse.ArgumentTypeError(f"{text!r} is not MxNxK[:SEED]")
    m, n, k, seed = (int(g or 0) for g in got.groups())
    try:
        check_shape(m, n, k)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return m, n, k, seed

