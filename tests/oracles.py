"""Independent brute-force oracles used to compute expected test values.

Everything here works directly on literal tuples, specification clauses,
plain Python sets and exhaustive enumeration, and deliberately avoids the
package's solver, graph, and synthesis code.  The set-based graph routines
are the references the package's bitset versions must match exactly.  The
one exception is `whole_id_verification`, the verifier's queries numbered by
the specification's own ids on the package's SAT engine: the reference that
the compactly numbered verifier must match decision for decision.  The
other, `composition_reference`, composes the package's own back-and-forth
list with stage 1 and checks it on every input: the reference that the
composition status of `bafsynth decompose`, mapped from the verdict of
`cli.run_pipeline`, must match.
"""

from dataclasses import dataclass, replace
from itertools import product

from bafsynth import decomp, dlist
from bafsynth.errors import LimitError
from bafsynth.sat import Solver
from bafsynth.synth import back_and_forth


def assignments(variables):
    """All total assignments over `variables`, all-false first."""
    variables = list(variables)
    for bits in product((False, True), repeat=len(variables)):
        yield dict(zip(variables, bits))


def clause_sat(lits, assign):
    return any(assign[abs(l)] == (l > 0) for l in lits)


def cnf_model(clauses, variables):
    """First satisfying assignment by exhaustive search, else None."""
    for a in assignments(variables):
        if all(clause_sat(c, a) for c in clauses):
            return a
    return None


def all_falsifiable(lits_list):
    """A set of clauses is jointly falsifiable iff the union of the negated
    literals is consistent; this decides satisfiability of that unit set."""
    negated = set()
    for lits in lits_list:
        for l in lits:
            negated.add(-l)
    return not any(-l in negated for l in negated)


def soundness_pairs(spec, dl):
    """The (decision, clause) pairs of a per-clause soundness scan, in scan
    order: for each decision, every clause in ascending index order that is
    outside the guard and whose y-part the decision output falsifies."""
    return [
        (di, j)
        for di, dec in enumerate(dl.decisions, 1)
        for j in spec.indices
        if j not in dec.guard and not clause_sat(spec.y_part(j), dec.output)
    ]


def first_unsound_pair(spec, dl):
    """The first of `soundness_pairs` for which some input fires the guard
    and falsifies the clause's x-part, by exhaustive search; else None."""
    inputs = list(assignments(spec.inputs))
    for di, j in soundness_pairs(spec, dl):
        guard = sorted(dl.decisions[di - 1].guard)
        for x in inputs:
            if all(clause_sat(spec.x_part(g), x) for g in guard) and not clause_sat(
                spec.x_part(j), x
            ):
                return di, j
    return None


def whole_id_verification(spec, dl):
    """The verifier's queries over the specification's own variable ids:
    a fresh solver per `soundness_pairs` pair, then one coverage query over
    each guard's minimal distinct x-parts (those that properly contain no
    other x-part of the guard, found by comparing every pair), in ascending
    order of their first clause in the guard.  A one-literal x-part (l) is
    selected by the literal -l; every other x-part gets the selector
    base + t, base the largest id of the specification and t its position
    among those x-parts in order of first use, decision by decision.
    Returns the report's (status, kind, decision, clause, witness input)
    and every solver made, in order: one per soundness pair queried, then
    the coverage query's unless a soundness pair fails first.  Expects a
    list that passes `check_decision_list`."""
    solvers = []
    for di, j in soundness_pairs(spec, dl):
        s = Solver()
        solvers.append(s)
        for g in sorted(dl.decisions[di - 1].guard):
            s.add_clause(spec.x_part(g))
        for lit in spec.x_part(j):
            s.add_clause((-lit,))
        res = s.solve()
        if res.satisfiable:
            x = {v: res.model.get(v, False) for v in spec.inputs}
            return ("counterexample", "soundness", di, j, x), solvers
    minimal = []
    for dec in dl.decisions:
        parts = [spec.x_part(g) for g in sorted(dec.guard)]
        minimal.append(
            list(dict.fromkeys(p for p in parts if not any(set(q) < set(p) for q in parts)))
        )
    base = max((*spec.inputs, *spec.outputs), default=0)
    used = list(dict.fromkeys(p for parts in minimal for p in parts))
    own = [p for p in used if len(p) != 1]
    sel = {p: base + t for t, p in enumerate(own, 1)}
    sel.update((p, -p[0]) for p in used if len(p) == 1)
    s = Solver()
    solvers.append(s)
    for p in own:
        for lit in p:
            s.add_clause((-sel[p], -lit))
    for parts in minimal:
        s.add_clause([sel[p] for p in parts])
    res = s.solve()
    if res.satisfiable:
        x = {v: res.model.get(v, False) for v in spec.inputs}
        return ("counterexample", "coverage-gap", None, None, x), solvers
    return ("verified", None, None, None, None), solvers


def extend_to_mis_reference(spec, seed):
    """Grow a jointly falsifiable seed to an MFS in ascending index order on
    literal sets: a clause joins when no literal of its x-part is made true
    by the chosen ones.  Raises ValueError for a dependent seed."""
    chosen = set(seed)
    true = {-l for i in chosen for l in spec.x_part(i)}
    if any(-l in true for l in true):
        raise ValueError("seed is not independent in the conflict graph")
    for i, (x_lits, _) in enumerate(spec.clauses, 1):
        if i not in chosen and true.isdisjoint(x_lits):
            chosen.add(i)
            true.update(-l for l in x_lits)
    return frozenset(chosen)


def first_unsatisfied_ypart(spec, index_sets, witnesses):
    """Witness validation clause by clause: the first (set, clause) pair,
    sets in order (1-based) and clauses ascending, whose y-part the set's
    witness falsifies; None when every witness satisfies its set."""
    for di, (sel, wit) in enumerate(zip(index_sets, witnesses), 1):
        for j in sorted(sel):
            if not clause_sat(spec.y_part(j), wit):
                return di, j
    return None


def irredundant_reference(spec, mss_list):
    """The positions, ascending, of the decisions (guard: the complement of
    each MSS) that a last-to-first greedy keeps when it drops each decision
    whose guard fires on no input that no other kept decision's guard fires
    on; every input is enumerated, and nothing is decided in advance."""
    inputs = list(assignments(spec.inputs))
    fires = [
        {
            n
            for n, x in enumerate(inputs)
            if all(clause_sat(spec.x_part(g), x) for g in spec.indices if g not in mss)
        }
        for mss in mss_list
    ]
    kept = set(range(len(mss_list)))
    for i in reversed(range(len(mss_list))):
        others = set().union(*(fires[j] for j in kept if j != i))
        if fires[i] <= others:
            kept.discard(i)
    return sorted(kept)


def subsumed_reference(spec):
    """The clauses, as a sorted index list, whose literal set properly
    contains that of some other clause, by comparing every pair."""
    lits = [set(x) | set(y) for x, y in spec.clauses]
    return [i for i, c in enumerate(lits, 1) if any(d < c for d in lits)]


def output_components_reference(spec):
    """The output partition by set closure: per component, its clause
    indices and the outputs their y-parts use, both ascending, the
    components in order of their least clause (a clause with an empty
    y-part shares no output, so it is one on its own); then, when there are
    any, the outputs no clause uses, in the order of the `e` line, with no
    clause."""
    outs = [{abs(l) for l in y_lits} for _, y_lits in spec.clauses]
    left = set(range(1, len(outs) + 1))
    found = []
    while left:
        group = {min(left)}
        while True:
            reach = {j for j in left if any(outs[j - 1] & outs[i - 1] for i in group)}
            if reach <= group:
                break
            group |= reach
        left -= group
        found.append((sorted(group), sorted(set().union(*(outs[i - 1] for i in group)))))
    used = set().union(*outs)
    unused = [v for v in spec.outputs if v not in used]
    if unused:
        found.append(([], unused))
    return found


def maximal_sets(family):
    family = set(family)
    return sorted((s for s in family if not any(s < t for t in family)), key=sorted)


@dataclass
class BruteForceTable:
    """Exhaustive input-to-output table; None marks inputs with no output."""

    inputs: tuple
    outputs: tuple
    entries: dict

    @property
    def realizable(self):
        return all(v is not None for v in self.entries.values())


def brute_force_synthesize(spec, limit=16):
    """For every input assignment, search all output assignments for one
    satisfying the CNF; requires |inputs| + |outputs| <= limit."""
    m, n = len(spec.inputs), len(spec.outputs)
    if m + n > limit:
        raise LimitError(f"{m + n} variables exceed the brute-force limit {limit}")
    entries = {}
    for xbits in product((False, True), repeat=m):
        x = dict(zip(spec.inputs, xbits))
        found = None
        for ybits in product((False, True), repeat=n):
            y = dict(zip(spec.outputs, ybits))
            if spec.evaluate({**x, **y}):
                found = y
                break
        entries[xbits] = found
    return BruteForceTable(spec.inputs, spec.outputs, entries)


@dataclass
class DecompositionCheck:
    """Both decomposition properties, and an assignment that breaks each."""

    equivalence_holds: bool  # original CNF == exists-z (stage1 and stage2)
    image_in_domain: bool  # reachable intermediates are stage2-feasible
    equivalence_witness: dict | None = None
    image_witness: dict | None = None


def good_decomposition_reference(spec, pair, limit=16):
    """Exhaustively check both decomposition properties of a
    `DecomposedPair`; requires |inputs| + |outputs| + |intermediates| <=
    limit.  The pair is not trusted to be well-formed (a corrupted stage 1
    is detectable), so the intermediate assignments are enumerated rather
    than derived."""
    m, n, k = len(spec.inputs), len(spec.outputs), len(pair.z_vars)
    if m + n + k > limit:
        raise LimitError(f"{m + n + k} variables exceed the brute-force limit {limit}")
    xs, ys, zs = (list(assignments(v)) for v in (spec.inputs, spec.outputs, pair.z_vars))

    def f1_holds(x, zv):
        merged = {**x, **zv}
        return all(clause_sat(c, merged) for c in pair.f1_clauses)

    def f2_holds(zv, y):
        return pair.f2_spec.evaluate({**zv, **y})

    image = {tuple(x.items()): [zv for zv in zs if f1_holds(x, zv)] for x in xs}
    stage2_feasible = {tuple(zv.items()): any(f2_holds(zv, y) for y in ys) for zv in zs}

    report = DecompositionCheck(True, True)
    for x in xs:
        for y in ys:
            lhs = spec.evaluate({**x, **y})
            rhs = any(f2_holds(zv, y) for zv in image[tuple(x.items())])
            if lhs != rhs:
                report.equivalence_holds, report.equivalence_witness = False, {**x, **y}
                break
        if not report.equivalence_holds:
            break

    for x in xs:
        if not any(spec.evaluate({**x, **y}) for y in ys):
            continue  # property is only required on feasible inputs
        for zv in image[tuple(x.items())]:
            if not stage2_feasible[tuple(zv.items())]:
                report.image_in_domain, report.image_witness = False, {**x, **zv}
                break
        if not report.image_in_domain:
            break
    return report


def stage1_reference(spec, pair, x):
    """The direct stage-1 implementation: z_i is the negation of clause i's
    x-part under the input `x`."""
    return {pair.z_vars[i - 1]: not clause_sat(spec.x_part(i), x) for i in spec.indices}


def composition_reference(spec, limit=16):
    """The `decomp` status of the specification's back-and-forth list bound
    to stage 2, composed with `stage1_reference` and compared with the CNF
    on every input; requires |inputs| + |outputs| <= limit."""
    m, n = len(spec.inputs), len(spec.outputs)
    if m + n > limit:
        raise LimitError(f"{m + n} variables exceed the brute-force limit {limit}")
    outcome = back_and_forth(spec)
    if not outcome.realizable:
        return decomp.DECOMP_UNREALIZABLE
    pair = decomp.cnf_decompose(spec)
    f2 = pair.f2_spec
    stage2 = replace(outcome.decision_list, inputs=f2.inputs, spec_digest=f2.digest, spec=f2)
    for x in assignments(spec.inputs):
        y = dlist.evaluate(stage2, stage1_reference(spec, pair, x))
        if y is None or not spec.evaluate({**x, **y}):
            return decomp.COUNTEREXAMPLE
    return decomp.GOOD


def brute_force_mfs_mss(spec, clause_limit=20, var_limit=16):
    """Exact MFS and MSS lists by exhausting the assignment space.

    Every all-falsifiable set is contained in the falsified-set of its own
    witness, so the MFS are exactly the maximal falsified-sets over all
    inputs; dually the MSS are the maximal satisfied-sets over all outputs.
    Both lists come back in lexicographic order of sorted indices."""
    if spec.num_clauses > clause_limit:
        raise LimitError(f"{spec.num_clauses} clauses exceed the limit {clause_limit}")
    if len(spec.inputs) > var_limit or len(spec.outputs) > var_limit:
        raise LimitError(f"variable block larger than the limit {var_limit}")
    fals_sets = set()
    for x in assignments(spec.inputs):
        fals_sets.add(frozenset(i for i in spec.indices if not clause_sat(spec.x_part(i), x)))
    sat_sets = set()
    for y in assignments(spec.outputs):
        sat_sets.add(frozenset(i for i in spec.indices if clause_sat(spec.y_part(i), y)))
    return maximal_sets(fals_sets), maximal_sets(sat_sets)


def subset_enum_mfs(x_parts):
    """All MFS by full subset enumeration (indices 1-based); feasible only
    for small clause counts."""
    k = len(x_parts)
    falsifiable = []
    for mask in range(1 << k):
        subset = frozenset(i + 1 for i in range(k) if mask >> i & 1)
        if all_falsifiable([x_parts[i - 1] for i in subset]):
            falsifiable.append(subset)
    return maximal_sets(falsifiable)


def subset_enum_mss(y_parts, out_vars):
    """All MSS by full subset enumeration with exhaustive satisfiability."""
    k = len(y_parts)
    satisfiable = []
    for mask in range(1 << k):
        subset = frozenset(i + 1 for i in range(k) if mask >> i & 1)
        if cnf_model([y_parts[i - 1] for i in subset], out_vars) is not None:
            satisfiable.append(subset)
    return maximal_sets(satisfiable)


def maxsat_optimum(hard, soft, variables):
    """(feasible, best #satisfied soft) by exhaustive assignment search."""
    best = None
    for a in assignments(variables):
        if not all(clause_sat(c, a) for c in hard):
            continue
        count = sum(1 for c in soft if clause_sat(c, a))
        if best is None or count > best:
            best = count
    return (best is not None), (best or 0)


def has_chordless_cycle(adj, n):
    """True iff the graph on vertices 1..n has an induced cycle of length
    at least 4.  DFS over induced paths only, so dense graphs stay cheap."""

    def extend(path, in_path):
        start, last = path[0], path[-1]
        for v in sorted(adj[last]):
            if v in in_path:
                continue
            if v < start:
                continue  # canonical form: the cycle starts at its minimum
            # v must see only `last` among the path (and possibly `start`)
            middles = [u for u in path[1:-1] if u in adj[v]]
            if middles:
                continue
            closes = start in adj[v]
            if closes and len(path) >= 3:
                return True
            if not closes:
                if extend(path + [v], in_path | {v}):
                    return True
        return False

    for s in range(1, n + 1):
        for second in sorted(adj[s]):
            if second < s:
                continue
            if extend([s, second], {s, second}):
                return True
    return False


def pairwise_conflict_adj(x_parts):
    """Conflict adjacency by comparing every pair of x-parts: clauses i < j
    (1-based) are adjacent iff one holds a literal whose negation the other
    holds.  Entry 0 is unused."""
    k = len(x_parts)
    adj = [set() for _ in range(k + 1)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if any(-l in x_parts[j - 1] for l in x_parts[i - 1]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def max_cliques_reference(adj, n, limit):
    """Set-based pivoting Bron-Kerbosch over vertices 1..n (adjacency sets
    `adj[v]`), aborted past `limit` results: (found, overflow).

    The pivot is the first vertex of sorted(P | X) with the most neighbours
    in P (Tomita et al. 2006); branch vertices are tried in ascending order,
    each to completion before the next, and `found` keeps discovery order."""
    found = []
    stack = [[set(), set(range(1, n + 1)), set(), None]]
    while stack:
        frame = stack[-1]
        r, p, x, todo = frame
        if todo is None:
            if not p and not x:
                found.append(frozenset(r))
                if len(found) > limit:
                    return found[:limit], True
                stack.pop()
                continue
            pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
            todo = frame[3] = sorted(p - adj[pivot], reverse=True)
        if not todo:
            stack.pop()
            continue
        v = todo.pop()
        frame[1], frame[2] = p - {v}, x | {v}
        stack.append([r | {v}, p & adj[v], x & adj[v], None])
    return found, False
