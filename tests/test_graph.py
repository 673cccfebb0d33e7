import random
import sys

import pytest

from bafsynth import graph
from bafsynth.errors import LimitError
from bafsynth.graph import (
    ConflictGraph,
    _consensus_masks,
    _max_cliques,
    analyze_structure,
    build_conflict_graph,
    components,
    conflict_masks,
    enumerate_mis,
    extend_to_mis,
)
from bafsynth.model import mask_indices, parse_qdimacs

from .conftest import identity_qdimacs, random_spec_text
from . import oracles


def _graph(n, edges):
    conflicts = [0] * (n + 1)
    for i, j in edges:
        conflicts[i] |= 1 << j
        conflicts[j] |= 1 << i
    return ConflictGraph(tuple(conflicts))


def _adj(g):
    """The conflict graph as adjacency sets, for the set-based oracles."""
    return [set(mask_indices(m)) for m in g.conflicts]


def _everything(g):
    """The mask of every vertex, 1..n."""
    return (1 << (g.n + 1)) - 2


def test_example1_edges(example1):
    g = build_conflict_graph(example1)
    assert g.edges() == [(1, 2), (1, 3), (1, 4), (2, 4)]


def test_disjoint_xparts_edgeless():
    spec = parse_qdimacs("p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n2 4 0\n")
    assert build_conflict_graph(spec).edges() == []


def test_opposite_unit_xparts_single_edge():
    spec = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 2 0\n")
    assert build_conflict_graph(spec).edges() == [(1, 2)]


def test_extend_to_mis_example1(example1):
    assert extend_to_mis(conflict_masks(example1), frozenset()) == frozenset({1})
    assert extend_to_mis(conflict_masks(example1), frozenset({2})) == frozenset({2, 3})


def test_extend_to_mis_edgeless():
    spec = parse_qdimacs("p cnf 6 3\na 1 2 3 0\ne 4 5 6 0\n1 4 0\n2 5 0\n-3 6 0\n")
    assert extend_to_mis(conflict_masks(spec), frozenset({2})) == frozenset({1, 2, 3})


def test_extend_to_mis_rejects_dependent_seed():
    spec = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 2 0\n")
    with pytest.raises(ValueError, match="independent"):
        extend_to_mis(conflict_masks(spec), frozenset({1, 2}))


def _greedy_over_graph(g, seed):
    """Reference: ascending greedy growth over the conflict graph."""
    chosen, adj = set(seed), _adj(g)
    for v in range(1, g.n + 1):
        if v not in chosen and not (adj[v] & chosen):
            chosen.add(v)
    return frozenset(chosen)


def test_extension_equals_greedy_growth_over_the_conflict_graph():
    rng = random.Random(53)
    checked = 0
    for _ in range(300):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=14))
        g = build_conflict_graph(spec)
        adj, seed = _adj(g), set()
        for v in rng.sample(list(spec.indices), rng.randint(0, spec.num_clauses)):
            if not (adj[v] & seed):
                seed.add(v)
        seed = frozenset(seed)
        got = extend_to_mis(conflict_masks(spec), seed)
        assert got == _greedy_over_graph(g, seed) == oracles.extend_to_mis_reference(spec, seed)
        checked += bool(seed)
        edges = g.edges()
        if edges:  # both ends of an edge: a dependent seed
            dependent = frozenset(rng.choice(edges))
            with pytest.raises(ValueError, match="independent"):
                extend_to_mis(conflict_masks(spec), dependent)
            with pytest.raises(ValueError):
                oracles.extend_to_mis_reference(spec, dependent)
    assert checked > 200


def test_enumerate_mis_example1(example1):
    g = build_conflict_graph(example1)
    enum = enumerate_mis(g, 100)
    assert list(enum.sets) == [frozenset({1}), frozenset({2, 3}), frozenset({3, 4})]


def test_enumerate_mis_complete_graph():
    g = _graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    enum = enumerate_mis(g, 100)
    assert list(enum.sets) == [frozenset({i}) for i in range(1, 5)]


def test_enumerate_mis_identity_family():
    spec = parse_qdimacs(identity_qdimacs(3))
    g = build_conflict_graph(spec)
    assert g.edges() == [(1, 2), (3, 4), (5, 6)]
    enum = enumerate_mis(g, 100)
    assert len(enum.sets) == 8


def test_enumerate_mis_overflow_flag():
    spec = parse_qdimacs(identity_qdimacs(10))
    g = build_conflict_graph(spec)
    with pytest.raises(LimitError, match=r"^more than 100 maximal falsifiable subsets$"):
        enumerate_mis(g, 100)
    assert len(enumerate_mis(g, 1024).sets) == 1024


def test_enumeration_and_analysis_reject_a_limit_below_one(example1):
    g = build_conflict_graph(example1)
    with pytest.raises(ValueError, match="limit must be positive"):
        enumerate_mis(g, 0)
    with pytest.raises(ValueError, match="budget must be positive"):
        analyze_structure(g, 0)


def test_enumerate_mis_takes_a_limit_above_sys_maxsize():
    g = build_conflict_graph(parse_qdimacs(identity_qdimacs(3)))
    enum = enumerate_mis(g, sys.maxsize + 1)
    assert enum.sets == enumerate_mis(g, 100).sets and len(enum.sets) == 8


def test_mis_matches_subset_enumeration_oracle():
    rng = random.Random(43)
    for _ in range(60):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=10))
        g = build_conflict_graph(spec)
        got = [set(s) for s in enumerate_mis(g, 10000).sets]
        expected = [
            set(s)
            for s in oracles.subset_enum_mfs(
                [spec.x_part(i) for i in spec.indices]
            )
        ]
        assert got == expected


def test_extension_is_maximal_and_independent():
    rng = random.Random(47)
    for _ in range(60):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=12))
        g = build_conflict_graph(spec)
        adj = _adj(g)
        mis = extend_to_mis(conflict_masks(spec), frozenset())
        for v in mis:
            assert not (adj[v] & mis)
        for v in range(1, g.n + 1):
            assert v in mis or (adj[v] & mis)


def test_analyze_structure_example1(example1):
    g = build_conflict_graph(example1)
    report = analyze_structure(g, 100)
    assert report.count == 3
    assert report.chordal is True


def test_analyze_structure_c4_consensus_not_chordal():
    # conflict graph with edges (1,3),(2,4) has the 4-cycle as consensus
    spec = parse_qdimacs(
        "p cnf 3 4\na 1 2 0\ne 3 0\n1 3 0\n2 3 0\n-1 3 0\n-2 3 0\n"
    )
    g = build_conflict_graph(spec)
    assert g.edges() == [(1, 3), (2, 4)]
    report = analyze_structure(g, 100)
    assert report.chordal is False
    assert report.count == 4


def test_analyze_structure_budget_exceeded():
    spec = parse_qdimacs(identity_qdimacs(10))
    g = build_conflict_graph(spec)
    report = analyze_structure(g, 100)
    assert report.count is None


def test_single_mfs_chain_does_not_recurse_per_clique_vertex():
    # x-parts never conflict: the consensus graph is one 1200-vertex clique
    k = 1200
    lines = [f"p cnf {k + 1} {k}", "a " + " ".join(map(str, range(1, k + 1))) + " 0"]
    lines += [f"e {k + 1} 0"] + [f"{i} {k + 1} 0" for i in range(1, k + 1)]
    g = build_conflict_graph(parse_qdimacs("\n".join(lines) + "\n"))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        report = analyze_structure(g, 10)
    finally:
        sys.setrecursionlimit(old)
    assert report.count == 1
    assert report.chordal is True


def test_analyze_count_matches_enumeration():
    rng = random.Random(53)
    for _ in range(40):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=12))
        g = build_conflict_graph(spec)
        report = analyze_structure(g, 100000)
        enum = enumerate_mis(g, 100000)
        assert report.count == len(enum.sets)


def test_chordality_against_chordless_cycle_oracle():
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 10)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.4
        ]
        g = _graph(n, edges)
        # analyze_structure tests the consensus graph, so feed the complement
        complement = _graph(
            n,
            [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if (i, j) not in set(edges)
            ],
        )
        report = analyze_structure(complement, 10**9)
        expected = not oracles.has_chordless_cycle(_adj(g), n)
        assert report.chordal == expected


def test_graph_is_symmetric_irreflexive():
    rng = random.Random(61)
    for _ in range(30):
        spec = parse_qdimacs(random_spec_text(rng))
        g = build_conflict_graph(spec)
        adj = _adj(g)
        assert not adj[0] and all(m >> (g.n + 1) == 0 for m in g.conflicts)
        for v in range(1, g.n + 1):
            assert v not in adj[v]
            for u in adj[v]:
                assert v in adj[u]


def test_conflict_graph_equals_pairwise_definition():
    rng = random.Random(67)
    for _ in range(300):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=30))
        g = build_conflict_graph(spec)
        expected = oracles.pairwise_conflict_adj([spec.x_part(i) for i in spec.indices])
        assert g.n == spec.num_clauses
        assert _adj(g) == expected
        assert all(not m >> v & 1 for v, m in enumerate(g.conflicts))


def test_conflict_graph_is_the_conflict_masks():
    rng = random.Random(89)
    for _ in range(300):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=30))
        assert build_conflict_graph(spec).conflicts == tuple(conflict_masks(spec))


def _consensus_sets(g):
    adj = _adj(g)
    return [set()] + [
        {u for u in range(1, g.n + 1) if u != v and u not in adj[v]}
        for v in range(1, g.n + 1)
    ]


def _assert_cliques_match_reference(g):
    everything = _everything(g)
    nb = _consensus_masks(g, everything)
    cons = _consensus_sets(g)
    for limit in (1, 3, 10**6):
        got = _max_cliques(nb, everything, limit)
        assert got == oracles.max_cliques_reference(cons, g.n, limit)


def test_clique_search_matches_set_based_reference_on_random_graphs():
    # same cliques in the same discovery order, same truncated prefix
    rng = random.Random(71)
    for _ in range(420):
        n = rng.randint(1, 25)
        density = rng.random()
        g = _graph(
            n,
            [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < density
            ],
        )
        _assert_cliques_match_reference(g)


def _chain_matching_text(rng, chain, pairs):
    """Clauses (a_i | z) for i = 1..chain and matched pairs (u_j | y_j | z),
    (-u_j | -y_j | z), in shuffled order: 2^pairs MFS."""
    m = chain + pairs
    z = m + pairs + 1
    clauses = [[a, z] for a in range(1, chain + 1)]
    for j in range(pairs):
        u, y = chain + 1 + j, m + 1 + j
        clauses += [[u, y, z], [-u, -y, z]]
    rng.shuffle(clauses)
    lines = [f"p cnf {z} {len(clauses)}", "a " + " ".join(map(str, range(1, m + 1))) + " 0"]
    lines.append("e " + " ".join(map(str, range(m + 1, z + 1))) + " 0")
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def test_clique_search_matches_set_based_reference_on_chain_matching_specs():
    rng = random.Random(73)
    for chain, pairs in ((0, 1), (1, 0), (5, 3), (40, 0), (30, 2), (20, 4), (10, 6)):
        g = build_conflict_graph(parse_qdimacs(_chain_matching_text(rng, chain, pairs)))
        assert len(g.edges()) == pairs
        _assert_cliques_match_reference(g)
        assert len(enumerate_mis(g, 10**6).sets) == 2**pairs


def _disjoint_union_graph(rng):
    """Several small random graphs with at least one edge each, plus
    isolated vertices, on shuffled vertex ids so the components interleave."""
    pieces, n = [], 0
    for _ in range(rng.randint(0, 4)):
        size = rng.randint(2, 6)
        edges = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.5]
        edges = edges or [(0, 1)]
        pieces.append((n, edges))
        n += size
    n += rng.randint(0, 5)  # isolated vertices
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return _graph(n, [(label[base + i], label[base + j]) for base, edges in pieces for i, j in edges])


def test_component_factoring_matches_the_whole_graph_search():
    rng = random.Random(79)
    overflowed = 0
    for _ in range(300):
        g = _disjoint_union_graph(rng)
        everything = _everything(g)
        whole, overflow = _max_cliques(_consensus_masks(g, everything), everything, 10**9)
        assert not overflow
        whole.sort(key=sorted)
        count = len(whole)
        enum = enumerate_mis(g, count)
        assert list(enum.sets) == whole
        assert analyze_structure(g, count).count == count
        chordal = not oracles.has_chordless_cycle(_consensus_sets(g), g.n)
        assert analyze_structure(g, count).chordal == chordal
        if count > 1:
            assert analyze_structure(g, count - 1).count is None
            for limit in range(1, count):
                with pytest.raises(LimitError):
                    enumerate_mis(g, limit)
            overflowed += 1
    assert overflowed > 200


def test_independent_conflicts_are_searched_one_pair_at_a_time(monkeypatch):
    sizes = []

    def recording(nb, part, limit):
        sizes.append(part.bit_count())
        return _max_cliques(nb, part, limit)

    monkeypatch.setattr(graph, "_max_cliques", recording)
    g = build_conflict_graph(parse_qdimacs(identity_qdimacs(60)))
    report = analyze_structure(g, 10000)
    assert report.count is None and report.chordal is False
    assert sizes and max(sizes) <= 2


def _random_graph(rng):
    if rng.random() < 0.5:
        return _disjoint_union_graph(rng)
    n = rng.randint(0, 20)
    density = rng.random() * 0.3
    return _graph(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < density]
    )


def test_components_partition_the_vertices_with_a_conflict():
    rng = random.Random(97)
    for _ in range(400):
        g = _random_graph(rng)
        adj = _adj(g)
        isolated, parts = components(g.conflicts)
        assert isolated == {v for v in range(1, g.n + 1) if not adj[v]}
        covered = 0
        for part in parts:
            assert part and not covered & part  # nonempty and disjoint
            covered |= part
            members = set(mask_indices(part))
            assert all(adj[v] <= members for v in members)  # closed under conflicts
            reached, todo = set(), [min(members)]
            while todo:  # and connected
                v = todo.pop()
                if v not in reached:
                    reached.add(v)
                    todo.extend(adj[v])
            assert reached == members
        assert covered == sum(1 << v for v in range(1, g.n + 1) if adj[v])
        least = [(part & -part).bit_length() for part in parts]
        assert least == sorted(least)
