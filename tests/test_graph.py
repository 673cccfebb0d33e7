import random
import sys

import pytest

from bafsynth.graph import (
    ConflictGraph,
    analyze_structure,
    build_conflict_graph,
    enumerate_mis,
    extend_to_mis,
)
from bafsynth.model import parse_qdimacs

from .conftest import identity_qdimacs, random_spec_text
from . import oracles


def _graph(n, edges):
    adj = [set() for _ in range(n + 1)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return ConflictGraph(n, tuple(frozenset(s) for s in adj))


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
    g = build_conflict_graph(example1)
    assert extend_to_mis(g, frozenset()) == frozenset({1})
    assert extend_to_mis(g, frozenset({2})) == frozenset({2, 3})


def test_extend_to_mis_edgeless():
    g = _graph(3, [])
    assert extend_to_mis(g, frozenset({2})) == frozenset({1, 2, 3})


def test_extend_to_mis_rejects_dependent_seed():
    g = _graph(2, [(1, 2)])
    with pytest.raises(ValueError, match="independent"):
        extend_to_mis(g, frozenset({1, 2}))


def test_enumerate_mis_example1(example1):
    g = build_conflict_graph(example1)
    enum = enumerate_mis(g, 100)
    assert not enum.overflow
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
    assert len(enum.sets) == 8 and not enum.overflow


def test_enumerate_mis_overflow_flag():
    spec = parse_qdimacs(identity_qdimacs(10))
    g = build_conflict_graph(spec)
    enum = enumerate_mis(g, 100)
    assert enum.overflow
    assert len(enum.sets) == 100


def test_mis_matches_subset_enumeration_oracle():
    rng = random.Random(43)
    for _ in range(60):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=10))
        g = build_conflict_graph(spec)
        got = [set(s) for s in enumerate_mis(g, 10000).sets]
        expected = [
            set(s)
            for s in oracles.subset_enum_mfs(
                [spec.x_part(i).lits for i in spec.indices]
            )
        ]
        assert got == expected


def test_extension_is_maximal_and_independent():
    rng = random.Random(47)
    for _ in range(60):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=12))
        g = build_conflict_graph(spec)
        mis = extend_to_mis(g, frozenset())
        for v in mis:
            assert not (g.adj[v] & mis)
        for v in range(1, g.n + 1):
            assert v in mis or (g.adj[v] & mis)


def test_analyze_structure_example1(example1):
    g = build_conflict_graph(example1)
    report = analyze_structure(g, 100)
    assert report.count == 3
    assert report.chordal is True
    assert report.budget == 100


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
    # x-parts never conflict: the consensus graph is one 300-vertex clique
    k = 300
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
        assert not enum.overflow
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
        expected = not oracles.has_chordless_cycle(g.adj, n)
        assert report.chordal == expected


def test_graph_is_symmetric_irreflexive():
    rng = random.Random(61)
    for _ in range(30):
        spec = parse_qdimacs(random_spec_text(rng))
        g = build_conflict_graph(spec)
        for v in range(1, g.n + 1):
            assert v not in g.adj[v]
            for u in g.adj[v]:
                assert v in g.adj[u]
