"""Boolean functional synthesis from 2QBF CNF specifications.

Splits every clause of a relational CNF specification into its input and
output parts, analyzes the two sides through maximal falsifiable and
maximal satisfiable clause subsets, and produces a verified Skolem function
represented as a decision list.
"""

from .decomp import (
    DecomposedPair,
    GoodDecompositionReport,
    check_good_decomposition,
    cnf_decompose,
)
from .dlist import (
    Decision,
    DecisionList,
    build_decision_list,
    combine,
    evaluate,
    evaluate_combined,
    parse,
    parse_many,
    serialize,
)
from .errors import LimitError, ParseError
from .graph import (
    CliqueCountReport,
    ConflictGraph,
    MisEnumeration,
    analyze_structure,
    build_conflict_graph,
    conflict_masks,
    enumerate_mis,
    extend_to_mis,
)
from .maxsat import (
    MaxSatResult,
    MaxSatSession,
    TableSession,
    new_session,
    solve_partial_maxsat,
)
from .model import (
    Assignment,
    Specification,
    fals,
    holds,
    parse_qdimacs,
)
from .sat import SatResult, Solver
from .synth import (
    CoverageQueryState,
    Stats,
    SynthesisOutcome,
    back_and_forth,
    covering_mss,
    next_uncovered_mfs,
    output_session,
    partition_by_output_variables,
    record_mss,
    synth_by_mfs_enumeration,
    synth_by_mss_enumeration,
)
from .verify import VerificationReport, verify_decision_list

__version__ = "0.1.0"
