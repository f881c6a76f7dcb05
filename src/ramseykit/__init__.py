"""Canonical Ramsey patterns in random graphs, made executable.

Ordered graphs with seeded G(n,p) sampling, canonical-pattern detection in
edge colourings, the constructive Erdős–Rado procedure, clean subgraphs,
cut-norm and homomorphism-density checks, and a reproducible Monte Carlo
threshold harness.
"""

from .adversaries import AdversarySpec, generate_colouring, max_colour_multiplicity, verify_properness
from .colouring import (
    STRICT_TAGS,
    CanonicalWitness,
    EdgeColouring,
    NotAClique,
    PatternTag,
    WeightExceedsCap,
    bounded_side_split,
    cherry_density,
    classify_copy,
    colour_degree,
    directed_colour_degree,
    greedy_colour_partition,
    is_delta_p_bounded,
    nonrainbow_cherry_count,
    nonrainbow_matching_count,
    pair_density,
    read_colouring,
    unbounded_condition_holds,
    unbounded_vertices,
    witness_for,
    write_colouring,
)
from .cutnorm import (
    EXACT_CUTNORM_GUARD,
    HypothesisViolated,
    PatternGraph,
    RangeViolation,
    TooFewVertices,
    TooLarge,
    WeightedGraph,
    counting_lemma_check,
    cutnorm_exact,
    cutnorm_heuristic,
    degree_lemma_check,
    eval_e,
    hom_density,
    is_strictly_balanced,
    read_weighted,
    sample_graph_from_weights,
    two_density,
    write_weighted,
)
from .erdos_rado import (
    BoundedSubsetSignal,
    EmptyFinalSet,
    ErConstants,
    ErResult,
    NeighbourhoodSequence,
    NoWitness,
    NotBounded,
    NotComplete,
    SequenceStep,
    SequenceTooShort,
    build_sequence,
    er_find,
    extract_canonical,
    rainbow_by_sampling,
)
from .graphs import (
    GnpSample,
    OrderedGraph,
    clean_subgraph,
    count_cliques,
    degree_into,
    edge_count_between,
    enumerate_cliques,
    gnp_generate,
    read_graph,
    write_graph,
)
from .harness import (
    CellSummary,
    CorollaryReport,
    ExperimentConfig,
    InvariantBreach,
    SweepResult,
    TrialRecord,
    derive_seed,
    run_sweep,
    verify_corollary_mode,
    wilson_interval,
    write_json,
    write_records_csv,
    write_summary_csv,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    ArrowOutcome,
    ArrowQuery,
    ExhaustiveArrowOutcome,
    ResourceLimitError,
    SearchOutcome,
    TooManyEdges,
    arrows_mono,
    canonical_arrow_exhaustive,
    find_canonical_copy,
    find_rainbow_copy,
    restricted_growth_strings,
)

__version__ = "0.2.0"
