"""Computations on weighted delta graphs.

A delta graph is a locally finite directed multigraph with a basepoint, a
conjugation involution on edges (paired weights multiply to 1), and outgoing
weight sum delta at every vertex.  The package provides exact monomial
weight arithmetic, validation, tracial covers, group-action quotients and
recovery, the loop algebra with its cup/cap calculus and modular spectrum,
and automorphism weight invariants, plus a file format, DOT export and a CLI.
"""

from .actions import (
    ActionError,
    ActionGenerator,
    ActionReport,
    GraphAction,
    Orbit,
    check_action,
    orbit_partition,
    quotient,
    recover,
)
from .builders import (
    GraphSpec,
    build,
    cayley,
    chain_shift_action,
    cycle,
    deformed_chain,
    double_chain,
    grid,
    lattice_shift_action,
    single_chain,
    spec_from_text,
)
from .cover import (
    CoverResult,
    CoverVertex,
    LoopLiftError,
    LoopWeightGroup,
    lift_loop,
    loop_weight_group,
    tracial_cover,
)
from .graph import (
    DeltaGraph,
    Edge,
    GraphConstructionError,
    NonTracialGraphError,
    Path,
    TruncatedGraph,
    ValidationReport,
    WeightingResult,
    ball,
    enumerate_loops,
    loop_weight_counts,
    validate,
    vertex_weighting,
)
from .invariants import (
    InvariantReport,
    PartialAutomorphism,
    partial_automorphisms,
    t0,
)
from .io import (
    GraphDocument,
    GraphFormatError,
    export_dot,
    parse_graph,
    serialize_graph,
)
from .isomorphism import interior_restriction, iso_check
from .loop_algebra import (
    Coefficient,
    LoopVector,
    ModularSpectrum,
    apply_modular,
    basis,
    cap,
    concat,
    cup,
    inner,
    loop_vector,
    modular_spectrum,
    relations,
    star,
    zero_vector,
)
from .weights import (
    ContextMismatchError,
    GeneratorContext,
    Weight,
    WeightFormatError,
    parse_weight,
    reduce_generators,
)

__version__ = "0.1.0"
