"""The paper's contribution: chain-based query-update independence analysis."""

from .baseline import (
    BaselineReport,
    TypeAnalysis,
    baseline_analyze,
    baseline_is_independent,
)
from .cdag import (
    ChainExplosion,
    Component,
    Node,
    Universe,
    components_conflict,
    conflict_witness,
    make_component,
    singleton_component,
)
from .engine import (
    AnalysisEngine,
    EngineStats,
    MatrixResult,
    PairVerdict,
    clear_shared_engines,
    engine_for,
    normalize_source,
    schema_digest,
)
from .explain import explain, explain_multiplicity
from .project import project_for_query, projection_locations
from .dynamic import (
    DynamicVerdict,
    differs_on,
    dynamic_independent,
    dynamic_independent_generated,
)
from .independence import (
    Conflict,
    IndependenceReport,
    analyze,
    build_universe,
    chains_of,
    check_conflicts,
    depth_cap_for,
    is_independent,
)
from .infer_query import (
    Components,
    Gamma,
    InferenceError,
    QueryChains,
    QueryInference,
    gamma_bind,
    gamma_get,
)
from .infer_update import UpdateInference
from .kbound import (
    multiplicity,
    pair_multiplicity,
    recursive_steps,
    tag_frequency,
)

__all__ = [
    "BaselineReport",
    "TypeAnalysis",
    "baseline_analyze",
    "baseline_is_independent",
    "ChainExplosion",
    "Component",
    "Node",
    "Universe",
    "components_conflict",
    "conflict_witness",
    "make_component",
    "singleton_component",
    "explain",
    "explain_multiplicity",
    "project_for_query",
    "projection_locations",
    "DynamicVerdict",
    "differs_on",
    "dynamic_independent",
    "dynamic_independent_generated",
    "AnalysisEngine",
    "EngineStats",
    "MatrixResult",
    "PairVerdict",
    "clear_shared_engines",
    "engine_for",
    "normalize_source",
    "schema_digest",
    "Conflict",
    "IndependenceReport",
    "analyze",
    "build_universe",
    "chains_of",
    "check_conflicts",
    "depth_cap_for",
    "is_independent",
    "Components",
    "Gamma",
    "InferenceError",
    "QueryChains",
    "QueryInference",
    "gamma_bind",
    "gamma_get",
    "UpdateInference",
    "multiplicity",
    "pair_multiplicity",
    "recursive_steps",
    "tag_frequency",
]
