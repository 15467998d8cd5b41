"""repro — Incremental detection of CFD violations in distributed data.

A from-scratch Python reproduction of Fan, Li, Tang and Yu,
"Incremental Detection of Inconsistencies in Distributed Data"
(ICDE 2012 / IEEE TKDE 26(6), 2014).

The package provides:

* a relational core with conditional functional dependencies (CFDs),
  violation semantics and a centralized reference detector;
* vertical and horizontal fragmentation with a simulated multi-site
  cluster that accounts for every byte and every eqid shipped;
* the incremental detectors ``incVer`` (vertical) and ``incHor``
  (horizontal) with cost ``O(|delta-D| + |delta-V|)``, their batch
  counterparts ``batVer`` / ``batHor`` and the improved baselines of the
  paper's Exp-10;
* the ``optVer`` HEV-placement heuristic minimising eqid shipment, which
  places the HEVs of every ``incVer`` session;
* workload generators (TPCH-like, DBLP-like, the EMP running example)
  and the experiment harness that regenerates every figure and table of
  the paper's evaluation section;
* the detection engine: :func:`repro.session` builds a fluent
  :class:`DetectionSession` over any of the above through a pluggable
  strategy registry (``incVer``, ``batVer``, ``incHor``, ``batHor``,
  improved baselines, centralized and MD detection), with
  ``apply``/``stream`` for updates and structured ``report()`` output.
"""

from repro.core import (
    CFD,
    Attribute,
    CentralizedDetector,
    PatternTuple,
    Relation,
    Schema,
    Tableau,
    Tuple,
    UNNAMED,
    Update,
    UpdateBatch,
    UpdateKind,
    ViolationDelta,
    ViolationSet,
    detect_violations,
    merge_into_tableaux,
)
from repro.distributed import Cluster, Network, NetworkStats, Site
from repro.columnar import ColumnStore, ValueDictionary, column_store_of
from repro.indexes import CFDIndex, EqidRegistry, HEVPlan, HEVPlanner, naive_chain_plan
from repro.partition import (
    AttributeEquals,
    AttributeIn,
    AttributeRange,
    BucketMap,
    HashBucket,
    MigrationPlan,
    MigrationResult,
    HorizontalFragment,
    HorizontalPartitioner,
    ReplicationScheme,
    VerticalFragment,
    VerticalPartitioner,
)
from repro.horizontal import (
    HorizontalBatchDetector,
    HorizontalIncrementalDetector,
    ImprovedHorizontalBatchDetector,
)
from repro.vertical import (
    ImprovedVerticalBatchDetector,
    VerticalBatchDetector,
    VerticalIncrementalDetector,
)
from repro.workloads import (
    DBLPGenerator,
    EmpWorkload,
    FDSpec,
    TPCHGenerator,
    generate_cfds,
    generate_updates,
)
from repro.engine import (
    DEFAULT_REGISTRY,
    AdaptiveStrategy,
    DetectionReport,
    DetectionSession,
    Detector,
    RegistryError,
    SessionBuilder,
    SessionError,
    SiteCost,
    StrategyRegistry,
    TopologyEvent,
    register_detector,
    register_partitioner,
    session,
)
from repro.similarity import (
    EditDistanceSimilarity,
    ExactMatch,
    IncrementalMDDetector,
    JaccardSimilarity,
    MatchingDependency,
    MDDetector,
    NormalizedStringMatch,
    NumericTolerance,
    detect_md_violations,
)
from repro.planner import (
    AdaptivePlanner,
    CostVector,
    Estimate,
    PlanDecision,
    RebalancePolicy,
    hev_plan_cost,
)
from repro.stats import (
    EWMA,
    BatchProfile,
    SiteLoad,
    SiteLoadTracker,
    RelationStats,
    RuleProfile,
    StatsCatalog,
    StrategyFeedback,
)
from repro.service import (
    DetectionService,
    ServiceError,
    ServiceMetrics,
    SubmitResult,
    TenantFailed,
    TenantMetrics,
    TenantQuota,
)
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    Span,
    Tracer,
)
from repro.runtime import (
    EXECUTOR_BACKENDS,
    Executor,
    ExecutorError,
    ProcessExecutor,
    SchedulerTimings,
    SerialExecutor,
    SiteScheduler,
    SiteTask,
    TaskResult,
    ThreadExecutor,
    make_executor,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "Attribute",
    "Schema",
    "Tuple",
    "Relation",
    "CFD",
    "PatternTuple",
    "UNNAMED",
    "Tableau",
    "merge_into_tableaux",
    "ViolationSet",
    "ViolationDelta",
    "CentralizedDetector",
    "detect_violations",
    "Update",
    "UpdateBatch",
    "UpdateKind",
    # distribution
    "Cluster",
    "Network",
    "NetworkStats",
    "Site",
    # columnar storage backend
    "ColumnStore",
    "ValueDictionary",
    "column_store_of",
    # partitioning
    "VerticalFragment",
    "VerticalPartitioner",
    "HorizontalFragment",
    "HorizontalPartitioner",
    "ReplicationScheme",
    "AttributeEquals",
    "AttributeIn",
    "AttributeRange",
    "HashBucket",
    # indexes
    "EqidRegistry",
    "CFDIndex",
    "HEVPlan",
    "HEVPlanner",
    "naive_chain_plan",
    # detectors
    "VerticalIncrementalDetector",
    "VerticalBatchDetector",
    "ImprovedVerticalBatchDetector",
    "HorizontalIncrementalDetector",
    "HorizontalBatchDetector",
    "ImprovedHorizontalBatchDetector",
    # workloads
    "EmpWorkload",
    "TPCHGenerator",
    "DBLPGenerator",
    "FDSpec",
    "generate_cfds",
    "generate_updates",
    # cost-based planner and statistics
    "AdaptivePlanner",
    "AdaptiveStrategy",
    "BatchProfile",
    "CostVector",
    "EWMA",
    "Estimate",
    "PlanDecision",
    "RelationStats",
    "RuleProfile",
    "StatsCatalog",
    "StrategyFeedback",
    "SiteLoad",
    "SiteLoadTracker",
    "RebalancePolicy",
    "BucketMap",
    "MigrationPlan",
    "MigrationResult",
    "hev_plan_cost",
    # detection engine
    "session",
    "SessionBuilder",
    "SessionError",
    "DetectionSession",
    "DetectionReport",
    "Detector",
    "SiteCost",
    "TopologyEvent",
    "StrategyRegistry",
    "RegistryError",
    "DEFAULT_REGISTRY",
    "register_detector",
    "register_partitioner",
    # multi-tenant detection service
    "DetectionService",
    "ServiceError",
    "ServiceMetrics",
    "SubmitResult",
    "TenantFailed",
    "TenantMetrics",
    "TenantQuota",
    # observability: tracing, metrics, profiling hooks
    "Observability",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    # parallel execution runtime
    "EXECUTOR_BACKENDS",
    "Executor",
    "ExecutorError",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SiteScheduler",
    "SiteTask",
    "TaskResult",
    "SchedulerTimings",
    "make_executor",
    # similarity extension (matching dependencies)
    "MatchingDependency",
    "MDDetector",
    "IncrementalMDDetector",
    "detect_md_violations",
    "ExactMatch",
    "NormalizedStringMatch",
    "NumericTolerance",
    "JaccardSimilarity",
    "EditDistanceSimilarity",
]
