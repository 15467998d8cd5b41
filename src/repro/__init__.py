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
    Relation,
    Schema,
    Tuple,
    Update,
    UpdateBatch,
    detect_violations,
)
from repro.indexes import HEVPlanner, naive_chain_plan
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
    TPCHGenerator,
    generate_cfds,
    generate_updates,
)
from repro.engine import (
    DEFAULT_REGISTRY,
    DetectionReport,
    DetectionSession,
    SessionError,
    StrategyRegistry,
    register_detector,
    register_partitioner,
    session,
)
from repro.similarity import IncrementalMDDetector, detect_md_violations
from repro.planner import RebalancePolicy
from repro.service import DetectionService, TenantQuota
from repro.obs import Observability

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "Schema",
    "Tuple",
    "Relation",
    "CFD",
    "detect_violations",
    "Update",
    "UpdateBatch",
    # indexes
    "HEVPlanner",
    "naive_chain_plan",
    # detectors
    "VerticalIncrementalDetector",
    "VerticalBatchDetector",
    "ImprovedVerticalBatchDetector",
    "HorizontalIncrementalDetector",
    "HorizontalBatchDetector",
    "ImprovedHorizontalBatchDetector",
    "IncrementalMDDetector",
    "detect_md_violations",
    # workloads
    "EmpWorkload",
    "TPCHGenerator",
    "DBLPGenerator",
    "generate_cfds",
    "generate_updates",
    # detection engine
    "session",
    "SessionError",
    "DetectionSession",
    "DetectionReport",
    "StrategyRegistry",
    "DEFAULT_REGISTRY",
    "register_detector",
    "register_partitioner",
    "RebalancePolicy",
    # multi-tenant detection service
    "DetectionService",
    "TenantQuota",
    # observability
    "Observability",
]
