"""The detection engine: one API over every detector in the repository.

* :func:`session` — fluent builder; pick partitioning, rules and
  strategy by name, get a :class:`DetectionSession` with ``apply``,
  ``stream`` and ``report``.
* :class:`StrategyRegistry` / :func:`register_detector` /
  :func:`register_partitioner` — the pluggable strategy registry; the
  paper's algorithms are pre-registered as ``incVer`` (which runs the
  ``optVer`` HEV plan), ``batVer``, ``ibatVer``, ``incHor``, ``batHor``,
  ``ibatHor``, plus ``centralized``, ``md`` and ``incMD`` — one
  :class:`StrategyRow` each in :data:`STRATEGY_TABLE`, all run by the one
  :class:`TableStrategy` adapter — and ``auto`` (:class:`AdaptiveStrategy`).
  Storage backends register in one place,
  :func:`repro.core.storage.register_storage_backend`.
* :class:`Detector` — the protocol every strategy satisfies.
"""

from repro.engine.adaptive import AdaptiveStrategy, AdaptiveStrategyError
from repro.engine.adapters import (
    STRATEGY_TABLE,
    StrategyRow,
    StrategyStateError,
    TableStrategy,
    register_builtin_strategies,
)
from repro.engine.protocol import Detector, SingleSite, StrategyState
from repro.engine.registry import (
    DEFAULT_REGISTRY,
    DetectorEntry,
    PartitionerEntry,
    RegistryError,
    StrategyRegistry,
    register_detector,
    register_partitioner,
)
from repro.engine.report import DetectionReport, SiteCost, SiteTiming, TopologyEvent
from repro.engine.session import DetectionSession, SessionBuilder, SessionError, session

register_builtin_strategies(DEFAULT_REGISTRY)

__all__ = [
    "DEFAULT_REGISTRY",
    "STRATEGY_TABLE",
    "AdaptiveStrategy",
    "AdaptiveStrategyError",
    "DetectionReport",
    "DetectionSession",
    "Detector",
    "DetectorEntry",
    "PartitionerEntry",
    "RegistryError",
    "SessionBuilder",
    "SessionError",
    "SingleSite",
    "SiteCost",
    "TopologyEvent",
    "SiteTiming",
    "StrategyRegistry",
    "StrategyRow",
    "StrategyState",
    "StrategyStateError",
    "TableStrategy",
    "register_builtin_strategies",
    "register_detector",
    "register_partitioner",
    "session",
]
