"""The pluggable strategy registry.

Detection strategies and partition schemes are addressable by name, so
sessions can be configured with strings (``strategy("incVer")``,
``partition("hash", n_fragments=8)``) and third-party strategies plug in
through the same door as the built-ins:

``register_detector("myVer", MyStrategy, partitioning="vertical",
mode="incremental")`` makes ``strategy("myVer")`` work everywhere.

A detector entry records which *partitioning* it operates on
(``vertical`` / ``horizontal`` / ``single``), its *mode* (``incremental``,
``batch``, ``improved-batch``, ...) and which *rule* language it checks
(``cfd`` or ``md``).  The session builder uses those coordinates to pick
a strategy from a generic mode name, and to reject configurations that
cannot work (e.g. an incremental CFD strategy on an unpartitioned
relation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: ``"any"`` marks a strategy that adapts to whatever partitioning (or
#: rule language) the session is built with — e.g. ``auto``.
PARTITIONINGS = ("vertical", "horizontal", "single", "any")
RULE_KINDS = ("cfd", "md", "any")


class RegistryError(LookupError):
    """Raised on unknown names, duplicate registrations or ambiguous lookups."""


@dataclass(frozen=True)
class DetectorEntry:
    """One registered detection strategy."""

    name: str
    factory: Callable[..., Any]
    partitioning: str
    mode: str
    rules: str
    description: str = ""

    def create(self, **options: Any) -> Any:
        """Instantiate the strategy with per-session options."""
        return self.factory(**options)


@dataclass(frozen=True)
class PartitionerEntry:
    """One registered partition scheme builder (``factory(schema, **opts)``)."""

    name: str
    factory: Callable[..., Any]
    description: str = ""


class StrategyRegistry:
    """Named detection strategies and partition schemes."""

    def __init__(self) -> None:
        self._detectors: dict[str, DetectorEntry] = {}
        self._partitioners: dict[str, PartitionerEntry] = {}

    # -- detectors -------------------------------------------------------------------

    def register_detector(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        partitioning: str,
        mode: str,
        rules: str = "cfd",
        description: str = "",
        replace: bool = False,
    ) -> DetectorEntry:
        """Register a detection strategy under ``name``.

        ``factory(**options)`` must return an object satisfying the
        :class:`~repro.engine.protocol.Detector` protocol.  Registering
        an existing name raises :class:`RegistryError` unless
        ``replace=True``.
        """
        if partitioning not in PARTITIONINGS:
            raise RegistryError(
                f"unknown partitioning {partitioning!r}; expected one of {PARTITIONINGS}"
            )
        if rules not in RULE_KINDS:
            raise RegistryError(
                f"unknown rule kind {rules!r}; expected one of {RULE_KINDS}"
            )
        if name in self._detectors and not replace:
            raise RegistryError(
                f"detector strategy {name!r} is already registered; "
                f"pass replace=True to override"
            )
        entry = DetectorEntry(name, factory, partitioning, mode, rules, description)
        self._detectors[name] = entry
        return entry

    def has_detector(self, name: str) -> bool:
        return name in self._detectors

    def detector(self, name: str) -> DetectorEntry:
        try:
            return self._detectors[name]
        except KeyError:
            known = ", ".join(sorted(self._detectors)) or "(none)"
            raise RegistryError(
                f"no detector strategy named {name!r}; registered: {known}"
            ) from None

    def detectors(self) -> list[DetectorEntry]:
        return [self._detectors[name] for name in sorted(self._detectors)]

    def detector_names(self) -> list[str]:
        return sorted(self._detectors)

    def resolve_detector(
        self, partitioning: str, mode: str, rules: str = "cfd"
    ) -> DetectorEntry:
        """The unique strategy matching (partitioning, mode, rule kind)."""
        matches = [
            entry
            for entry in self._detectors.values()
            if entry.partitioning in (partitioning, "any")
            and entry.mode == mode
            and entry.rules in (rules, "any")
        ]
        if not matches:
            combos = sorted(
                f"{e.mode!r} ({e.name})"
                for e in self._detectors.values()
                if e.partitioning in (partitioning, "any")
                and e.rules in (rules, "any")
            )
            available = ", ".join(combos) or "(none)"
            raise RegistryError(
                f"no {rules} strategy with mode {mode!r} for {partitioning!r} "
                f"data; available modes: {available}"
            )
        if len(matches) > 1:
            names = ", ".join(sorted(e.name for e in matches))
            raise RegistryError(
                f"mode {mode!r} for {partitioning!r} data is ambiguous between "
                f"{names}; pick one by name"
            )
        return matches[0]

    # -- partitioners ------------------------------------------------------------------

    def register_partitioner(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        description: str = "",
        replace: bool = False,
    ) -> PartitionerEntry:
        """Register a partition scheme builder ``factory(schema, **options)``."""
        if name in self._partitioners and not replace:
            raise RegistryError(
                f"partitioner {name!r} is already registered; "
                f"pass replace=True to override"
            )
        entry = PartitionerEntry(name, factory, description)
        self._partitioners[name] = entry
        return entry

    def has_partitioner(self, name: str) -> bool:
        return name in self._partitioners

    def partitioner(self, name: str) -> PartitionerEntry:
        try:
            return self._partitioners[name]
        except KeyError:
            known = ", ".join(sorted(self._partitioners)) or "(none)"
            raise RegistryError(
                f"no partitioner named {name!r}; registered: {known}"
            ) from None


#: The registry the package-level helpers and default sessions use.
DEFAULT_REGISTRY = StrategyRegistry()


def register_detector(
    name: str,
    factory: Callable[..., Any],
    *,
    partitioning: str,
    mode: str,
    rules: str = "cfd",
    description: str = "",
    replace: bool = False,
) -> DetectorEntry:
    """Register a detection strategy in the default registry."""
    return DEFAULT_REGISTRY.register_detector(
        name,
        factory,
        partitioning=partitioning,
        mode=mode,
        rules=rules,
        description=description,
        replace=replace,
    )


def register_partitioner(
    name: str,
    factory: Callable[..., Any],
    *,
    description: str = "",
    replace: bool = False,
) -> PartitionerEntry:
    """Register a partition scheme builder in the default registry."""
    return DEFAULT_REGISTRY.register_partitioner(
        name, factory, description=description, replace=replace
    )
