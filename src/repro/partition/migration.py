"""Migration plans: the minimal delta between two deployments.

A :class:`MigrationPlan` describes how to get from the *current*
partition scheme to a *target* scheme without re-fragmenting from zero:
which sites appear or retire, and — as far as the schemes themselves can
tell — what moves.  Hash-family horizontal schemes move only the
reassigned buckets; vertical schemes move only the relocated attribute
columns.  The plan is computed purely from the two partitioners; the
data-dependent application (which tuples actually cross the wire, and
what that costs on the :class:`~repro.distributed.network.Network`
ledger) happens in :meth:`repro.distributed.cluster.Cluster.apply_migration`,
which returns a :class:`MigrationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


class MigrationError(ValueError):
    """Raised when a migration plan cannot be computed or applied."""


@dataclass(frozen=True)
class BucketMove:
    """One hash bucket changing sites (horizontal hash-family schemes)."""

    bucket: int
    from_site: int
    to_site: int


@dataclass(frozen=True)
class ColumnMove:
    """One attribute column gaining a new home site (vertical schemes)."""

    attribute: str
    from_site: int
    to_site: int


@dataclass(frozen=True)
class MigrationPlan:
    """The scheme-level delta from ``source`` to ``target``.

    ``bucket_moves`` is populated for hash-family horizontal replans
    (the only moves such a migration performs); predicate-level replans
    (split/merge, explicit schemes) leave it empty and let the data
    decide — every tuple whose target route differs from its current
    site moves, nothing else.  ``column_moves`` lists the attribute
    relocations of a vertical replan.
    """

    kind: str  # "horizontal" | "vertical"
    source: Any
    target: Any
    new_sites: tuple[int, ...] = ()
    retired_sites: tuple[int, ...] = ()
    bucket_moves: tuple[BucketMove, ...] = ()
    column_moves: tuple[ColumnMove, ...] = ()
    reason: str = "scale"

    def is_noop(self) -> bool:
        """Whether applying the plan provably moves nothing.

        True only when the plan keeps every site and its move list —
        authoritative for vertical plans and for hash-family horizontal
        pairs — is empty.  Opaque predicate targets are never claimed to
        be no-ops: what moves there is decided by the data.
        """
        if self.new_sites or self.retired_sites or self.bucket_moves or self.column_moves:
            return False
        if self.kind == "vertical":
            return True
        mine = self.source.hash_family()
        theirs = self.target.hash_family()
        return mine is not None and theirs is not None and mine[0] == theirs[0]

    def summary(self) -> str:
        parts = [
            f"{self.kind} {self.reason}: "
            f"{len(self.source.sites())} -> {len(self.target.sites())} sites"
        ]
        if self.new_sites:
            parts.append(f"new {list(self.new_sites)}")
        if self.retired_sites:
            parts.append(f"retired {list(self.retired_sites)}")
        if self.bucket_moves:
            parts.append(f"{len(self.bucket_moves)} bucket move(s)")
        if self.column_moves:
            parts.append(f"{len(self.column_moves)} column move(s)")
        return ", ".join(parts)


@dataclass(frozen=True)
class MigrationResult:
    """What one applied migration actually moved and charged.

    ``moved`` maps ``(from_site, to_site)`` to what shipped along that
    edge — whole tuples for horizontal migrations, the tids whose
    columns shipped for vertical ones.  Detector re-homing
    hooks consume it to relocate their per-site index slices tuple by
    tuple instead of rebuilding.
    """

    plan: MigrationPlan
    sites_before: tuple[int, ...]
    sites_after: tuple[int, ...]
    tuples_moved: int = 0
    bytes_shipped: int = 0
    messages: int = 0
    moved: Mapping[tuple[int, int], tuple[Any, ...]] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.plan.kind

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "reason": self.plan.reason,
            "sites_before": list(self.sites_before),
            "sites_after": list(self.sites_after),
            "tuples_moved": self.tuples_moved,
            "bytes_shipped": self.bytes_shipped,
            "messages": self.messages,
        }
