"""Partition a rule set into fused groups keyed by LHS attribute list.

Two CFDs ``(X -> B, tp)`` and ``(X -> B', tp')`` over the same ``X``
group their tuples identically: the LHS equivalence classes of the
relation depend only on ``X``, never on the pattern or the RHS.  A
:class:`FusedGroup` collects every rule over one ``X`` so the backends
can compute the grouping once and evaluate all member rules against it
— per-member pattern constants become cheap key-acceptance tests, and
per-member RHS classes share the group's verdict work.

Grouping preserves the caller's rule order twice over: groups appear in
first-seen LHS order and members keep their relative order, so results
assembled per group re-serialize into exactly the per-rule order every
coordinator and violation set expects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.cfd import CFD


@dataclass(frozen=True)
class FusedGroup:
    """All rules of one session sharing the LHS attribute list ``lhs``.

    ``indexes`` maps each member back to its position in the original
    rule list, so fused per-group results can be scattered into the
    per-rule order the callers expect.
    """

    lhs: tuple[str, ...]
    members: tuple[CFD, ...]
    indexes: tuple[int, ...]
    constant_members: tuple[CFD, ...] = field(init=False)
    variable_members: tuple[CFD, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "constant_members",
            tuple(cfd for cfd in self.members if cfd.is_constant()),
        )
        object.__setattr__(
            self,
            "variable_members",
            tuple(cfd for cfd in self.members if not cfd.is_constant()),
        )

    def __len__(self) -> int:
        return len(self.members)

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict rendering for ``session.explain()`` reports."""
        return {
            "lhs": list(self.lhs),
            "rules": [cfd.name for cfd in self.members],
            "n_constant": len(self.constant_members),
            "n_variable": len(self.variable_members),
        }


def compile_rule_set(cfds: Iterable[CFD]) -> tuple[FusedGroup, ...]:
    """Fused groups of ``cfds``, keyed by LHS attribute list.

    Groups come out in first-seen LHS order and members in input order,
    so iterating groups and scattering their results through
    ``FusedGroup.indexes`` reproduces the per-rule iteration exactly.
    """
    by_key: dict[Any, tuple[list[CFD], list[int]]] = {}
    for i, cfd in enumerate(cfds):
        members, indexes = by_key.setdefault(cfd.lhs, ([], []))
        members.append(cfd)
        indexes.append(i)
    return tuple(
        FusedGroup(members[0].lhs, tuple(members), tuple(indexes))
        for members, indexes in by_key.values()
    )


def n_fused_groups(rules: Sequence[Any]) -> int:
    """How many shared-scan groups a rule set compiles to.

    Rules that are not CFDs (matching dependencies) never fuse: each
    counts as its own group.
    """
    cfds = [rule for rule in rules if isinstance(rule, CFD)]
    return len(compile_rule_set(cfds)) + len(rules) - len(cfds)
