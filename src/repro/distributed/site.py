"""Sites of the simulated cluster.

A :class:`Site` owns one fragment of the database plus whatever local
state a detector needs there (HEV/IDX indices for vertical detection,
equivalence-class indices for horizontal detection).  Detectors are free
to attach state under string keys via :meth:`Site.state`; the site only
guarantees that the state is local — anything that must travel to
another site has to go through the :class:`~repro.distributed.network.Network`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.relation import Relation


class Site:
    """One node of the simulated cluster holding a database fragment."""

    def __init__(self, site_id: int, fragment: Relation, name: str | None = None):
        self._site_id = site_id
        self._fragment = fragment
        self._name = name or f"S{site_id + 1}"
        self._state: dict[str, Any] = {}

    @property
    def site_id(self) -> int:
        return self._site_id

    @property
    def name(self) -> str:
        return self._name

    @property
    def fragment(self) -> Relation:
        """The fragment of the database stored at this site."""
        return self._fragment

    def replace_fragment(self, fragment: Relation) -> None:
        """Swap in a new fragment (used when re-partitioning between experiments)."""
        self._fragment = fragment
        self._state.clear()

    def state(self, key: str, factory: Callable[[], Any] | None = None) -> Any:
        """Fetch per-site detector state, creating it with ``factory`` if absent."""
        if key not in self._state:
            if factory is None:
                raise KeyError(f"site {self._name} has no state {key!r}")
            self._state[key] = factory()
        return self._state[key]

    def set_state(self, key: str, value: Any) -> None:
        self._state[key] = value

    def has_state(self, key: str) -> bool:
        return key in self._state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site({self._name}, {len(self._fragment)} tuples)"
