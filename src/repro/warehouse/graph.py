"""The schema graph and join-path enumeration.

Nodes are tables; every foreign key contributes one edge.  Edges keep their
identity (the FK name), because OLAP schemas contain *parallel* edges — the
paper's EBiz example joins ``ACCOUNT`` to ``TRANS`` on both ``BuyerKey``
and ``SellerKey``, and those are semantically different join paths
("purchases made by ..." vs "sales made by ...").

A :class:`JoinPath` is an oriented sequence of :class:`PathStep`; each step
records the FK and the direction of travel.  Star-net generation enumerates
all simple paths from a hit table to the fact table (Algorithm 1, line 6);
subspace evaluation resolves the hit attribute along the same steps,
reversed, to the fact grain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..relational.catalog import Database, ForeignKey


@dataclass(frozen=True)
class PathStep:
    """One traversal step along a foreign key.

    ``towards_parent`` is True when the step moves from the FK's child table
    to its parent table (e.g. fact → dimension), False for the reverse.
    """

    fk: ForeignKey
    towards_parent: bool

    @property
    def source(self) -> str:
        """Table this step starts from."""
        return self.fk.child_table if self.towards_parent else self.fk.parent_table

    @property
    def target(self) -> str:
        """Table this step arrives at."""
        return self.fk.parent_table if self.towards_parent else self.fk.child_table

    @property
    def source_column(self) -> str:
        """Join column on the source side."""
        return self.fk.child_column if self.towards_parent else self.fk.parent_column

    @property
    def target_column(self) -> str:
        """Join column on the target side."""
        return self.fk.parent_column if self.towards_parent else self.fk.child_column

    def reversed(self) -> "PathStep":
        """The same edge walked in the opposite direction."""
        return PathStep(self.fk, not self.towards_parent)

    def __str__(self) -> str:
        arrow = "->" if self.towards_parent else "<-"
        return f"{self.source} {arrow}[{self.fk.name}] {self.target}"


@dataclass(frozen=True)
class JoinPath:
    """An oriented simple path through the schema graph."""

    steps: tuple[PathStep, ...]
    fk_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    """The FK names traversed, in order (computed once: every star-net
    dedup key and derived-vector key reads it)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fk_names",
                           tuple(s.fk.name for s in self.steps))

    @property
    def source(self) -> str:
        """First table of the path."""
        return self.steps[0].source

    @property
    def target(self) -> str:
        """Last table of the path."""
        return self.steps[-1].target

    @property
    def tables(self) -> tuple[str, ...]:
        """All tables visited, in order (length = len(steps) + 1)."""
        return (self.steps[0].source,) + tuple(s.target for s in self.steps)

    def reversed(self) -> "JoinPath":
        """The same path walked target → source."""
        return JoinPath(tuple(s.reversed() for s in reversed(self.steps)))

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        if not self.steps:
            return "(empty path)"
        parts = [self.steps[0].source]
        for step in self.steps:
            arrow = "->" if step.towards_parent else "<-"
            parts.append(f" {arrow}[{step.fk.name}] {step.target}")
        return "".join(parts)


EMPTY_PATH = JoinPath(())
"""The zero-step path (hit table == fact table)."""


def path_from_fk_names(database: Database, start_table: str,
                       fk_names: Sequence[str]) -> JoinPath:
    """Build an explicit child→parent path by naming the FKs to follow.

    Schema builders use this to pin down canonical group-by paths without
    relying on search: each named FK must have its child table equal to the
    current position, and the walk moves to the FK's parent.
    """
    by_name = {fk.name: fk for fk in database.foreign_keys}
    steps: list[PathStep] = []
    position = start_table
    for name in fk_names:
        if name not in by_name:
            raise KeyError(f"unknown foreign key {name!r}")
        fk = by_name[name]
        if fk.child_table != position:
            raise ValueError(
                f"FK {name!r} starts at {fk.child_table!r}, "
                f"but the walk is at {position!r}"
            )
        steps.append(PathStep(fk, towards_parent=True))
        position = fk.parent_table
    return JoinPath(tuple(steps))


class SchemaGraph:
    """Adjacency view of a database's FK structure with path enumeration."""

    def __init__(self, database: Database):
        self.database = database
        self._adjacency: dict[str, list[PathStep]] = {
            name: [] for name in database.table_names
        }
        for fk in database.foreign_keys:
            self._adjacency[fk.child_table].append(PathStep(fk, True))
            self._adjacency[fk.parent_table].append(PathStep(fk, False))

    def join_paths(
        self,
        source: str,
        target: str,
        max_length: int = 6,
    ) -> list[JoinPath]:
        """Every simple path (no repeated table) from ``source`` to
        ``target`` with at most ``max_length`` edges.

        Parallel FK edges yield distinct paths.  Results are sorted by
        length then by FK names, for determinism.
        """
        if source == target:
            return [EMPTY_PATH]
        results: list[JoinPath] = []

        def extend(current: str, visited: set[str], steps: list[PathStep]) -> None:
            if len(steps) >= max_length:
                return
            for step in self._adjacency.get(current, ()):
                nxt = step.target
                if nxt in visited:
                    continue
                steps.append(step)
                if nxt == target:
                    results.append(JoinPath(tuple(steps)))
                else:
                    visited.add(nxt)
                    extend(nxt, visited, steps)
                    visited.remove(nxt)
                steps.pop()

        extend(source, {source}, [])
        results.sort(key=lambda p: (len(p.steps), p.fk_names))
        return results

    def shortest_path(self, source: str, target: str,
                      max_length: int = 6) -> JoinPath | None:
        """The unique shortest simple path, or None.

        Raises :class:`ValueError` when several distinct shortest paths
        exist — callers that need a canonical path (group-by attribute
        resolution) must then specify one explicitly.
        """
        paths = self.join_paths(source, target, max_length)
        if not paths:
            return None
        best_len = len(paths[0].steps)
        best = [p for p in paths if len(p.steps) == best_len]
        if len(best) > 1:
            raise ValueError(
                f"ambiguous shortest path {source} -> {target}: "
                + "; ".join(str(p) for p in best)
            )
        return best[0]
