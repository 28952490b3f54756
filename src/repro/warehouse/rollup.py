"""Roll-up primitives.

:func:`generalize_values` maps attribute values one level up their
aggregation hierarchy.  This is the data half of the paper's RUP operator
(§5.2.1): enlarging DS' by generalising a hit group's selection to the
parent level.  (A star-net ray turns into fact rows as an attribute
filter; see :meth:`repro.core.starnet.StarNet.to_plan`.)
"""

from __future__ import annotations

from typing import Iterable

from .schema import AttributeRef, StarSchema


def generalize_values(
    schema: StarSchema,
    ref: AttributeRef,
    values: Iterable,
) -> tuple[AttributeRef, set] | None:
    """Map ``values`` of hierarchy level ``ref`` to the parent level.

    Returns ``(parent_ref, parent_values)``, or None when ``ref`` is not a
    hierarchy level or is already the top level — in which case the roll-up
    degenerates to "all" (drop the selection entirely).
    """
    position = schema.hierarchy_position(ref)
    if position is None:
        return None
    _dim, hierarchy, level_idx = position
    if level_idx + 1 >= len(hierarchy.levels):
        return None
    mapping = schema.parent_map(hierarchy, level_idx)
    parents = {mapping[v] for v in values if v in mapping}
    if not parents:
        return None
    return hierarchy.levels[level_idx + 1], parents
