"""Measure predicates as keywords — the paper's §7 extension.

"Our current model does not consider measure attributes as hit candidates;
it is interesting to investigate how we can incorporate such measure in
the KDAP model."  This module does so with the simplest useful surface: a
keyword of the form ``revenue>5000`` or ``Quantity<=2`` is recognised as a
*measure predicate* rather than a full-text keyword.

Measure predicates are deterministic fact-level filters: they carry no
textual ambiguity, so they do not participate in hit groups or the SCORE
ranking — they simply constrain every candidate star net's subspace (and
compile into the WHERE clause of the generated SQL).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..warehouse.schema import StarSchema

_PREDICATE_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?P<op><=|>=|<|>|=)"
    r"(?P<value>-?\d+(?:\.\d+)?)$"
)


@dataclass(frozen=True)
class MeasurePredicate:
    """A comparison against a named measure or numeric fact column.

    ``target`` is the resolved name; ``is_measure`` says whether it names a
    declared measure (evaluated through its expression) or a raw numeric
    fact column.  :meth:`~repro.core.starnet.StarNet.to_plan` lowers it
    to a ``Filter(predicate=Compare(...))``, the one place a predicate is
    evaluated.
    """

    target: str
    op: str
    value: float
    is_measure: bool

    def __str__(self) -> str:
        return f"{self.target} {self.op} {self.value:g}"


def parse_measure_keyword(schema: StarSchema,
                          keyword: str) -> MeasurePredicate | None:
    """Recognise ``name op number`` keywords against the schema.

    The name must match a declared measure (case-insensitive) or a numeric
    column of the fact table; anything else returns None and the keyword
    is treated as ordinary text.
    """
    match = _PREDICATE_RE.match(keyword)
    if match is None:
        return None
    name = match.group("name")
    op = match.group("op")
    value = float(match.group("value"))
    for measure_name in schema.measures:
        if measure_name.lower() == name.lower():
            return MeasurePredicate(measure_name, op, value,
                                    is_measure=True)
    fact = schema.database.table(schema.fact_table)
    for column in fact.columns:
        if column.name.lower() == name.lower() and column.type.is_numeric:
            return MeasurePredicate(column.name, op, value,
                                    is_measure=False)
    return None
