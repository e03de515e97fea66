"""Mini logical-plan layer mirroring the paper's Spark SQL integration (§5.2).

The paper adds a ``SkylineOperator`` node (single child, single
output) to Catalyst's logical plan.  From PySpark we cannot add
Catalyst nodes, so this module provides a small logical algebra *on
top of* DataFrames: leaf :class:`Relation` nodes wrap arbitrary
Catalyst plans (anything Spark SQL produced), and only the inner nodes
the §5.4 optimizer rules (optimizer.py) pattern-match on — ``Join``,
``Skyline`` and the rewritten ``SingleDimSkyline`` — are modelled
explicitly, exactly like Catalyst rules see them.  Everything else
(projection, filtering, ORDER BY, LIMIT) stays plain Spark SQL or
DataFrame operations.

``execute(plan, ...)`` lowers the tree back to DataFrame operations;
the Skyline node is lowered by the physical layer (physical.py), which
performs the paper's Listing-8 algorithm selection.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from pyspark.sql import DataFrame, SparkSession

from .spec import SkylineSpec

__all__ = [
    "LogicalPlan", "Relation", "Join", "Skyline", "SingleDimSkyline",
    "output_columns", "execute", "transform_up",
]


@dataclass(frozen=True, eq=False)
class LogicalPlan:
    """Base class for logical nodes; child nodes are plain fields."""


@dataclass(frozen=True, eq=False)
class Relation(LogicalPlan):
    """Leaf: an arbitrary DataFrame (any Catalyst plan)."""

    df: DataFrame


@dataclass(frozen=True, eq=False)
class Join(LogicalPlan):
    """Equi-join on shared column names (``USING`` semantics).

    ``non_reductive`` asserts that every tuple of the named side has at
    least one join partner (§5.4 / [6]); it is the caller-declared
    licence for ``PushSkylineThroughJoin`` since Spark has no
    constraint catalog to infer it from.
    """

    left: LogicalPlan
    right: LogicalPlan
    on: tuple[str, ...]
    how: str = "inner"
    non_reductive: Optional[str] = None  # "left" | "right" | None

    def __post_init__(self) -> None:
        if self.non_reductive not in (None, "left", "right"):
            raise ValueError("non_reductive must be None, 'left' or 'right'")


@dataclass(frozen=True, eq=False)
class Skyline(LogicalPlan):
    """The skyline operator node — single child, single output (§5.2)."""

    child: LogicalPlan
    spec: SkylineSpec
    # Physical hints (None = let Listing-8 selection decide).
    algorithm: Optional[str] = None
    parallelism: Optional[int] = None


@dataclass(frozen=True, eq=False)
class SingleDimSkyline(LogicalPlan):
    """Result of the single-MIN/MAX-dimension optimizer rewrite (§5.4).

    Semantically equivalent to ``Skyline`` over a one-dimensional spec
    but executed as scalar-subquery + selection in O(n).
    ``null_aware`` keeps NULL rows (they are incomparable to every
    other tuple when the only dimension is NULL) — used when the
    incomplete semantics apply.
    """

    child: LogicalPlan
    spec: SkylineSpec
    null_aware: bool = False


def output_columns(plan: LogicalPlan) -> list[str]:
    """Output column names of a plan."""
    if isinstance(plan, Relation):
        return list(plan.df.columns)
    if isinstance(plan, (Skyline, SingleDimSkyline)):
        return output_columns(plan.child)
    if isinstance(plan, Join):
        left = output_columns(plan.left)
        right = [c for c in output_columns(plan.right) if c not in plan.on]
        return left + right
    raise TypeError(f"unknown plan node {plan!r}")


def transform_up(plan: LogicalPlan, rule) -> LogicalPlan:
    """Bottom-up tree rewrite: apply ``rule`` to every node, children first.

    ``rule(node) -> node`` returns the (possibly unchanged) node —
    the same contract as Catalyst's ``resolveOperatorsUp``.
    """
    updates = {}
    for name, v in plan.__dict__.items():
        if isinstance(v, LogicalPlan):
            new = transform_up(v, rule)
            if new is not v:
                updates[name] = new
    if updates:
        plan = replace(plan, **updates)
    return rule(plan)


def execute(plan: LogicalPlan, spark: SparkSession) -> DataFrame:
    """Lower a logical plan to a DataFrame (physical planning + execution)."""
    from . import physical  # local import to avoid a cycle

    if isinstance(plan, Relation):
        return plan.df
    if isinstance(plan, Join):
        left = execute(plan.left, spark)
        right = execute(plan.right, spark)
        return left.join(right, on=list(plan.on), how=plan.how)
    if isinstance(plan, Skyline):
        return physical.compute_skyline(
            execute(plan.child, spark),
            plan.spec,
            algorithm=plan.algorithm,
            parallelism=plan.parallelism,
        )
    if isinstance(plan, SingleDimSkyline):
        return physical.single_dim_skyline(
            execute(plan.child, spark), plan.spec, null_aware=plan.null_aware
        )
    raise TypeError(f"unknown plan node {plan!r}")
