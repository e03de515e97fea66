"""Skyline-specific optimizer rules (paper §5.4).

Catalyst is a rule-based optimizer over logical plans; our rules are
plain functions ``LogicalPlan -> LogicalPlan`` applied bottom-up via
``plan.transform_up`` — the same contract as a Catalyst
``Rule[LogicalPlan]``.

Rules (both from §5.4):

* :class:`SingleDimensionRewrite` — a skyline over a single MIN/MAX
  dimension is the plain optimum of that dimension.  Rather than
  sorting (O(n log n)) the paper picks the scalar-subquery-and-select
  formulation (O(n)); we rewrite to :class:`plan.SingleDimSkyline`
  which executes exactly that.  Under incomplete (null-aware)
  semantics NULL rows are additionally kept — with one dimension a
  NULL tuple shares no non-NULL dimension with anyone, hence is
  incomparable and belongs to the skyline.
* :class:`PushSkylineThroughJoin` — if the skyline sits on top of a
  *non-reductive* join [6] and every skyline dimension comes from the
  non-reduced side, the skyline may be evaluated below the join,
  shrinking the inputs of both operators.  Non-reductiveness must be
  declared on the :class:`plan.Join` node (we have no constraint
  catalog to infer it, see DESIGN.md).

The reference algorithm never gets these rules — it represents the
un-integrated baseline (§6.3), so a Skyline node whose algorithm hint
is ``"reference"`` is left untouched.
"""
from __future__ import annotations

from dataclasses import replace

from . import plan as P
from .spec import SkylineSpec

__all__ = ["SingleDimensionRewrite", "PushSkylineThroughJoin", "optimize"]


class SingleDimensionRewrite:
    """Skyline with one MIN/MAX dimension and no DIFF → scalar-subquery select."""

    def __call__(self, node: P.LogicalPlan) -> P.LogicalPlan:
        if not isinstance(node, P.Skyline):
            return node
        if node.algorithm == "reference":
            return node
        spec = node.spec
        if len(spec.minmax_dims) != 1 or spec.diff_dims:
            return node
        # Complete semantics apply when the user asserted COMPLETE; the
        # null-aware variant is correct (and identical) on complete
        # data, so it is the safe default otherwise.
        return P.SingleDimSkyline(node.child, spec, null_aware=not spec.complete)


class PushSkylineThroughJoin:
    """Skyline(Join) → Join(Skyline) when the join is declared non-reductive.

    Applicability (§5.4): the join is non-reductive w.r.t. side S —
    every tuple of S has at least one join partner — and every skyline
    dimension is a column of S's output.  Then a joined row is
    dominated iff its S-part is dominated inside S, so the skyline
    commutes with the join.  Only inner joins qualify (an outer join
    is trivially non-reductive on its preserved side, but NULL-padded
    partner columns change the semantics of later operators; the paper
    restricts itself to the constraint-backed inner-join case).
    """

    def __call__(self, node: P.LogicalPlan) -> P.LogicalPlan:
        if not isinstance(node, P.Skyline):
            return node
        if node.algorithm == "reference":
            return node
        if node.spec.distinct:
            # DISTINCT keeps one row per dimension tuple; below the join
            # that row may fan out to several partners again, changing
            # the output multiset — conservatively not pushed.
            return node
        child = node.child
        if not isinstance(child, P.Join) or child.how != "inner":
            return node
        side = child.non_reductive
        if side is None:
            return node
        side_plan = child.left if side == "left" else child.right
        side_cols = set(P.output_columns(side_plan))
        dims = node.spec.dimensions
        if not all(d.is_simple_column and d.expr in side_cols for d in dims):
            return node
        pushed = P.Skyline(side_plan, node.spec,
                           algorithm=node.algorithm, parallelism=node.parallelism)
        if side == "left":
            return replace(child, left=pushed)
        return replace(child, right=pushed)


def optimize(root: P.LogicalPlan) -> P.LogicalPlan:
    """Apply each rule bottom-up, in order — one pass, like a Catalyst batch.

    Push-down first: a pushed skyline may then qualify for the
    single-dimension rewrite on the smaller side.
    """
    for rule in (PushSkylineThroughJoin(), SingleDimensionRewrite()):
        root = P.transform_up(root, rule)
    return root
