"""Unit tests for the optimizer rules (repro.core.optimizer) — no Spark jobs."""
import pytest

from repro.core import optimizer as O, plan as P
from repro.core.spec import sdiff, smax, smin, spec_of

from tests.test_plan import rel


class TestSingleDimensionRewrite:
    rule = O.SingleDimensionRewrite()

    def test_rewrites_single_min(self):
        node = P.Skyline(rel("a"), spec_of(smin("a")))
        out = self.rule(node)
        assert isinstance(out, P.SingleDimSkyline)
        assert out.null_aware  # no COMPLETE keyword -> null-aware variant

    def test_complete_spec_uses_plain_variant(self):
        node = P.Skyline(rel("a"), spec_of(smin("a"), complete=True))
        out = self.rule(node)
        assert isinstance(out, P.SingleDimSkyline) and not out.null_aware

    def test_single_max_rewritten(self):
        out = self.rule(P.Skyline(rel("a"), spec_of(smax("a"))))
        assert isinstance(out, P.SingleDimSkyline)

    def test_two_dims_not_rewritten(self):
        node = P.Skyline(rel("a", "b"), spec_of(smin("a"), smax("b")))
        assert self.rule(node) is node

    def test_diff_blocks_rewrite(self):
        node = P.Skyline(rel("a", "c"), spec_of(smin("a"), sdiff("c")))
        assert self.rule(node) is node

    def test_reference_algorithm_untouched(self):
        node = P.Skyline(rel("a"), spec_of(smin("a")), algorithm="reference")
        assert self.rule(node) is node

    def test_non_skyline_node_untouched(self):
        node = P.Join(rel("k", "a"), rel("k", "b"), on=("k",))
        assert self.rule(node) is node


class TestPushSkylineThroughJoin:
    rule = O.PushSkylineThroughJoin()

    def _join(self, non_reductive="left", how="inner"):
        return P.Join(rel("k", "price", "rating"), rel("k", "extra"),
                      on=("k",), how=how, non_reductive=non_reductive)

    def test_pushes_to_left(self):
        node = P.Skyline(self._join(), spec_of(smin("price"), smax("rating")),
                         parallelism=4)
        out = self.rule(node)
        assert isinstance(out, P.Join)
        assert isinstance(out.left, P.Skyline)
        assert out.left.parallelism == 4
        assert not isinstance(out.right, P.Skyline)

    def test_pushes_to_right(self):
        j = P.Join(rel("k", "a"), rel("k", "x", "y"), on=("k",), non_reductive="right")
        node = P.Skyline(j, spec_of(smin("x"), smax("y")))
        out = self.rule(node)
        assert isinstance(out.right, P.Skyline)

    def test_no_declaration_no_push(self):
        node = P.Skyline(self._join(non_reductive=None), spec_of(smin("price")))
        assert self.rule(node) is node

    def test_dims_spanning_sides_not_pushed(self):
        node = P.Skyline(self._join(), spec_of(smin("price"), smax("extra")))
        assert self.rule(node) is node

    def test_outer_join_not_pushed(self):
        node = P.Skyline(self._join(how="left"), spec_of(smin("price")))
        assert self.rule(node) is node

    def test_distinct_not_pushed(self):
        node = P.Skyline(self._join(), spec_of(smin("price"), distinct=True))
        assert self.rule(node) is node

    def test_expression_dim_not_pushed(self):
        node = P.Skyline(self._join(), spec_of(smin("price * 2")))
        assert self.rule(node) is node

    def test_reference_algorithm_untouched(self):
        node = P.Skyline(self._join(), spec_of(smin("price")), algorithm="reference")
        assert self.rule(node) is node


class TestOptimizePipeline:
    def test_push_then_single_dim(self):
        # After the push-down the one-dimension skyline on the left
        # side must also get the scalar-subquery rewrite.
        j = P.Join(rel("k", "price"), rel("k", "x"), on=("k",), non_reductive="left")
        root = P.Skyline(j, spec_of(smin("price")))
        out = O.optimize(root)
        assert isinstance(out, P.Join)
        assert isinstance(out.left, P.SingleDimSkyline)

    def test_optimize_preserves_plain_tree(self):
        tree = P.Join(rel("k", "a"), rel("k", "b"), on=("k",))
        assert O.optimize(tree) is tree
