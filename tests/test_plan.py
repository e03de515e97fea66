"""Unit tests for the logical plan layer (repro.core.plan) — no Spark jobs."""
import pytest

from repro.core import plan as P
from repro.core.spec import smax, smin, spec_of


class FakeDF:
    """Stands in for a DataFrame where only .columns is consulted."""

    def __init__(self, cols):
        self.columns = list(cols)


def rel(*cols):
    return P.Relation(FakeDF(cols))


class TestOutputColumns:
    def test_relation(self):
        assert P.output_columns(rel("a", "b")) == ["a", "b"]

    def test_skyline_passthrough(self):
        s = P.Skyline(rel("a", "b"), spec_of(smin("a")))
        assert P.output_columns(s) == ["a", "b"]

    def test_join_using_dedupes_keys(self):
        j = P.Join(rel("k", "a"), rel("k", "b"), on=("k",))
        assert P.output_columns(j) == ["k", "a", "b"]


class TestJoinValidation:
    def test_bad_non_reductive_rejected(self):
        with pytest.raises(ValueError):
            P.Join(rel("a"), rel("b"), on=("a",), non_reductive="both")

    @pytest.mark.parametrize("side", [None, "left", "right"])
    def test_valid_sides(self, side):
        P.Join(rel("a"), rel("b"), on=("a",), non_reductive=side)


class TestTransformUp:
    @staticmethod
    def tree(left=None):
        join = P.Join(left or rel("k", "a"), rel("k", "b"), on=("k",))
        return P.Skyline(join, spec_of(smin("a")))

    def test_identity(self):
        tree = self.tree()
        assert P.transform_up(tree, lambda n: n) is tree

    def test_bottom_up_order(self):
        visited = []
        P.transform_up(self.tree(), lambda n: (visited.append(type(n).__name__), n)[1])
        assert visited == ["Relation", "Relation", "Join", "Skyline"]

    def test_child_replacement_rebuilds_ancestors(self):
        r = rel("k", "a")
        tree = self.tree(r)

        def rule(n):
            if isinstance(n, P.Join):
                return P.Join(n.left, n.right, on=n.on, how="left")
            return n

        new = P.transform_up(tree, rule)
        assert new is not tree
        assert new.child.how == "left"
        assert new.child.left is r

    def test_join_children_both_visited(self):
        names = []
        j = P.Join(rel("a"), rel("b"), on=())
        P.transform_up(j, lambda n: (names.append(type(n).__name__), n)[1])
        assert names == ["Relation", "Relation", "Join"]
