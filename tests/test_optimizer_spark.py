"""Semantic tests for the §5.4 optimizer rules, executed on Spark."""
import numpy as np
import pandas as pd
import pytest

from repro.core import optimizer as O, plan as P
from repro.core.physical import single_dim_skyline
from repro.core.spec import smax, smin, spec_of

from tests.helpers import skyline_oracle_pandas


@pytest.fixture(scope="module")
def orders_customers(spark):
    """FK pair: every order references an existing customer (non-reductive)."""
    rng = np.random.default_rng(5)
    n_c, n_o = 40, 300
    customers = pd.DataFrame(
        {
            "custkey": np.arange(1, n_c + 1),
            "segment": rng.choice(["A", "B"], n_c),
        }
    )
    orders = pd.DataFrame(
        {
            "orderkey": np.arange(1, n_o + 1),
            "custkey": rng.integers(1, n_c + 1, n_o),
            "totalprice": rng.integers(100, 10_000, n_o).astype(float),
            "priority": rng.integers(1, 6, n_o).astype(float),
        }
    )
    return (
        customers, orders,
        spark.createDataFrame(customers), spark.createDataFrame(orders),
    )


class TestSingleDimPhysical:
    def test_min_selects_minimum(self, spark):
        pdf = pd.DataFrame({"id": range(50), "v": (np.arange(50) % 7).astype(float)})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smin("v")), null_aware=False).toPandas()
        assert set(out["v"]) == {0.0} and len(out) == (pdf.v == 0).sum()

    def test_max_selects_maximum(self, spark):
        pdf = pd.DataFrame({"id": range(50), "v": (np.arange(50) % 7).astype(float)})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smax("v")), null_aware=False).toPandas()
        assert set(out["v"]) == {6.0}

    def test_null_aware_keeps_null_rows(self, spark):
        pdf = pd.DataFrame({"id": range(6), "v": [3.0, 1.0, None, 1.0, None, 2.0]})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smin("v")), null_aware=True).toPandas()
        # min rows (two 1.0s) + NULL rows (incomparable) survive.
        assert sorted(out["id"]) == [1, 2, 3, 4]

    def test_plain_variant_drops_null_rows(self, spark):
        pdf = pd.DataFrame({"id": range(4), "v": [3.0, 1.0, None, 1.0]})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smin("v")), null_aware=False).toPandas()
        assert sorted(out["id"]) == [1, 3]

    def test_distinct(self, spark):
        pdf = pd.DataFrame({"id": range(6), "v": [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smin("v"), distinct=True),
                                 null_aware=False).toPandas()
        assert len(out) == 1 and out["v"].iloc[0] == 1.0

    def test_multi_dim_rejected(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"a": [1.0], "b": [2.0]}))
        with pytest.raises(ValueError):
            single_dim_skyline(df, spec_of(smin("a"), smax("b")), null_aware=False)

    def test_rewrite_equals_generic_algorithm(self, spark):
        rng = np.random.default_rng(8)
        pdf = pd.DataFrame({"id": range(200), "v": rng.integers(0, 9, 200).astype(float)})
        df = spark.createDataFrame(pdf)
        root = P.Skyline(P.Relation(df), spec_of(smin("v"), complete=True))
        optimized = O.optimize(root)
        assert isinstance(optimized, P.SingleDimSkyline)
        fast = P.execute(optimized, spark).toPandas()
        slow = P.execute(root, spark).toPandas()
        assert sorted(fast["id"]) == sorted(slow["id"])


class TestJoinPushdownSemantics:
    def _plans(self, orders_customers, spec):
        customers, orders, cdf, odf = orders_customers
        join = P.Join(P.Relation(odf), P.Relation(cdf),
                      on=("custkey",), non_reductive="left")
        return customers, orders, P.Skyline(join, spec)

    def test_pushdown_preserves_result(self, spark, orders_customers):
        spec = spec_of(smin("totalprice"), smax("priority"), complete=True)
        customers, orders, root = self._plans(orders_customers, spec)
        pushed = P.transform_up(root, O.PushSkylineThroughJoin())
        assert isinstance(pushed, P.Join) and isinstance(pushed.left, P.Skyline)
        a = P.execute(root, spark).toPandas()
        b = P.execute(pushed, spark).toPandas()
        key_cols = ["orderkey", "custkey"]
        pd.testing.assert_frame_equal(
            a.sort_values(key_cols).reset_index(drop=True)[sorted(a.columns)],
            b.sort_values(key_cols).reset_index(drop=True)[sorted(b.columns)],
        )

    def test_pushdown_matches_oracle(self, spark, orders_customers):
        spec = spec_of(smin("totalprice"), smax("priority"), complete=True)
        customers, orders, root = self._plans(orders_customers, spec)
        pushed = O.optimize(root)
        got = P.execute(pushed, spark).toPandas()
        joined = orders.merge(customers, on="custkey")
        exp = skyline_oracle_pandas(
            joined, spec_of(smin("totalprice"), smax("priority")), incomplete=False
        )
        assert sorted(got["orderkey"]) == sorted(exp["orderkey"])

    def test_pushdown_reduces_join_input(self, spark, orders_customers):
        customers, orders, root = self._plans(
            orders_customers, spec_of(smin("totalprice"), smax("priority"), complete=True)
        )
        pushed = P.transform_up(root, O.PushSkylineThroughJoin())
        skyline_rows = P.execute(pushed.left, spark).count()
        assert skyline_rows < len(orders)  # the join now sees fewer tuples

    def test_no_push_without_declaration_still_correct(self, spark, orders_customers):
        customers, orders, cdf, odf = orders_customers
        join = P.Join(P.Relation(odf), P.Relation(cdf), on=("custkey",))
        root = P.Skyline(join, spec_of(smin("totalprice"), smax("priority"), complete=True))
        out = O.optimize(root)
        assert isinstance(out, P.Skyline)  # unchanged shape
        joined = orders.merge(customers, on="custkey")
        exp = skyline_oracle_pandas(
            joined, spec_of(smin("totalprice"), smax("priority")), incomplete=False
        )
        got = P.execute(out, spark).toPandas()
        assert sorted(got["orderkey"]) == sorted(exp["orderkey"])
