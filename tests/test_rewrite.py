"""Unit tests for the Listing-4 reference rewrite (repro.core.physical.reference_sql)."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.physical import reference_sql
from repro.core.spec import sdiff, smax, smin, spec_of

from tests.helpers import skyline_oracle_pandas


def condition(spec, *, null_aware):
    """The dominance predicate: the inner query's WHERE clause."""
    sql = reference_sql("SELECT * FROM t", spec, null_aware=null_aware)
    return sql.split(" AS i WHERE ", 1)[1][:-1]


class TestCondition:
    def test_min_max_operators(self):
        spec = spec_of(smin("a"), smax("b"))
        cond = condition(spec, null_aware=False)
        assert "(i.a <= o.a)" in cond and "(i.b >= o.b)" in cond
        assert "(i.a < o.a) OR (i.b > o.b)" in cond

    def test_diff_equality(self):
        spec = spec_of(smin("a"), sdiff("c"))
        cond = condition(spec, null_aware=False)
        assert "(i.c = o.c)" in cond
        # DIFF never contributes to the strict disjunction.
        assert "i.c <" not in cond and "i.c >" not in cond

    def test_null_aware_soft_disjuncts(self):
        spec = spec_of(smin("a"))
        cond = condition(spec, null_aware=True)
        assert "i.a IS NULL" in cond and "o.a IS NULL" in cond

    def test_null_aware_diff(self):
        spec = spec_of(smin("a"), sdiff("c"))
        cond = condition(spec, null_aware=True)
        assert "(i.c = o.c OR i.c IS NULL OR o.c IS NULL)" in cond


class TestReferenceSql:
    def test_shape_matches_listing4(self):
        sql = reference_sql("SELECT * FROM hotels", spec_of(smin("price"), smax("rating")))
        assert sql.startswith("SELECT * FROM (SELECT * FROM hotels) AS o WHERE NOT EXISTS (")
        assert "SELECT 1 FROM (SELECT * FROM hotels) AS i" in sql

    def test_expression_dims_rejected(self):
        with pytest.raises(ValueError, match="plain"):
            reference_sql("SELECT * FROM t", spec_of(smin("a + b")))

    def test_table_variant(self):
        # A named table is the base query ``SELECT * FROM <table>``.
        sql = reference_sql("SELECT * FROM hotels", spec_of(smin("price")))
        assert "FROM (SELECT * FROM hotels) AS o" in sql
        assert "FROM (SELECT * FROM hotels) AS i" in sql


def _run_duckdb(sql: str, **tables) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


class TestAgainstDefinitionalOracle:
    """The generated SQL computes the Definition-3.2 skyline on DuckDB."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_complete(self, seed, d):
        rng = np.random.default_rng(seed)
        cols = [f"c{i}" for i in range(d)]
        pdf = pd.DataFrame(rng.integers(0, 5, size=(40, d)).astype(float), columns=cols)
        pdf["id"] = np.arange(40)
        spec = spec_of(*[smin(c) if i % 2 == 0 else smax(c) for i, c in enumerate(cols)])
        got = _run_duckdb(reference_sql("SELECT * FROM t", spec), t=pdf)
        exp = skyline_oracle_pandas(pdf, spec, incomplete=False)
        assert sorted(got["id"]) == sorted(exp["id"])

    @pytest.mark.parametrize("seed", range(4))
    def test_incomplete_null_aware(self, seed):
        rng = np.random.default_rng(100 + seed)
        pdf = pd.DataFrame(rng.integers(0, 5, size=(40, 3)).astype(float),
                           columns=["a", "b", "c"])
        mask = rng.random((40, 3)) < 0.3
        pdf = pdf.mask(mask)
        pdf["id"] = np.arange(40)
        spec = spec_of(smin("a"), smax("b"), smin("c"))
        got = _run_duckdb(reference_sql("SELECT * FROM t", spec, null_aware=True), t=pdf)
        exp = skyline_oracle_pandas(pdf, spec, incomplete=True)
        assert sorted(got["id"]) == sorted(exp["id"])

    def test_sql_three_valued_differs_from_null_aware(self):
        # Plain Listing 4 on NULL data keeps rows the null-aware
        # dominance would eliminate — the reason the incomplete
        # reference uses the null-aware variant.
        pdf = pd.DataFrame({"a": [1.0, 2.0], "b": [np.nan, 5.0], "id": [0, 1]})
        spec = spec_of(smin("a"), smin("b"))
        plain = _run_duckdb(reference_sql("SELECT * FROM t", spec), t=pdf)
        aware = _run_duckdb(reference_sql("SELECT * FROM t", spec, null_aware=True), t=pdf)
        assert sorted(plain["id"]) == [0, 1]   # NULL blocks dominance in SQL
        assert sorted(aware["id"]) == [0]      # row 0 null-aware-dominates row 1
