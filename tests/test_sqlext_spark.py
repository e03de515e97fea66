"""End-to-end extended-SQL tests (repro.sqlext.engine) on Spark."""
import numpy as np
import pandas as pd
import pytest

from repro.core.physical import ALGORITHMS, compute_skyline
from repro.core.spec import smax, smin, spec_of
from repro.oracle import assert_equivalent
from repro.sqlext import sky_sql
from repro.sqlext.parser import SkylineParseError

from tests.helpers import skyline_oracle_pandas


@pytest.fixture(scope="module")
def hotels(spark):
    rng = np.random.default_rng(77)
    n = 250
    pdf = pd.DataFrame(
        {
            "id": np.arange(n),
            "price": rng.integers(50, 300, n).astype(float),
            "user_rating": rng.integers(1, 101, n).astype(float),
            "city": rng.choice(["vienna", "graz", "linz"], n),
            "nights": rng.integers(1, 8, n).astype(float),
        }
    )
    spark.createDataFrame(pdf).createOrReplaceTempView("hotels")
    return pdf


class TestBasicQueries:
    def test_listing2_hotel_query(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX",
        )
        exp = skyline_oracle_pandas(
            hotels, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        got = out.toPandas().sort_values(["price", "user_rating"]).reset_index(drop=True)
        want = (
            exp[["price", "user_rating"]]
            .sort_values(["price", "user_rating"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

    @pytest.mark.parametrize("algorithm", [
        "distributed_complete", "non_distributed_complete",
        "distributed_incomplete", "reference",
    ])
    def test_all_algorithms_same_result(self, spark, hotels, algorithm):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF COMPLETE price MIN, user_rating MAX",
            algorithm=algorithm,
        )
        exp = skyline_oracle_pandas(
            hotels, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out.toPandas()["id"]) == sorted(exp["id"])

    def test_non_skyline_query_passthrough(self, spark, hotels):
        q = "SELECT city, count(*) AS n FROM hotels GROUP BY city"
        assert_equivalent(sky_sql(spark, q), q, hotels=hotels)

    def test_order_by_applied_after_skyline(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX ORDER BY price DESC",
        ).toPandas()
        assert list(out["price"]) == sorted(out["price"], reverse=True)

    def test_limit(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX ORDER BY price LIMIT 2",
        ).toPandas()
        assert len(out) == 2

    def test_where_clause_restricts_input(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels WHERE city = 'vienna' "
            "SKYLINE OF price MIN, user_rating MAX",
        ).toPandas()
        sub = hotels[hotels.city == "vienna"]
        exp = skyline_oracle_pandas(
            sub, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_distinct_keyword(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT price, user_rating FROM hotels "
            "SKYLINE OF DISTINCT price MIN, user_rating MAX",
        ).toPandas()
        assert not out.duplicated(["price", "user_rating"]).any()

    def test_single_dim_equals_min(self, spark, hotels):
        out = sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price MIN").toPandas()
        assert set(out["price"]) == {hotels["price"].min()}

    def test_expression_dimension(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF price / nights MIN, user_rating MAX",
        ).toPandas()
        work = hotels.assign(ppn=hotels.price / hotels.nights)
        exp = skyline_oracle_pandas(
            work, spec_of(smin("ppn"), smax("user_rating")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])


class TestAnalyzerIntegration:
    """Listings 6/7: dimensions not in the projection, aggregate dims."""

    def test_dim_not_in_projection(self, spark, hotels):
        out = sky_sql(
            spark, "SELECT id FROM hotels SKYLINE OF price MIN, user_rating MAX"
        )
        assert out.columns == ["id"]
        exp = skyline_oracle_pandas(
            hotels, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out.toPandas()["id"]) == sorted(exp["id"])

    def test_aggregate_dim_not_in_projection(self, spark, hotels):
        # Skyline over count(*) while the projection only has the avg —
        # the Listing-7 case (aggregate must be injected into the Aggregate).
        out = sky_sql(
            spark,
            "SELECT city, avg(price) AS ap FROM hotels GROUP BY city "
            "SKYLINE OF count(*) MAX",
        )
        assert out.columns == ["city", "ap"]
        counts = hotels.groupby("city").size()
        winners = set(counts[counts == counts.max()].index)
        assert set(out.toPandas()["city"]) == winners

    def test_aggregate_alias_dim(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT city, count(*) AS n FROM hotels GROUP BY city SKYLINE OF n MAX",
        ).toPandas()
        counts = hotels.groupby("city").size()
        assert set(out["city"]) == set(counts[counts == counts.max()].index)

    def test_having_then_skyline(self, spark, hotels):
        # Appendix-B query shape: Aggregate + HAVING Filter below the skyline.
        out = sky_sql(
            spark,
            "SELECT city, avg(price) AS ap, count(*) AS n FROM hotels "
            "GROUP BY city HAVING count(*) > 10 "
            "SKYLINE OF ap MIN, n MAX",
        ).toPandas()
        g = hotels.groupby("city").agg(ap=("price", "mean"), n=("id", "size")).reset_index()
        g = g[g.n > 10]
        exp = skyline_oracle_pandas(g, spec_of(smin("ap"), smax("n")), incomplete=False)
        assert set(out["city"]) == set(exp["city"])

    def test_having_with_sort_on_aggregate(self, spark, hotels):
        # Appendix-B bug shape: Sort on an aggregate + HAVING; our
        # front-end must resolve it (Catalyst sees ordinary select items).
        out = sky_sql(
            spark,
            "SELECT city, avg(price) AS ap FROM hotels GROUP BY city "
            "HAVING count(*) > 0 SKYLINE OF ap MIN ORDER BY ap",
        ).toPandas()
        assert list(out["ap"]) == sorted(out["ap"])

    def test_mixed_missing_and_present_dims(self, spark, hotels):
        out = sky_sql(
            spark, "SELECT id, price FROM hotels SKYLINE OF price MIN, user_rating MAX"
        )
        assert out.columns == ["id", "price"]

    def test_unresolvable_dim_raises(self, spark, hotels):
        with pytest.raises(Exception):
            sky_sql(spark, "SELECT id FROM hotels SKYLINE OF nonexistent MIN")


class TestSkylineOverComplexBase:
    def test_skyline_over_subquery(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM (SELECT id, price, user_rating FROM hotels WHERE price < 200) t "
            "SKYLINE OF price MIN, user_rating MAX",
        ).toPandas()
        sub = hotels[hotels.price < 200]
        exp = skyline_oracle_pandas(
            sub, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_skyline_over_cte(self, spark, hotels):
        out = sky_sql(
            spark,
            "WITH cheap AS (SELECT * FROM hotels WHERE price < 150) "
            "SELECT id, price, user_rating FROM cheap "
            "SKYLINE OF price MIN, user_rating MAX",
        ).toPandas()
        sub = hotels[hotels.price < 150]
        exp = skyline_oracle_pandas(
            sub, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_reference_with_final_projection(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT id FROM hotels SKYLINE OF price MIN, user_rating MAX",
            algorithm="reference",
        )
        assert out.columns == ["id"]

    def test_bad_algorithm_rejected(self, spark, hotels):
        with pytest.raises(ValueError, match="unknown algorithm"):
            sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price MIN", algorithm="nope")

    def test_parse_error_propagates(self, spark, hotels):
        with pytest.raises(SkylineParseError):
            sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price")


class TestRegressions:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_distinct_keeps_one_row_per_dimension_tuple(self, spark, algorithm):
        # DISTINCT keeps one row per dimension tuple, even when a
        # non-dimension column differs between the tied rows.
        spark.createDataFrame(
            pd.DataFrame({"id": [1, 2, 3], "a": [1, 1, 2]})
        ).createOrReplaceTempView("distinct_t")
        out = sky_sql(spark, "SELECT * FROM distinct_t SKYLINE OF DISTINCT a MIN",
                      algorithm=algorithm).toPandas()
        assert len(out) == 1 and out["a"].tolist() == [1]

    def test_no_temp_views_left_behind(self, spark, hotels):
        def temp_views():
            return {t.name for t in spark.catalog.listTables() if t.isTemporary}

        before = temp_views()
        sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX "
                       "ORDER BY price DESC LIMIT 2").collect()
        df = spark.table("hotels")
        compute_skyline(df, spec_of(smin("price"), smax("user_rating")),
                        algorithm="reference").collect()
        assert temp_views() == before

    def test_order_by_text_with_braces(self, spark, hotels):
        # The ORDER BY tail is literal SQL, not a format string.
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX "
            "ORDER BY concat(city, '{x}') DESC, price",
        ).toPandas()
        assert list(out["city"]) == sorted(out["city"], reverse=True)
