"""DataFrame-API tests (repro.api) — the §5.8 user interface."""
import numpy as np
import pandas as pd
import pytest

from repro.api import sdiff, skyline, smax, smin
from repro.core import plan as P
from repro.core.spec import spec_of

from tests.helpers import skyline_oracle_pandas


@pytest.fixture(scope="module")
def listings(spark):
    rng = np.random.default_rng(42)
    n = 200
    pdf = pd.DataFrame(
        {
            "id": np.arange(n),
            "price": rng.integers(40, 400, n).astype(float),
            "rating": rng.integers(1, 101, n).astype(float),
            "rooms": rng.integers(1, 6, n).astype(float),
        }
    )
    return pdf, spark.createDataFrame(pdf)


class TestSkylineApi:
    def test_basic(self, listings):
        pdf, df = listings
        out = skyline(df, smin("price"), smax("rating")).toPandas()
        exp = skyline_oracle_pandas(pdf, spec_of(smin("price"), smax("rating")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_preserves_schema(self, listings):
        _, df = listings
        out = skyline(df, smin("price"), smax("rating"))
        assert out.columns == df.columns

    def test_complete_flag(self, listings):
        pdf, df = listings
        out = skyline(df, smin("price"), smax("rating"), complete=True).toPandas()
        exp = skyline_oracle_pandas(pdf, spec_of(smin("price"), smax("rating")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_distinct_flag(self, listings):
        _, df = listings
        out = skyline(df, smin("rooms"), distinct=True).toPandas()
        assert len(out) == 1

    def test_diff_marker(self, listings):
        pdf, df = listings
        out = skyline(df, smin("price"), sdiff("rooms")).toPandas()
        exp = skyline_oracle_pandas(pdf, spec_of(smin("price"), sdiff("rooms")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_algorithm_override(self, listings):
        pdf, df = listings
        for algo in ("non_distributed_complete", "reference"):
            out = skyline(df, smin("price"), smax("rating"), complete=True,
                          algorithm=algo).toPandas()
            exp = skyline_oracle_pandas(pdf, spec_of(smin("price"), smax("rating")),
                                        incomplete=False)
            assert sorted(out["id"]) == sorted(exp["id"])

    def test_optimize_flag_single_dim(self, listings):
        # skyline() applies the single-dimension rewrite; the unoptimized
        # tree runs the generic algorithm and must agree with it.
        pdf, df = listings
        fast = skyline(df, smin("price")).toPandas()
        slow = P.execute(P.Skyline(P.Relation(df), spec_of(smin("price"))),
                         df.sparkSession).toPandas()
        assert sorted(fast["id"]) == sorted(slow["id"])

    def test_no_dims_rejected(self, listings):
        _, df = listings
        with pytest.raises(ValueError):
            skyline(df)

    def test_expression_dims(self, listings):
        pdf, df = listings
        out = skyline(df, smin("price / rooms"), smax("rating")).toPandas()
        work = pdf.assign(ppr=pdf.price / pdf.rooms)
        exp = skyline_oracle_pandas(work, spec_of(smin("ppr"), smax("rating")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_composes_with_dataframe_ops(self, listings):
        pdf, df = listings
        out = skyline(df.where("rooms >= 3"), smin("price"), smax("rating")).toPandas()
        sub = pdf[pdf.rooms >= 3]
        exp = skyline_oracle_pandas(sub, spec_of(smin("price"), smax("rating")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])
