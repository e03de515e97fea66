"""The benchmark's workloads: inputs, skyline queries and expected answers.

Every workload is built from the repository's own generators with the
run's seed, sends its queries through the public entry points
``repro.api.skyline`` and ``repro.sqlext.sky_sql``, and gets its expected
answers from :mod:`oracle` (NumPy, plus DuckDB for the MusicBrainz base
queries), never from the code under test.

Row keys identify result rows: ``ss_ticket_number`` for store_sales and
``id`` for MusicBrainz. Answers compare as sorted key arrays, i.e. as
multisets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

import oracle

# Rows per workload; "smoke" sizes serve the benchmark's own smoke test.
SIZES = {
    "ss-complete-6d": {"bench": 250_000, "smoke": 4_000},
    "ss-incomplete-6d": {"bench": 60_000, "smoke": 4_000},
    "mb-sql": {"bench": 20_000, "smoke": 2_000},
}


@dataclass(frozen=True)
class Query:
    name: str
    build: Callable  # (spark) -> DataFrame, through a public entry point
    key: str


class Workload:
    """One named workload; subclasses fill in data, queries and oracle."""

    name: str

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.n = SIZES[self.name][scale]

    def generate(self):
        """Input tables as pandas frames (the generator's output)."""
        raise NotImplementedError

    def load(self, spark, data) -> None:
        """Create, persist and materialize the Spark inputs."""
        raise NotImplementedError

    def queries(self) -> list[Query]:
        raise NotImplementedError

    def expected(self, data) -> dict[str, np.ndarray]:
        """Oracle answer per query name, as sorted row keys."""
        raise NotImplementedError


def _persist(df):
    df = df.persist()
    df.count()
    return df


class _StoreSales(Workload):
    complete: bool

    def generate(self) -> pd.DataFrame:
        from repro.data.store_sales import store_sales_pandas
        return store_sales_pandas(n=self.n, seed=self.seed, complete=self.complete)

    def load(self, spark, data: pd.DataFrame) -> None:
        self.df = _persist(spark.createDataFrame(data))

    def queries(self) -> list[Query]:
        from repro import api
        from repro.data.store_sales import store_sales_dims

        dims = store_sales_dims(6)
        complete = self.complete
        return [Query(self.name,
                      lambda spark: api.skyline(self.df, *dims, complete=complete),
                      "ss_ticket_number")]

    def expected(self, data: pd.DataFrame) -> dict[str, np.ndarray]:
        from repro.core.spec import DimType
        from repro.data.store_sales import STORE_SALES_DIMS

        x = oracle.oriented(data[[c for c, _ in STORE_SALES_DIMS]].to_numpy(),
                            [t is DimType.MAX for _, t in STORE_SALES_DIMS])
        keys = data["ss_ticket_number"].to_numpy()[oracle.skyline_mask(x, complete=self.complete)]
        return {self.name: np.sort(keys)}


class SsComplete(_StoreSales):
    name = "ss-complete-6d"
    complete = True


class SsIncomplete(_StoreSales):
    name = "ss-incomplete-6d"
    complete = False


def _mb_items(k: int) -> str:
    from repro.data.musicbrainz import MUSICBRAINZ_DIMS
    return ", ".join(f"{c} {t.value}" for c, t in MUSICBRAINZ_DIMS[:k])


def _mb_complete_base() -> str:
    # The LEFT OUTER JOIN leaves num_tracks/min_position NULL for
    # recordings on no track; COMPLETE asserts NULL-free dimensions.
    from repro.data.musicbrainz import BASE_QUERY_COMPLETE
    return f"SELECT * FROM ({BASE_QUERY_COMPLETE}) __b WHERE num_tracks IS NOT NULL"


class MbSql(Workload):
    name = "mb-sql"
    tables = ("recording_incomplete", "recording_complete", "track", "recording_meta")

    def _sql(self) -> dict[str, tuple[str, str | None]]:
        from repro.data.musicbrainz import BASE_QUERY_INCOMPLETE

        complete = _mb_complete_base()
        incomplete = f"SELECT * FROM ({BASE_QUERY_INCOMPLETE}) __i SKYLINE OF {_mb_items(4)}"
        return {
            "mb-c1": (f"SELECT * FROM ({complete}) __c SKYLINE OF COMPLETE {_mb_items(1)}", None),
            "mb-c6-sort": (f"SELECT * FROM ({complete}) __c SKYLINE OF COMPLETE {_mb_items(6)} "
                           "ORDER BY rating DESC, id LIMIT 100", None),
            "mb-i4": (incomplete, None),
            "mb-i4-ref": (incomplete, "reference"),
        }

    def generate(self) -> dict[str, pd.DataFrame]:
        from repro.data.musicbrainz import musicbrainz_tables
        return musicbrainz_tables(None, n=self.n, seed=self.seed, register=False)

    def load(self, spark, data: dict[str, pd.DataFrame]) -> None:
        for name in self.tables:
            _persist(spark.createDataFrame(data[name])).createOrReplaceTempView(name)

    def queries(self) -> list[Query]:
        from repro import sqlext

        def build(sql, algorithm):
            return lambda spark: sqlext.sky_sql(spark, sql, algorithm=algorithm)

        return [Query(name, build(sql, algo), "id") for name, (sql, algo) in self._sql().items()]

    def expected(self, data: dict[str, pd.DataFrame]) -> dict[str, np.ndarray]:
        import duckdb
        from repro.data.musicbrainz import BASE_QUERY_INCOMPLETE, MUSICBRAINZ_DIMS

        con = duckdb.connect()
        try:
            for name in self.tables:
                con.register(name, data[name])
            complete = con.execute(_mb_complete_base()).fetchdf()
            incomplete = con.execute(BASE_QUERY_INCOMPLETE).fetchdf()
        finally:
            con.close()

        def sky(base: pd.DataFrame, k: int, is_complete: bool) -> pd.DataFrame:
            cols = [c for c, _ in MUSICBRAINZ_DIMS[:k]]
            values = base[cols].astype("float64").to_numpy()
            x = oracle.oriented(values, [t.value == "MAX" for _, t in MUSICBRAINZ_DIMS[:k]])
            return base[oracle.skyline_mask(x, complete=is_complete)]

        top = sky(complete, 6, True).sort_values(["rating", "id"], ascending=[False, True]).head(100)
        i4 = np.sort(sky(incomplete, 4, False)["id"].to_numpy())
        return {
            "mb-c1": np.sort(sky(complete, 1, True)["id"].to_numpy()),
            "mb-c6-sort": np.sort(top["id"].to_numpy()),
            "mb-i4": i4,
            # The Listing-4 rewrite must return the specialized answer.
            "mb-i4-ref": i4,
        }


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (SsComplete, SsIncomplete, MbSql)}
