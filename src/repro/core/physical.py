"""Physical skyline operators and algorithm selection (paper §5.5–§5.7, §6.3).

The paper implements the skyline as *two* physical nodes — a
distributed local-skyline node (``UnspecifiedDistribution``) feeding a
single-instance global-skyline node (``AllTuples`` distribution).
From PySpark, each node becomes a ``mapInPandas`` stage; the
``AllTuples`` requirement is realized with ``repartition(1)`` (a
shuffle, so the upstream local stage keeps its parallelism).

Four executable algorithms, named as in §6.3 / the performance charts:

* ``distributed_complete``     — local BNL per partition, then global BNL.
* ``non_distributed_complete`` — global BNL only, on a single partition.
* ``distributed_incomplete``   — null-bitmap partitioning (§5.7), local
  BNL per bitmap group, then the all-pairs flag-then-delete global
  phase (Appendix A).
* ``reference``                — the Listing-4 plain-SQL ``NOT EXISTS``
  rewrite executed by the unmodified engine (null-aware variant for
  incomplete semantics).  :func:`reference_sql` is the one builder of
  that text; ``sky_sql``, the bench harness and the DuckDB oracle
  tests use it too.

``select_algorithm`` is Listing 8: the complete path is taken iff the
query says ``COMPLETE`` or every skyline dimension is non-nullable.

Skyline dimensions may be arbitrary numeric SQL expressions; they are
materialized into internal ``__sky_d<i>`` double columns for the
duration of the operator and dropped afterwards.  (Evaluating
dimensions as float64 — NaN for NULL — substitutes the paper's
per-datatype dispatch.  It is exact only for values a double holds
exactly: BIGINT values above 2^53 and DECIMALs with more than 15-17
significant digits can round to the same double and give a wrong
skyline, and DATE dimensions fail the cast.)
"""
from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional

import pandas as pd
from pyspark.sql import Column, DataFrame, functions as F

from . import bnl
from .dominance import normalize_matrix
from .spec import DimType, SkylineDimension, SkylineSpec

__all__ = [
    "ALGORITHMS",
    "select_algorithm",
    "compute_skyline",
    "single_dim_skyline",
    "reference_sql",
    "reference_skyline",
]

ALGORITHMS = (
    "distributed_complete",
    "non_distributed_complete",
    "distributed_incomplete",
    "reference",
)

_DIM_PREFIX = "__sky_d"


def _dim_cols(spec: SkylineSpec) -> list[str]:
    return [f"{_DIM_PREFIX}{i}" for i in range(len(spec.dimensions))]


def _materialize_dims(df: DataFrame, spec: SkylineSpec) -> tuple[DataFrame, list[str]]:
    """Append one double column per skyline dimension expression."""
    for c in df.columns:
        if c.startswith(_DIM_PREFIX):
            raise ValueError(f"input column {c!r} collides with internal skyline columns")
    cols = _dim_cols(spec)
    out = df.select(
        "*",
        *[
            F.expr(d.expr).cast("double").alias(c)
            for d, c in zip(spec.dimensions, cols)
        ],
    )
    return out, cols


def select_algorithm(spec: SkylineSpec, df: DataFrame) -> str:
    """Listing 8: complete algorithm iff COMPLETE keyword or non-nullable dims.

    Nullability is only statically known for dimensions that are plain
    columns; any computed expression is conservatively nullable
    (matching Spark, where expression nullability is derived and
    usually nullable).
    """
    if spec.complete:
        return "distributed_complete"
    nullable_by_name = {f.name: f.nullable for f in df.schema.fields}
    if all(
        d.is_simple_column and nullable_by_name.get(d.expr) is False
        for d in spec.dimensions
    ):
        return "distributed_complete"
    return "distributed_incomplete"


# ---------------------------------------------------------------------------
# mapInPandas stage bodies
# ---------------------------------------------------------------------------

def _concat_partition(batches: Iterator[pd.DataFrame]) -> Optional[pd.DataFrame]:
    pdfs = [p for p in batches if len(p)]
    if not pdfs:
        return None
    return pd.concat(pdfs, ignore_index=True) if len(pdfs) > 1 else pdfs[0]


def _make_stage(spec: SkylineSpec, cols: list[str], kind: str):
    """Build a mapInPandas function computing a per-partition skyline.

    ``kind``: "complete" (BNL window), "incomplete_local" (bitmap
    groups), or "incomplete_global" (all-pairs flag-then-delete).
    """

    def stage(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pdf = _concat_partition(batches)
        if pdf is None:
            return
        mm, diff = normalize_matrix(pdf, spec, cols)
        if kind == "complete":
            mask = bnl.bnl_skyline_mask(mm, diff)
        elif kind == "incomplete_local":
            mask = bnl.incomplete_local_skyline_mask(mm, diff)
        elif kind == "incomplete_global":
            mask = bnl.incomplete_global_skyline_mask(mm, diff)
        else:  # pragma: no cover - internal misuse
            raise ValueError(kind)
        yield pdf[mask]

    return stage


def _all_tuples(df: DataFrame) -> DataFrame:
    """The paper's ``AllTuples`` distribution: everything on one instance.

    ``repartition(1)`` (not ``coalesce``) so a shuffle boundary
    separates the stages and the local stage keeps its parallelism.
    """
    return df.repartition(1)


# ---------------------------------------------------------------------------
# The four algorithms
# ---------------------------------------------------------------------------

def _distributed_complete(df: DataFrame, spec: SkylineSpec, cols: list[str],
                          parallelism: Optional[int]) -> DataFrame:
    if parallelism is not None:
        df = df.repartition(parallelism)
    local = df.mapInPandas(_make_stage(spec, cols, "complete"), df.schema)
    return _all_tuples(local).mapInPandas(_make_stage(spec, cols, "complete"), df.schema)


def _non_distributed_complete(df: DataFrame, spec: SkylineSpec, cols: list[str],
                              parallelism: Optional[int]) -> DataFrame:
    # Skips the local stage entirely (§6.3 item 2): one global BNL.
    return _all_tuples(df).mapInPandas(_make_stage(spec, cols, "complete"), df.schema)


def _distributed_incomplete(df: DataFrame, spec: SkylineSpec, cols: list[str],
                            parallelism: Optional[int]) -> DataFrame:
    # §5.7: distribution keyed on IsNull() of every skyline dimension,
    # so each bitmap's tuples land together.  The local stage still
    # groups by exact bitmap internally, so correctness does not
    # depend on how hash partitioning buckets the bitmaps.
    null_keys = [F.isnull(F.col(c)) for c in cols]
    df = df.repartition(parallelism, *null_keys) if parallelism is not None else df.repartition(*null_keys)
    local = df.mapInPandas(_make_stage(spec, cols, "incomplete_local"), df.schema)
    return _all_tuples(local).mapInPandas(_make_stage(spec, cols, "incomplete_global"), df.schema)


def _not_exists_condition(spec: SkylineSpec, *, null_aware: bool) -> str:
    """Dominance predicate of Listing 4 over the (plain column) dimensions.

    ``i`` is the inner (potential dominator), ``o`` the outer tuple.
    The null-aware variant implements the §3 incomplete-data dominance
    (comparisons restricted to dimensions where both sides are
    non-NULL) so the reference computes the same result as the
    specialized incomplete algorithm.
    """
    soft: list[str] = []
    strict: list[str] = []
    for d in spec.dimensions:
        i, o = f"i.{d.expr}", f"o.{d.expr}"
        if d.dim_type is DimType.DIFF:
            eq = f"{i} = {o}"
            soft.append(f"({eq} OR {i} IS NULL OR {o} IS NULL)" if null_aware else f"({eq})")
            continue
        op_soft, op_strict = ("<=", "<") if d.dim_type is DimType.MIN else (">=", ">")
        s = f"{i} {op_soft} {o}"
        t = f"{i} {op_strict} {o}"
        if null_aware:
            soft.append(f"({s} OR {i} IS NULL OR {o} IS NULL)")
            strict.append(f"({t})")  # NULL comparison is never TRUE in SQL
        else:
            soft.append(f"({s})")
            strict.append(f"({t})")
    return " AND ".join(soft + [f"({' OR '.join(strict)})"])


def reference_sql(base_sql: str, spec: SkylineSpec, *, null_aware: bool = False) -> str:
    """Listing 4: the plain-SQL ``NOT EXISTS`` rewrite over a base query.

    Every dimension must be a plain output column of ``base_sql`` (run
    the analyzer or materialize expressions first).  The text is
    engine-neutral: Spark runs it as the §6.3 reference algorithm and
    DuckDB as the correctness oracle.  DISTINCT is left to the caller,
    which keeps one row per dimension tuple.
    """
    for d in spec.dimensions:
        if not d.is_simple_column:
            raise ValueError(
                f"reference rewrite requires dimension {d.expr!r} to be a plain "
                "output column — run the analyzer first to materialize expressions"
            )
    cond = _not_exists_condition(spec, null_aware=null_aware)
    return (
        f"SELECT * FROM ({base_sql}) AS o WHERE NOT EXISTS ("
        f"SELECT 1 FROM ({base_sql}) AS i WHERE {cond})"
    )


def reference_skyline(df: DataFrame, spec: SkylineSpec, *, null_aware: bool) -> DataFrame:
    """The reference algorithm: :func:`reference_sql` run by the stock engine.

    ``null_aware=False`` is the paper's literal Listing-4 rewrite under
    SQL three-valued semantics: a NULL comparison never satisfies the
    dominance conjuncts, so NULL-bearing tuples are never eliminated —
    on incomplete data this returns a *superset* of the null-aware
    skyline and does near-quadratic work (the behaviour of the paper's
    "reference" measurements, cf. Table 8's ~n² scaling).
    ``null_aware=True`` emits the IS NULL disjuncts and matches the
    specialized incomplete algorithm exactly.
    """
    work, cols = _materialize_dims(df, spec)
    over_cols = replace(spec, dimensions=tuple(
        SkylineDimension(c, d.dim_type) for d, c in zip(spec.dimensions, cols)
    ))
    # spark.sql binds {df} to a temporary view for analysis only and
    # drops it before returning.
    sql = reference_sql("SELECT * FROM {df}", over_cols, null_aware=null_aware)
    out = work.sparkSession.sql(sql, df=work)
    if spec.distinct:
        out = out.dropDuplicates(cols)
    return out.drop(*cols)


def single_dim_skyline(df: DataFrame, spec: SkylineSpec, *, null_aware: bool) -> DataFrame:
    """§5.4 single-MIN/MAX-dimension rewrite: scalar subquery + selection.

    The Pareto optimum of one dimension is its optimum.  We compute
    min/max in a scalar aggregate (O(n)) and select the matching rows
    instead of sorting (O(n log n)).  Under incomplete (null-aware)
    semantics rows with a NULL dimension are incomparable to
    everything, hence also kept.
    """
    if len(spec.minmax_dims) != 1 or spec.diff_dims:
        raise ValueError("single_dim_skyline requires exactly one MIN/MAX dim and no DIFF dims")
    dim = spec.minmax_dims[0]
    work, cols = _materialize_dims(df, spec)
    c = cols[0]
    agg_fn = F.min if dim.dim_type is DimType.MIN else F.max
    opt = work.agg(agg_fn(F.col(c)).alias("__sky_opt"))
    joined = work.crossJoin(opt)  # 1-row side: broadcast is disabled session-wide
    cond = F.col(c) == F.col("__sky_opt")
    if null_aware:
        cond = cond | F.col(c).isNull()
    out = joined.where(cond).drop("__sky_opt")
    if spec.distinct:
        out = out.dropDuplicates(cols)
    return out.drop(*cols)


def compute_skyline(df: DataFrame, spec: SkylineSpec, *,
                    algorithm: Optional[str] = None,
                    parallelism: Optional[int] = None) -> DataFrame:
    """Evaluate the skyline of ``df`` under ``spec``.

    ``algorithm`` overrides Listing-8 selection (one of
    :data:`ALGORITHMS`; benchmarks use this to pit the four variants
    against each other).  ``parallelism`` simulates the paper's
    executor count: it is the partition count of the local-skyline
    stage (None = keep the child's partitioning, the paper's
    ``UnspecifiedDistribution`` default).
    """
    algorithm = algorithm or select_algorithm(spec, df)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm == "reference":
        return reference_skyline(df, spec, null_aware=not spec.complete)
    work, cols = _materialize_dims(df, spec)
    if algorithm == "distributed_complete":
        out = _distributed_complete(work, spec, cols, parallelism)
    elif algorithm == "non_distributed_complete":
        out = _non_distributed_complete(work, spec, cols, parallelism)
    else:
        out = _distributed_incomplete(work, spec, cols, parallelism)
    if spec.distinct:
        out = out.dropDuplicates(cols)
    return out.drop(*cols)
