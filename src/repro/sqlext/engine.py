"""End-to-end skyline query execution (the paper's Figure-2 pipeline).

``sky_sql(spark, query)`` runs the full flow the paper builds inside
Spark SQL:

    parse  →  logical plan  →  analyze  →  optimize  →  physical
    (parser.py)  (core.plan)  (analyzer.py)  (core.optimizer)  (core.physical)

Non-skyline queries pass straight through to ``spark.sql`` — the
integration has no effect on other queries (§5.9).

``algorithm="reference"`` short-circuits to the Listing-4 plain-SQL
rewrite executed by the stock engine (the baseline of §6.3); the
specialized path with optimizer rules is used otherwise.
"""
from __future__ import annotations

from typing import Optional

from pyspark.sql import DataFrame, SparkSession

from ..core import optimizer, plan as P
from ..core.physical import ALGORITHMS, reference_sql
from . import analyzer
from .parser import parse_skyline_query

__all__ = ["sky_sql"]


def sky_sql(spark: SparkSession, query: str, *,
            algorithm: Optional[str] = None,
            parallelism: Optional[int] = None) -> DataFrame:
    """Execute ``query``, which may contain a ``SKYLINE OF`` clause.

    ``algorithm``/``parallelism`` override physical planning exactly
    like :func:`repro.core.physical.compute_skyline`.
    """
    if algorithm is not None and algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    parsed = parse_skyline_query(query)
    if parsed is None:
        return spark.sql(query)

    resolved = analyzer.resolve(spark, parsed.base_sql, parsed.spec)
    spec = resolved.spec

    if algorithm == "reference":
        out = spark.sql(reference_sql(resolved.base_sql, spec, null_aware=not spec.complete))
        if spec.distinct:
            out = out.dropDuplicates([d.expr for d in spec.dimensions])
    else:
        root = optimizer.optimize(P.Skyline(
            P.Relation(spark.sql(resolved.base_sql)), spec,
            algorithm=algorithm, parallelism=parallelism,
        ))
        out = P.execute(root, spark)
    if resolved.final_columns:
        out = out.select(*resolved.final_columns)

    if parsed.order_by is not None:
        # spark.sql binds {out} to a temporary view for analysis only and
        # drops it before returning; the literal ORDER BY text must not
        # be read as str.format fields.
        order = parsed.order_by.replace("{", "{{").replace("}", "}}")
        out = spark.sql(f"SELECT * FROM {{out}} ORDER BY {order}", out=out)
    if parsed.limit is not None:
        out = out.limit(parsed.limit)
    return out
