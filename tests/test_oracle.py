"""Driver-style oracle checks at sf0.001: every query with an oracle is run
through Ray AND DuckDB and compared value-for-value (sorted columns, sorted
rows, exact equality on the stringified values — floats must match exactly,
which the shared duck_round discipline guarantees)."""

import math
from pathlib import Path

import duckdb
import pandas as pd
import pytest

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _duck(sf_dir: str):
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _norm_cell(v):
    if v is None:
        return "∅"
    if isinstance(v, float):
        if math.isnan(v):
            return "∅"
        return repr(v)
    if isinstance(v, pd.Timestamp):
        return v.isoformat()
    if hasattr(v, "isoformat"):
        return v.isoformat()
    return str(v)


def _canon(df: pd.DataFrame) -> list[tuple]:
    df = df[sorted(df.columns)]
    rows = [tuple(_norm_cell(v) for v in row) for row in df.itertuples(index=False)]
    return sorted(rows)


def _to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def _oracle_names():
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from crawler_ray.pipelines.queries import oracle_sql

    return sorted(oracle_sql().keys())


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(name, ray_session, sf_dir):
    from crawler_ray.pipelines.queries import QUERIES, oracle_sql

    ray_df = _to_pandas(QUERIES[name](sf_dir))
    con = _duck(sf_dir)
    duck_df = con.sql(oracle_sql()[name]).df()

    assert sorted(ray_df.columns.str.lower()) == sorted(duck_df.columns.str.lower()), (
        f"{name}: column mismatch {sorted(ray_df.columns)} vs {sorted(duck_df.columns)}"
    )
    ray_df.columns = ray_df.columns.str.lower()
    duck_df.columns = duck_df.columns.str.lower()
    a, b = _canon(ray_df), _canon(duck_df)
    assert len(a) == len(b), f"{name}: row count {len(a)} vs {len(b)}"
    mismatches = [(x, y) for x, y in zip(a, b) if x != y]
    assert not mismatches, f"{name}: first mismatches {mismatches[:3]}"


def test_every_query_has_an_oracle(ray_session):
    """Since round 4 EVERY registry entry is value-level oracled: the last
    holdout (price_quantiles_sketch) switched from merge-order-dependent
    KLL compaction to a deterministic bottom-k-by-hash sampling sketch
    that DuckDB recomputes exactly."""
    from crawler_ray.pipelines.queries import QUERIES, oracle_sql

    assert set(QUERIES) - set(oracle_sql()) == set()


@pytest.mark.parametrize("name", ["emb_semdedup", "knn_ann_ivf", "emb_kmeans_assign"])
def test_lloyd_oracles_fit_small_memory(name, ray_session, sf_dir):
    """The k-means-family oracles replay 8 Lloyd iterations as chained
    CTEs; each `cent{i+1}` reads `cent{i}` twice, so unless the chain is
    `AS MATERIALIZED` DuckDB inlines it into ~2**8 copies and runs out of
    memory on 500 vectors.  Under a 1 GB cap a dropped hint fails here in
    seconds instead of exhausting the host in the oracle test above."""
    from crawler_ray.pipelines.queries import QUERIES, oracle_sql

    con = _duck(sf_dir)
    con.sql("SET memory_limit='1GB'")
    duck_df = con.sql(oracle_sql()[name]).df()
    assert len(duck_df) == len(_to_pandas(QUERIES[name](sf_dir)))
