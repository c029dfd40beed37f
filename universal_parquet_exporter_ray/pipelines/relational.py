"""The relational operator surface (SURVEY.md §2.2–§2.8), natively on Ray
Data.

The reference delegates every one of these to a SQL engine via query text
(``/root/reference/src/query/query_executor.py:8-37``); here each is a named
Ray Data pipeline. Each ``q_*`` function takes ``sf_dir`` and returns a
Dataset / DataFrame; ``pipelines.ORACLE_SQL`` holds the DuckDB twin with
IDENTICAL column names (driver contract).

Conventions:
- float aggregates are rounded on BOTH sides (``round_half_away``) so the
  driver's value-hash comparison is insensitive to summation order;
- every ORDER BY ... LIMIT uses a tie-breaking unique key so results are
  deterministic;
- dimension joins broadcast (``broadcast_merge``); the one large-large join
  (``q_join_multiway``) uses Ray Data's hash join + per-batch partial
  aggregation before the final small groupby (scale pattern: combiner-first).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..sources import load_table, table_path
from ..stages import co_partition, per_key
from ..stages.agg import combiner_groupby, final_reduce, map_any, to_frame
from ..stages.joins import broadcast_merge, broadcast_semi, hash_join, thresholded_join
from . import ORACLE_SQL, QUERIES, q  # noqa: F401


def _ts_us_i64(col):
    """Timestamp column → int64 µs with UNIT NORMALIZATION BY TRUNCATION:
    DuckDB's native TIMESTAMP precision is µs, so a ns-unit source truncates
    to the µs grid on the oracle side — the engine must do the same (the
    default safe Arrow cast would instead raise on genuine sub-µs
    components; review r5). ms/s sources upcast losslessly."""
    return pc.cast(
        pc.cast(col, pa.timestamp("us"), safe=False), pa.int64()
    )


def scaled_int(x, scale: float) -> np.ndarray:
    """DuckDB-equivalent ``CAST(round(x * scale) AS BIGINT)`` (round half
    away from zero). Computed floats are exported as scaled BIGINTs because
    two engines rounding the same value to N decimals can produce doubles
    one ulp apart — integers hash identically."""
    v = np.asarray(x, dtype=np.float64) * scale
    return (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)


def scale_cols(ds, spec: dict[str, tuple[str, float]]):
    """Replace float columns with scaled-int columns: {old: (new_name, scale)}.
    Accepts a Dataset (per-batch map) or a pandas DataFrame (the driver-side
    final of ``combiner_groupby``'s small path) and returns the same shape."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        for old, (new, scale) in spec.items():
            df[new] = scaled_int(df[old], scale)
            if new != old:
                df = df.drop(columns=[old])
        return df

    return map_any(ds, fn)


# ----------------------------------------------------------------------
# M-ops: projections & filters
# ----------------------------------------------------------------------


@q(
    "projection",
    "SELECT c_custkey, c_name, c_acctbal FROM customer ORDER BY c_custkey",
)
def q_projection(sf_dir: str):
    # M1 (reference: examples/basic_integration_example.py:98)
    return load_table(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"]).sort(
        "c_custkey"
    )


@q(
    "filter_gt",
    "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
    "FROM lineitem WHERE l_quantity > 30",
)
def q_filter_gt(sf_dir: str):
    # M3 (reference: WHERE o.price > 100.00, basic_integration_example.py:126)
    ds = load_table(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"]
    )
    return ds.map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], 30.0)), batch_format="pyarrow"
    )


@q(
    "filter_like",
    "SELECT p_partkey, p_name, p_type FROM part WHERE p_type LIKE '%CO%'",
)
def q_filter_like(sf_dir: str):
    # M5 (reference: WHERE name LIKE '%&%', realDB:289)
    ds = load_table(sf_dir, "part", ["p_partkey", "p_name", "p_type"])
    return ds.map_batches(
        lambda t: t.filter(pc.match_like(t["p_type"], "%CO%")), batch_format="pyarrow"
    )


@q(
    "filter_eq_notnull",
    "SELECT doc_id, lang, n_chars FROM documents "
    "WHERE lang IS NOT NULL AND lang = 'en'",
)
def q_filter_eq_notnull(sf_dir: str):
    # M4 + M6 (reference: IS NOT NULL advanced:211; equality realDB:315)
    ds = load_table(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(pc.is_valid(t["lang"]), pc.equal(t["lang"], "en"))
        ),
        batch_format="pyarrow",
    )


@q(
    "cast_math",
    "SELECT l_orderkey, CAST(floor(l_quantity) AS BIGINT) AS qty_int, "
    "CAST(round(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 100) AS BIGINT) AS charge_c "
    "FROM lineitem WHERE l_linenumber = 1",
)
def q_cast_math(sf_dir: str):
    # M2 + M9 (reference: CAST ... AS DECIMAL, sqlserver_advanced:134)
    ds = load_table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_linenumber"], 1))
        qty_int = pc.cast(pc.floor(t["l_quantity"]), pa.int64())
        charge = pc.multiply(
            pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])),
            pc.add(1.0, t["l_tax"]),
        )
        charge_c = pa.array(scaled_int(charge.to_numpy(zero_copy_only=False), 100.0))
        return pa.table(
            {"l_orderkey": t["l_orderkey"], "qty_int": qty_int, "charge_c": charge_c}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


@q(
    "case_bucket",
    "SELECT CASE WHEN c_acctbal < 0 THEN 'negative' WHEN c_acctbal < 5000 THEN 'mid' "
    "ELSE 'high' END AS bal_bucket, count(*) AS n, "
    "CAST(round(sum(c_acctbal) * 100) AS BIGINT) AS sum_bal_c FROM customer GROUP BY 1",
)
def q_case_bucket(sf_dir: str):
    # M7 + A4 (reference: age-group CASE, advanced_integration_example.py:199-213)
    ds = load_table(sf_dir, "customer", ["c_acctbal"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df["bal_bucket"] = np.select(
            [df.c_acctbal < 0, df.c_acctbal < 5000], ["negative", "mid"], default="high"
        )
        return df

    out = combiner_groupby(
        ds.map_batches(bucket, batch_format="pandas"),
        ["bal_bucket"],
        sums={"c_acctbal": "sum_bal"},
        count="n",
    )
    return scale_cols(out, {"sum_bal": ("sum_bal_c", 100.0)})


# ----------------------------------------------------------------------
# J-ops: joins
# ----------------------------------------------------------------------


@q(
    "join_inner",
    "SELECT o.o_orderkey, c.c_name, o.o_totalprice FROM orders o "
    "JOIN customer c ON o.o_custkey = c.c_custkey WHERE o.o_totalprice > 150000",
)
def q_join_inner(sf_dir: str):
    # J1 (reference: JOIN orders ON u.id = o.user_id, basic:125).
    # Size-thresholded: customer broadcasts below the object-store budget,
    # hash-partitions above it (customer grows with the corpus at 100 TB).
    orders = load_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    orders = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 150000.0)),
        batch_format="pyarrow",
    )
    cust = load_table(sf_dir, "customer", ["c_custkey", "c_name"])
    joined = thresholded_join(
        orders, cust, left_on=["o_custkey"], right_on=["c_custkey"], how="inner"
    )
    return joined.select_columns(["o_orderkey", "c_name", "o_totalprice"])


@q(
    "join_left_coalesce",
    "SELECT c.c_custkey, c.c_name, "
    "CAST(round(coalesce(sum(o.o_totalprice), 0) * 100) AS BIGINT) AS total_spent_c, "
    "count(o.o_orderkey) AS n_orders FROM customer c "
    "LEFT JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c.c_custkey, c.c_name",
)
def q_join_left_coalesce(sf_dir: str):
    # J2 + M8 (reference: LEFT JOIN + COALESCE(SUM(o.price),0), advanced:166-171)
    # the per-customer aggregate scales with the corpus: size-thresholded
    # (a driver frame or a probed Dataset within the budget broadcasts,
    # hash_join beyond it)
    orders = load_table(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    per_cust = combiner_groupby(
        orders,
        ["o_custkey"],
        sums={"o_totalprice": "total_spent"},
        count="n_orders",
    )
    cust = load_table(sf_dir, "customer", ["c_custkey", "c_name"])
    joined = thresholded_join(
        cust, per_cust, left_on=["c_custkey"], right_on=["o_custkey"], how="left"
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["total_spent_c"] = scaled_int(df["total_spent"].fillna(0.0), 100.0)
        df["n_orders"] = df["n_orders"].fillna(0).astype("int64")
        return df[["c_custkey", "c_name", "total_spent_c", "n_orders"]]

    return joined.map_batches(finish, batch_format="pandas")


@q(
    "join_multiway",
    "SELECT n.n_name, "
    "CAST(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100) AS BIGINT) AS revenue_c, "
    "count(*) AS n_items FROM lineitem l "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey "
    "JOIN customer c ON o.o_custkey = c.c_custkey "
    "JOIN nation n ON c.c_nationkey = n.n_nationkey GROUP BY n.n_name",
)
def q_join_multiway(sf_dir: str):
    # J3 (reference: sys.tables 4-way join, sqlserver_advanced:172-175).
    # Physical plan: fold the tiny dims (customer⋈nation) into ORDERS first
    # — a broadcast merge over the middle table, strictly less work than
    # merging into the already-joined lineitem rows at any scale — then
    # join the fact table against the 2-column (o_orderkey, n_name) side
    # through the size-thresholded strategy: object-store broadcast below
    # the budget (zero shuffle end-to-end at test scale), hash_join
    # above it (the 100-TB path, shuffling the narrowest possible side).
    # Per-batch PARTIAL aggregation before the final tiny groupby keeps
    # the combiner-first pattern either way.
    import pyarrow.parquet as pq

    from ..stages.joins import BROADCAST_ROW_LIMIT

    def footer_rows(name: str) -> int:
        return pq.ParquetFile(table_path(sf_dir, name)).metadata.num_rows

    def driver_read(name: str, columns: list[str]) -> pd.DataFrame:
        # a dimension below the broadcast budget reaches the driver whole
        # anyway: one local read instead of a Ray Data execution
        return pq.read_table(table_path(sf_dir, name), columns=columns).to_pandas()

    li = load_table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    nation = driver_read("nation", ["n_nationkey", "n_name"])
    # size gates on the footer row counts (no scan). customer grows with
    # the corpus: above the broadcast budget the customer⋈nation dim stays
    # a Dataset (nation, 25 rows, broadcasts) and orders hash-joins it. An
    # inner merge with the dims can only shrink the orders side, so its
    # pre-merge count is a sound upper bound for the broadcast decision —
    # no probe pass over the orders pipeline.
    big_cust = footer_rows("customer") > BROADCAST_ROW_LIMIT
    if big_cust:
        cust = load_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        dim = broadcast_merge(
            cust, nation, left_on=["c_nationkey"], right_on=["n_nationkey"]
        ).select_columns(["c_custkey", "n_name"])
    else:
        dim = driver_read("customer", ["c_custkey", "c_nationkey"]).merge(
            nation, left_on="c_nationkey", right_on="n_nationkey", sort=False
        )[["c_custkey", "n_name"]]
    if not big_cust and footer_rows("orders") <= BROADCAST_ROW_LIMIT:
        odf = driver_read("orders", ["o_orderkey", "o_custkey"])
        dim2 = odf.merge(dim, left_on="o_custkey", right_on="c_custkey", sort=False)[
            ["o_orderkey", "n_name"]
        ]
        joined = broadcast_merge(
            li, dim2, left_on=["l_orderkey"], right_on=["o_orderkey"], how="inner"
        )
    else:
        orders = load_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        join = hash_join if big_cust else broadcast_merge
        orders_nn = join(orders, dim, left_on=["o_custkey"], right_on=["c_custkey"])
        joined = hash_join(
            li,
            orders_nn.select_columns(["o_orderkey", "n_name"]),
            left_on=["l_orderkey"],
            right_on=["o_orderkey"],
        )

    def add_rev(df: pd.DataFrame) -> pd.DataFrame:
        df["rev"] = df.l_extendedprice * (1.0 - df.l_discount)
        return df[["n_name", "rev"]]

    out = combiner_groupby(
        joined.map_batches(add_rev, batch_format="pandas"),
        ["n_name"],
        sums={"rev": "revenue"},
        count="n_items",
    )
    return scale_cols(out, {"revenue": ("revenue_c", 100.0)})


@q(
    "semi_distinct",
    "SELECT DISTINCT c.c_custkey, c.c_name FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice > 250000",
)
def q_semi_distinct(sf_dir: str):
    # J5 + D1 (reference: DISTINCT high-value customers, basic:122-128).
    # Semi-join: broadcast the (small) qualifying key set, filter per batch.
    orders = load_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    keys = (
        orders.map_batches(
            lambda t: t.filter(pc.greater(t["o_totalprice"], 250000.0)),
            batch_format="pyarrow",
        )
        .unique("o_custkey")
    )
    cust = load_table(sf_dir, "customer", ["c_custkey", "c_name"])
    return broadcast_semi(cust, set(keys), "c_custkey")


# ----------------------------------------------------------------------
# A-ops: aggregations
# ----------------------------------------------------------------------


@q(
    "anti_join",
    "SELECT c_custkey, c_name FROM customer WHERE c_custkey NOT IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 100000)",
)
def q_anti_join(sf_dir: str):
    # anti join: broadcast the key set, negative filter per batch
    # (ray_guide: semi/anti joins broadcast the key set)
    orders = load_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    keys = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 100000.0)),
        batch_format="pyarrow",
    ).unique("o_custkey")
    cust = load_table(sf_dir, "customer", ["c_custkey", "c_name"])
    out = broadcast_semi(cust, set(keys), "c_custkey", anti=True)
    return to_frame(out, {"c_custkey": "int64", "c_name": "object"})


@q(
    "global_agg",
    "SELECT count(*) AS n, CAST(round(avg(l_quantity) * 1000000) AS BIGINT) AS avg_qty_micro, "
    "min(l_quantity) AS min_qty, max(l_quantity) AS max_qty, "
    "CAST(round(sum(l_extendedprice) * 100) AS BIGINT) AS sum_price_c FROM lineitem",
)
def q_global_agg(sf_dir: str):
    # A1 (reference: COUNT/AVG/MIN/MAX in one pass, realDB:237-240)
    ds = load_table(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    res = ds.aggregate(
        Count(alias_name="n"),
        Mean("l_quantity", alias_name="avg_qty"),
        Min("l_quantity", alias_name="min_qty"),
        Max("l_quantity", alias_name="max_qty"),
        Sum("l_extendedprice", alias_name="sum_price"),
    )
    return pd.DataFrame(
        [
            {
                "n": res["n"],
                "avg_qty_micro": int(scaled_int([res["avg_qty"]], 1e6)[0]),
                "min_qty": res["min_qty"],
                "max_qty": res["max_qty"],
                "sum_price_c": int(scaled_int([res["sum_price"]], 100.0)[0]),
            }
        ]
    )


@q(
    "group_agg",
    "SELECT l_returnflag, l_linestatus, "
    "CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty_c, "
    "CAST(round(sum(l_extendedprice) * 100) AS BIGINT) AS sum_base_price_c, "
    "CAST(round(avg(l_discount) * 1000000) AS BIGINT) AS avg_disc_micro, "
    "count(*) AS count_order "
    "FROM lineitem GROUP BY l_returnflag, l_linestatus",
)
def q_group_agg(sf_dir: str):
    # A2, TPC-H Q1 shape (reference: GROUP BY u.id,u.name ..., realDB:344-349)
    ds = load_table(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"]
    )
    # combiner-first: 6 groups — per-batch partials, thresholded final reduce
    # (a full-row groupby shuffle would move the whole corpus for 6 rows)
    out = combiner_groupby(
        ds,
        ["l_returnflag", "l_linestatus"],
        sums={"l_quantity": "sum_qty", "l_extendedprice": "sum_base_price"},
        means={"l_discount": "avg_disc"},
        count="count_order",
    )
    return scale_cols(
        out,
        {
            "sum_qty": ("sum_qty_c", 100.0),
            "sum_base_price": ("sum_base_price_c", 100.0),
            "avg_disc": ("avg_disc_micro", 1e6),
        },
    )


@q(
    "count_distinct",
    "SELECT o_orderpriority, count(DISTINCT o_custkey) AS n_custs "
    "FROM orders GROUP BY o_orderpriority",
)
def q_count_distinct(sf_dir: str):
    # A3 two-phase (reference: COUNT(DISTINCT o.user_id), advanced:188).
    # Phase 1 collapses to distinct (priority, custkey) pairs combiner-first;
    # phase 2 counts pairs per priority on whichever form phase 1 produced.
    ds = load_table(sf_dir, "orders", ["o_orderpriority", "o_custkey"])
    pairs = combiner_groupby(ds, ["o_orderpriority", "o_custkey"], count="_c")
    if isinstance(pairs, pd.DataFrame):
        out = (
            pairs.groupby("o_orderpriority", sort=False, dropna=False)
            .size()
            .rename("n_custs")
            .reset_index()
        )
        out["n_custs"] = out["n_custs"].astype("int64")
        return out
    return combiner_groupby(pairs, ["o_orderpriority"], count="n_custs")


@q(
    "having",
    "SELECT o_custkey, count(*) AS n_orders FROM orders "
    "GROUP BY o_custkey HAVING count(*) > 15",
)
def q_having(sf_dir: str):
    # A5 (reference: HAVING COUNT(o.id) > 0, advanced:258); combiner-first —
    # partials are (blocks × keys-per-block)-sized, the HAVING filter runs
    # on whichever final form the threshold picked
    ds = load_table(sf_dir, "orders", ["o_custkey"])
    out = combiner_groupby(ds, ["o_custkey"], count="n_orders")
    return map_any(out, lambda df: df[df["n_orders"] > 15].reset_index(drop=True))


@q(
    "minmax_dates",
    "SELECT o_orderpriority, min(o_orderdate) AS min_date, max(o_orderdate) AS max_date "
    "FROM orders GROUP BY o_orderpriority",
)
def q_minmax_dates(sf_dir: str):
    # A6 (reference: MIN/MAX(o.order_date), advanced:168-169); combiner-first
    ds = load_table(sf_dir, "orders", ["o_orderpriority", "o_orderdate"])
    return combiner_groupby(
        ds,
        ["o_orderpriority"],
        mins={"o_orderdate": "min_date"},
        maxs={"o_orderdate": "max_date"},
    )


# ----------------------------------------------------------------------
# O-ops: sort / limit / top-k
# ----------------------------------------------------------------------


@q(
    "sort_limit",
    "SELECT l_orderkey, l_linenumber, l_shipdate FROM lineitem "
    "ORDER BY l_shipdate, l_orderkey, l_linenumber LIMIT 100",
)
def q_sort_limit(sf_dir: str):
    # O1 + O3 (reference: ORDER BY id ... LIMIT 2, realDB:177)
    ds = load_table(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_shipdate"])
    return ds.sort(["l_shipdate", "l_orderkey", "l_linenumber"]).limit(100)


@q(
    "multi_sort",
    "SELECT c_mktsegment, c_name, c_acctbal FROM customer "
    "ORDER BY c_mktsegment, c_acctbal DESC, c_name LIMIT 50",
)
def q_multi_sort(sf_dir: str):
    # O2 (reference: ORDER BY u.name, o.product_name, realDB:215)
    ds = load_table(sf_dir, "customer", ["c_mktsegment", "c_name", "c_acctbal"])
    return ds.sort(
        ["c_mktsegment", "c_acctbal", "c_name"], descending=[False, True, False]
    ).limit(50)


@q(
    "limit_offset",
    "SELECT c_custkey, c_name FROM customer ORDER BY c_custkey LIMIT 10 OFFSET 20",
)
def q_limit_offset(sf_dir: str):
    # O4 (reference: LIMIT 1 OFFSET 1, realDB:364-384). Ray Data has no
    # native OFFSET: sort+limit(offset+n) then a driver-side slice of the
    # (tiny) result — documented deviation, small results only.
    ds = load_table(sf_dir, "customer", ["c_custkey", "c_name"])
    head = ds.sort("c_custkey").limit(30).to_pandas()
    return head.iloc[20:].reset_index(drop=True)


@q(
    "topk",
    "SELECT o_orderkey, o_totalprice FROM orders "
    "ORDER BY o_totalprice DESC, o_orderkey LIMIT 25",
)
def q_topk(sf_dir: str):
    # O5 (reference: SELECT TOP 50 ... ORDER BY ... DESC, sqlserver_advanced:219)
    ds = load_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(25)


@q(
    "distinct_rows",
    "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem",
)
def q_distinct_rows(sf_dir: str):
    # D1 (reference: SELECT DISTINCT ..., basic:123): per-batch distinct
    # partials (combiner), thresholded final — hash-partition above the cap
    ds = load_table(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
    out = combiner_groupby(ds, ["l_returnflag", "l_linestatus"], count="_c")
    return map_any(
        out, lambda df: df[["l_returnflag", "l_linestatus"]].reset_index(drop=True)
    )


# ----------------------------------------------------------------------
# F-ops: scalar/window functions
# ----------------------------------------------------------------------


@q(
    "datediff",
    "SELECT o_custkey, date_diff('day', CAST(min(o_orderdate) AS DATE), "
    "CAST(max(o_orderdate) AS DATE)) AS span_days FROM orders GROUP BY o_custkey",
)
def q_datediff(sf_dir: str):
    # F1 (reference: DATEDIFF(MAX(order_date), MIN(order_date)), advanced:248)
    ds = load_table(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def add_day(t: pa.Table) -> pa.Table:
        micros = pc.cast(t["o_orderdate"], pa.int64())
        day = pc.divide(micros, 86_400_000_000)  # floor for non-negative epochs
        return pa.table({"o_custkey": t["o_custkey"], "day": day})

    days = ds.map_batches(add_day, batch_format="pyarrow")
    agg = combiner_groupby(
        days, ["o_custkey"], mins={"day": "min_day"}, maxs={"day": "max_day"}
    )
    return map_any(
        agg,
        lambda df: pd.DataFrame(
            {
                "o_custkey": df["o_custkey"].to_numpy(dtype=np.int64),
                "span_days": (df["max_day"] - df["min_day"]).astype("int64"),
            }
        ),
    )


@q(
    "rank_global",
    "SELECT o_orderkey, o_totalprice, "
    "RANK() OVER (ORDER BY o_totalprice DESC) AS price_rank FROM orders",
)
def q_rank_global(sf_dir: str):
    # F3 (reference: RANK() OVER (ORDER BY o.price DESC), advanced:229).
    # Fully distributed: range-partition on sampled splitters + per-range
    # local rank + exact range offsets (stages/rank.py). Driver state is
    # O(#ranges) — safe even for near-unique keys at 100 TB (the previous
    # distinct-value-table plan pulled ~|orders| rows onto the driver).
    from ..stages.rank import distributed_rank

    ds = load_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return distributed_rank(ds, "o_totalprice", "price_rank", descending=True)


@q(
    "percent_rank",
    "SELECT o_orderkey, CAST(round(percent_rank() OVER "
    "(ORDER BY o_totalprice DESC) * 1000000) AS BIGINT) AS pr_ppm "
    "FROM orders",
)
def q_percent_rank(sf_dir: str):
    """PERCENT_RANK window function — (rank-1)/(n-1) over the distributed
    rank machinery (range-partition + exact offsets, O(#ranges) driver
    state); ties share a rank exactly as SQL's RANK does."""
    from ..stages.rank import distributed_rank

    ds = load_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    # n comes from the rank machinery's own per-range counts — no extra scan
    ranked, n = distributed_rank(
        ds, "o_totalprice", "rnk", descending=True, return_total=True
    )

    def pr(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].to_numpy(dtype=np.int64),
                "pr_ppm": scaled_int(
                    (df["rnk"].to_numpy(dtype=np.float64) - 1.0) / max(1, n - 1),
                    1e6,
                ),
            }
        )

    return ranked.map_batches(pr, batch_format="pandas")


@q(
    "quantiles",
    "WITH s AS (SELECT o_totalprice AS v, "
    "row_number() OVER (ORDER BY o_totalprice) AS rn FROM orders), "
    "n AS (SELECT count(*) AS c FROM orders) "
    "SELECT CAST(round(max(CASE WHEN rn <= (c-1)//4 + 1 THEN v END) * 100) AS BIGINT) AS p25_c, "
    "CAST(round(max(CASE WHEN rn <= (c-1)//2 + 1 THEN v END) * 100) AS BIGINT) AS p50_c, "
    "CAST(round(max(CASE WHEN rn <= ((c-1)*9)//10 + 1 THEN v END) * 100) AS BIGINT) AS p90_c, "
    "CAST(round(max(CASE WHEN rn <= ((c-1)*99)//100 + 1 THEN v END) * 100) AS BIGINT) AS p99_c "
    "FROM s, n",
)
def q_quantiles(sf_dir: str):
    """EXACT distributed quantiles (p25/p50/p90/p99 of o_totalprice) via
    order statistics on the distributed rank machinery: the k-th order
    statistic equals max{v : rank_min(v) ≤ k}, so ranking (range-partition
    + exact offsets, O(#ranges) driver state) followed by one partial-max
    pass yields exact quantiles with no global sorted pull. k =
    floor(q·(n-1)) + 1, matching the SQL row_number formulation."""
    from ..stages.rank import distributed_rank

    ds = load_table(sf_dir, "orders", ["o_totalprice"])
    n = ds.count()
    ks = {
        "p25_c": (n - 1) // 4 + 1,
        "p50_c": (n - 1) // 2 + 1,
        "p90_c": (n - 1) * 9 // 10 + 1,
        "p99_c": (n - 1) * 99 // 100 + 1,
    }
    ranked = distributed_rank(ds, "o_totalprice", "rn", descending=False)

    def partial_max(df: pd.DataFrame) -> pd.DataFrame:
        v = df["o_totalprice"].to_numpy(dtype=np.float64)
        rn = df["rn"].to_numpy(dtype=np.int64)
        row = {}
        for name, k in ks.items():
            sel = v[rn <= k]
            row[name] = [sel.max() if len(sel) else -np.inf]
        return pd.DataFrame(row)

    partials = ranked.map_batches(partial_max, batch_format="pandas").to_pandas()
    return pd.DataFrame(
        {name: [int(scaled_int(partials[name].max(), 100.0))] for name in ks}
    )


HOPPING_ORACLE_SQL = """
SELECT event_type,
       make_timestamp((epoch_us(ts) // 900000000 - t.j) * 900000000)
         AS window_start,
       CAST(round(sum(value) * 10000) AS BIGINT) AS sum_value_dm,
       count(*) AS n
FROM events, UNNEST(range(4)) AS t(j)
GROUP BY 1, 2
"""


@q("hopping_window", HOPPING_ORACLE_SQL)
def q_hopping_window(sf_dir: str):
    """§2.9 streaming-shaped: HOPPING (sliding) window aggregate — 1-hour
    windows advancing every 15 minutes, the overlapping complement of the
    tumbling ``window_agg``. Each event replicates into exactly
    window/hop = 4 window rows (vectorized integer-µs arithmetic on the
    zero-copy Arrow timestamp — no datetime64[ns] round-trip, so the µs
    grid matches the SQL twin bit-exactly), then the standard combiner
    groupby; at scale the exchange carries 4× combiner-sized partials,
    never 4× the corpus."""
    ds = load_table(sf_dir, "events", ["event_type", "ts", "value"])
    hop_us = 900_000_000
    k = 4

    def explode(t: pa.Table) -> pa.Table:
        ts = t["ts"]
        if ts.null_count:
            raise ValueError("hopping_window: null ts not supported")
        # row replication via take keeps every column's Arrow type intact
        # and never round-trips strings through Python objects
        idx = np.repeat(np.arange(len(t), dtype=np.int64), k)
        rep = t.select(["event_type", "value"]).take(pa.array(idx))
        # normalize the unit BEFORE the integer math: a ns- or ms-unit
        # source would otherwise silently produce wrong hops (ADVICE r4)
        us = _ts_us_i64(ts).to_numpy()
        base = us // hop_us
        j = np.tile(np.arange(k, dtype=np.int64), len(us))
        starts = ((np.repeat(base, k) - j) * hop_us).astype("datetime64[us]")
        return rep.append_column("window_start", pa.array(starts))

    out = combiner_groupby(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["event_type", "window_start"],
        sums={"value": "sum_value"},
        count="n",
    )
    return scale_cols(out, {"sum_value": ("sum_value_dm", 10000.0)})


WATERMARK_ORACLE_SQL = """
WITH arr AS (
  SELECT event_type, ts, value,
         max(ts) OVER (ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events
), f AS (
  SELECT event_type,
         date_trunc('hour', ts) AS window_start,
         value,
         (wm IS NOT NULL
          AND wm - INTERVAL 10 MINUTE > date_trunc('hour', ts) + INTERVAL 1 HOUR)
           AS late
  FROM arr
)
SELECT event_type, window_start,
       CAST(count(*) FILTER (WHERE NOT late) AS BIGINT) AS n_on_time,
       CAST(count(*) FILTER (WHERE late) AS BIGINT) AS n_late,
       CAST(round(COALESCE(sum(value) FILTER (WHERE NOT late), 0) * 10000)
            AS BIGINT) AS sum_value_dm
FROM f GROUP BY 1, 2
"""


@q("watermark_window", WATERMARK_ORACLE_SQL)
def q_watermark_window(sf_dir: str, lateness_min: int = 10):
    """§2.9 streaming-shaped (VERDICT r4 #8): tumbling 1-hour window with a
    WATERMARK late-data policy — the missing late-arrival story next to the
    engine's event windows. ``event_id`` is the arrival sequence (the ingest
    order a streaming job would see); the watermark after each arrival is
    the running MAX event time of everything that arrived before it, minus
    an allowed lateness of 10 minutes. An event whose window END the
    watermark has already passed at its arrival is LATE: it is excluded
    from the window aggregate but counted in the per-window late ledger
    (the audit evidence a production pipeline emits instead of silently
    dropping).

    Plan: the watermark is ``distributed_prefix_max`` over arrival order
    (range-partition + exact O(K) offsets — no global sorted pass, the same
    scale shape as ``rank_global``), then a vectorized flag stage and the
    standard combiner groupby. Oracle: the exact SQL-window twin
    (``MAX(ts) OVER (ORDER BY event_id ROWS ... 1 PRECEDING)``)."""
    from ..stages.rank import distributed_prefix_max

    ds = load_table(sf_dir, "events", ["event_id", "event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        # unit-normalized integer µs (same guard as hopping_window)
        us = _ts_us_i64(t["ts"])
        return pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "value": t["value"],
                "ts_us": us,
            }
        )

    wm = distributed_prefix_max(
        ds.map_batches(prep, batch_format="pyarrow"),
        "event_id",
        "ts_us",
        "wm_us",
    )
    hour = 3_600_000_000
    late_budget = lateness_min * 60_000_000

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        ws = (df["ts_us"].to_numpy(np.int64) // hour) * hour
        wmv = df["wm_us"]
        has_prev = wmv.notna().to_numpy()
        w = wmv.fillna(np.iinfo(np.int64).min).to_numpy(np.int64)
        late = has_prev & (w - late_budget > ws + hour)
        v = df["value"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy(),
                "window_start": ws.astype("datetime64[us]"),
                "on_": (~late).astype(np.int64),
                "late_": late.astype(np.int64),
                "v_on": np.where(late, 0.0, v),
            }
        )

    out = combiner_groupby(
        wm.map_batches(flag, batch_format="pandas"),
        ["event_type", "window_start"],
        sums={"on_": "n_on_time", "late_": "n_late", "v_on": "sum_value"},
    )
    return scale_cols(out, {"sum_value": ("sum_value_dm", 10000.0)})


@q(
    "rollup_agg",
    "SELECT l_returnflag, l_linestatus, CAST(count(*) AS BIGINT) AS n, "
    "CAST(round(sum(l_extendedprice) * 100) AS BIGINT) AS sum_price_c "
    "FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)",
)
def q_rollup_agg(sf_dir: str):
    """GROUP BY ROLLUP — hierarchical subtotals (per (flag, status), per
    flag, grand total) from ONE corpus pass: the finest-level combiner
    aggregate is computed distributed, and the coarser levels re-aggregate
    FROM IT driver-side (exact for the algebraic SUM/COUNT — group sums
    re-sum to level sums), so the rollup costs one scan + a
    groups-sized driver fold instead of three scans. Subtotal rows carry
    SQL's NULL indicator in the rolled-up key columns."""
    ds = load_table(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_extendedprice"]
    )
    fine = combiner_groupby(
        ds,
        ["l_returnflag", "l_linestatus"],
        sums={"l_extendedprice": "s"},
        count="n",
    )
    fine = to_frame(fine)  # groups-sized
    lvl2 = fine.copy()
    # dropna=False: NULL keys form a group (SQL GROUP BY convention the
    # combiner documents) and must appear in subtotal levels too (review r5)
    lvl1 = (
        fine.groupby("l_returnflag", as_index=False, dropna=False)
        .agg(s=("s", "sum"), n=("n", "sum"))
        .assign(l_linestatus=None)
    )
    lvl0 = pd.DataFrame(
        {
            "l_returnflag": [None],
            "l_linestatus": [None],
            "s": [fine["s"].sum()],
            "n": [fine["n"].sum()],
        }
    )
    out = pd.concat([lvl2, lvl1, lvl0], ignore_index=True)
    return pd.DataFrame(
        {
            "l_returnflag": out["l_returnflag"].to_numpy(dtype=object),
            "l_linestatus": out["l_linestatus"].to_numpy(dtype=object),
            "n": out["n"].to_numpy(np.int64),
            "sum_price_c": scaled_int(out["s"].to_numpy(np.float64), 100.0),
        }
    )


@q(
    "range_window",
    "SELECT event_id, CAST(round(sum(value) OVER ("
    "PARTITION BY user_id ORDER BY ts "
    "RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW) "
    "* 10000) AS BIGINT) AS roll_1h_dm FROM events",
)
def q_range_window(sf_dir: str):
    """RANGE-frame window aggregate — the TIME-interval complement of
    ``rolling_window``'s ROWS frame: per-user sum of values within the
    trailing 1 hour of EVENT TIME, peers included (SQL RANGE frames span
    the full peer group of the current timestamp, so two events at the
    same instant see each other — matched exactly via
    searchsorted(..., 'right')). A user co-partition co-locates each
    entity's history; each block is one sorted pass + per-user prefix sums
    + two vectorized searchsorted calls (``range_sums_1h``) — no per-row
    or per-user loop, no quadratic frame re-scan."""
    ds = load_table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        us = _ts_us_i64(t["ts"])
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": us,
                "value": t["value"],
            }
        )

    return co_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"], range_sums_1h
    )


_HOUR_US = 3_600_000_000


def range_sums_1h(df: pd.DataFrame) -> pd.DataFrame:
    """Per event: the sum of ``value`` over the same user's events in the
    trailing hour of ``ts_us`` (peers included), as scaled int ×10⁴.

    Each user's times shift into their own interval, more than an hour
    after the previous user's last event, so one plain ``searchsorted``
    over the sorted block never crosses users; the sums are differences
    of per-user prefix sums."""
    df, first = _by_user(df, ["user_id", "ts_us"])
    ts = df["ts_us"].to_numpy(np.int64)
    starts = np.flatnonzero(first)
    user = np.cumsum(first) - 1
    t0 = ts[starts]
    span = np.append(ts[starts[1:] - 1], ts[-1]) - t0
    base = np.concatenate([[0], np.cumsum(span + _HOUR_US + 1)[:-1]])
    key = ts - t0[user] + base[user]
    lo = np.searchsorted(key, key - _HOUR_US, side="left")
    hi = np.searchsorted(key, key, side="right")  # peer-inclusive
    pre = (
        df.groupby("user_id", sort=False, dropna=False)["value"]
        .cumsum()
        .to_numpy(np.float64)
    )
    below = np.where(lo > starts[user], pre[lo - 1], 0.0)
    return pd.DataFrame(
        {
            "event_id": df["event_id"].to_numpy(np.int64),
            "roll_1h_dm": scaled_int(pre[hi - 1] - below, 10000.0),
        }
    )


@q(
    "cube_agg",
    "SELECT l_returnflag, l_linestatus, CAST(count(*) AS BIGINT) AS n, "
    "CAST(round(sum(l_extendedprice) * 100) AS BIGINT) AS sum_price_c "
    "FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)",
)
def q_cube_agg(sf_dir: str):
    """GROUP BY CUBE — all four grouping sets ((flag,status), (flag),
    (status), ()) from the same ONE-corpus-pass plan as ``rollup_agg``:
    the finest combiner aggregate computes distributed and every coarser
    set re-aggregates from it driver-side (exact for algebraic
    SUM/COUNT)."""
    ds = load_table(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_extendedprice"]
    )
    fine = combiner_groupby(
        ds,
        ["l_returnflag", "l_linestatus"],
        sums={"l_extendedprice": "s"},
        count="n",
    )
    fine = to_frame(fine)
    by_flag = (
        fine.groupby("l_returnflag", as_index=False, dropna=False)
        .agg(s=("s", "sum"), n=("n", "sum"))
        .assign(l_linestatus=None)
    )
    by_status = (
        fine.groupby("l_linestatus", as_index=False, dropna=False)
        .agg(s=("s", "sum"), n=("n", "sum"))
        .assign(l_returnflag=None)
    )
    total = pd.DataFrame(
        {
            "l_returnflag": [None],
            "l_linestatus": [None],
            "s": [fine["s"].sum()],
            "n": [fine["n"].sum()],
        }
    )
    out = pd.concat([fine, by_flag, by_status, total], ignore_index=True)
    return pd.DataFrame(
        {
            "l_returnflag": out["l_returnflag"].to_numpy(dtype=object),
            "l_linestatus": out["l_linestatus"].to_numpy(dtype=object),
            "n": out["n"].to_numpy(np.int64),
            "sum_price_c": scaled_int(out["s"].to_numpy(np.float64), 100.0),
        }
    )


@q(
    "latest_event",
    "SELECT user_id, event_id, event_type, "
    "CAST(round(value * 10000) AS BIGINT) AS value_dm FROM ("
    "  SELECT *, row_number() OVER ("
    "    PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rk"
    "  FROM events) WHERE rk = 1",
)
def q_latest_event(sf_dir: str):
    """ARGMAX-per-group — the 'current snapshot' operator (latest event
    per user, CDC-style last-write-wins compaction): an ALGEBRAIC combiner,
    not a window sort — each batch keeps one candidate row per user (max
    (ts, event_id) lexicographically), partials merge by the same rule, so
    only user-count-sized rows reach the exchange and no per-entity sort
    ever runs. The standard plan for snapshotting a 100-TB event log."""
    ds = load_table(
        sf_dir, "events", ["user_id", "event_id", "event_type", "ts", "value"]
    )

    def best(df: pd.DataFrame) -> pd.DataFrame:
        # lexicographic argmax via sort is O(n log n) per batch but
        # vectorized; stable sort + tail(1) per user keeps max (ts, id)
        d = df.sort_values(["ts", "event_id"], kind="stable")
        return d.groupby("user_id", sort=False).tail(1)

    partials = ds.map_batches(best, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["ts", "event_id"], kind="stable")
        d = d.groupby("user_id", sort=False).tail(1)
        return pd.DataFrame(
            {
                "user_id": d["user_id"].to_numpy(np.int64),
                "event_id": d["event_id"].to_numpy(np.int64),
                "event_type": d["event_type"].to_numpy(dtype=object),
                "value_dm": scaled_int(d["value"].to_numpy(np.float64), 10000.0),
            }
        )

    return final_reduce(partials, ["user_id"], merge)


RANGE_JOIN_ORACLE_SQL = """
WITH iv AS (
  SELECT user_id AS iv_id, min(ts) AS t0, min(ts) + INTERVAL 2 HOUR AS t1
  FROM events WHERE user_id < 20 GROUP BY user_id
)
SELECT iv.iv_id, CAST(count(e.event_id) AS BIGINT) AS n_events,
       CAST(round(COALESCE(sum(e.value), 0) * 10000) AS BIGINT) AS sum_value_dm
FROM iv LEFT JOIN events e ON e.ts >= iv.t0 AND e.ts <= iv.t1
GROUP BY iv.iv_id
"""


@q("range_join", RANGE_JOIN_ORACLE_SQL)
def q_range_join(sf_dir: str, n_users: int = 20, hours: int = 2):
    """Distributed RANGE (interval-containment) JOIN — an operator Ray Data
    lacks natively, and the classic non-equi shape (ts ∈ [t0, t1], NO
    equality key) that a plain hash join cannot express. The intervals
    derive deterministically from the corpus itself (each of users 0..n-1:
    the first ``hours`` hours of their activity — maintenance-window
    shape), so no external data is involved.

    Plan — time-axis bucketing:
    - the time axis splits into 1-hour buckets; each INTERVAL replicates to
      every bucket it overlaps (replication factor = span/width + 1, bounded
      and known up front);
    - each EVENT routes to exactly ONE bucket (no replication ⇒ no double
      counting by construction);
    - a tagged-union ``co_partition`` on the bucket runs vectorized
      containment per interval inside each bucket (numpy mask per interval
      over the bucket's events — intervals per bucket are the small side by
      assumption),
      emitting per-interval COUNT/SUM partials;
    - ``combiner_groupby`` sums the partials; empty intervals come back via
      a driver-side left-merge against the (bounded) interval table.

    Partitioning assumption (documented per the custom-operator brief):
    the interval table is the small side and each interval's span is a
    small multiple of the bucket width. Long-span outlier intervals
    replicate proportionally — salt them or widen buckets at scale."""
    hour_us = 3_600_000_000
    span = hours * hour_us

    ds = load_table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        us = _ts_us_i64(t["ts"])
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts_us": us,
                "value": t["value"],
            }
        )

    ev = ds.map_batches(prep, batch_format="pyarrow")

    # 1. bounded interval table: distributed MIN(ts) per selected user
    low = ev.map_batches(
        lambda t: t.filter(pc.less(t["user_id"], n_users)),
        batch_format="pyarrow",
    )
    mins = combiner_groupby(low, ["user_id"], mins={"ts_us": "t0"})
    mins = to_frame(mins)  # ≤ n_users rows by construction
    iv = pd.DataFrame(
        {
            "iv_id": mins["user_id"].to_numpy(np.int64),
            "t0": mins["t0"].to_numpy(np.int64),
        }
    )
    iv["t1"] = iv["t0"] + span

    # 2. replicate intervals to overlapped buckets (driver-side: the
    #    interval side is bounded; at scale this is a flat_map stage)
    b0 = iv["t0"].to_numpy(np.int64) // hour_us
    b1 = iv["t1"].to_numpy(np.int64) // hour_us
    n_rep = (b1 - b0 + 1).astype(np.int64)
    rep = pd.DataFrame(
        {
            "bucket": np.repeat(b0, n_rep)
            + (
                np.arange(int(n_rep.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(n_rep) - n_rep, n_rep)
            ),
            "role": np.int64(1),
            "iv_id": np.repeat(iv["iv_id"].to_numpy(np.int64), n_rep),
            "t0": np.repeat(iv["t0"].to_numpy(np.int64), n_rep),
            "t1": np.repeat(iv["t1"].to_numpy(np.int64), n_rep),
            "value": np.float64(0.0),
        }
    )

    def tag_events(t: pa.Table) -> pa.Table:
        us = t["ts_us"]
        # FLOOR division, matching the numpy // used to replicate intervals
        # (review r5: pc.divide truncates toward zero, which on pre-epoch
        # timestamps would route an event to a bucket its containing
        # interval was never replicated to)
        us_np = us.to_numpy(zero_copy_only=False)
        bucket = pa.array(np.floor_divide(us_np, hour_us))
        n = len(t)
        return pa.table(
            {
                "bucket": bucket,
                "role": pa.array(np.zeros(n, dtype=np.int64)),
                "iv_id": pa.array(np.zeros(n, dtype=np.int64)),
                "t0": us,  # event rows carry ts in t0; t1 unused
                "t1": us,
                "value": t["value"],
            }
        )

    both = [
        ev.map_batches(tag_events, batch_format="pyarrow"),
        # arrow block: union requires matching block types with the tagged
        # event stream
        ray.data.from_arrow(
            pa.Table.from_pandas(rep, preserve_index=False).replace_schema_metadata()
        ),
    ]
    partials = co_partition(both, ["bucket"], interval_partials)
    summed = combiner_groupby(
        partials,
        ["iv_id"],
        sums={"n": "n_events", "s": "sum_value"},
    )
    summed = to_frame(summed)  # interval-bounded
    out = iv[["iv_id"]].merge(summed, on="iv_id", how="left")
    out["n_events"] = out["n_events"].fillna(0).astype(np.int64)
    out["sum_value_dm"] = scaled_int(
        out["sum_value"].fillna(0.0).to_numpy(np.float64), 10000.0
    )
    return out[["iv_id", "n_events", "sum_value_dm"]].sort_values(
        "iv_id"
    ).reset_index(drop=True)


def interval_partials(frame: pd.DataFrame) -> pd.DataFrame:
    """``range_join``'s bucket pass: per time bucket of the tagged union
    (role 1 = interval, role 0 = event carrying its ts in ``t0``), each
    interval's count and value sum of the bucket's events it contains."""
    return per_key(frame, "bucket", _match_bucket)


def _match_bucket(g: pd.DataFrame) -> pd.DataFrame:
    ivs = g[g["role"].to_numpy() == 1]
    evs = g[g["role"].to_numpy() == 0]
    ts = evs["t0"].to_numpy(np.int64)
    val = evs["value"].to_numpy(np.float64)
    out_id, out_n, out_s = [], [], []
    for iv_id, t0, t1 in zip(
        ivs["iv_id"].to_numpy(np.int64),
        ivs["t0"].to_numpy(np.int64),
        ivs["t1"].to_numpy(np.int64),
    ):
        m = (ts >= t0) & (ts <= t1)
        out_id.append(iv_id)
        out_n.append(int(m.sum()))
        out_s.append(float(val[m].sum()))
    return pd.DataFrame(
        {
            "iv_id": np.array(out_id, dtype=np.int64),
            "n": np.array(out_n, dtype=np.int64),
            "s": np.array(out_s, dtype=np.float64),
        }
    )


QUANTILES_HIST_ORACLE_SQL = """
WITH s AS (SELECT min(o_totalprice) AS lo, max(o_totalprice) AS hi, count(*) AS n FROM orders),
b AS (
  SELECT least(CAST(floor((o_totalprice - s.lo) * 4096 / (s.hi - s.lo)) AS BIGINT), 4095) AS bin,
         count(*) AS c
  FROM orders, s GROUP BY 1
),
cdf AS (SELECT bin, sum(c) OVER (ORDER BY bin) AS cum FROM b)
SELECT
  CAST(round((s.lo + ((SELECT min(bin) FROM cdf WHERE cum >= (s.n - 1) // 2 + 1) + 1) * (s.hi - s.lo) / 4096) * 100) AS BIGINT) AS p50_c,
  CAST(round((s.lo + ((SELECT min(bin) FROM cdf WHERE cum >= ((s.n - 1) * 9) // 10 + 1) + 1) * (s.hi - s.lo) / 4096) * 100) AS BIGINT) AS p90_c,
  CAST(round((s.lo + ((SELECT min(bin) FROM cdf WHERE cum >= ((s.n - 1) * 99) // 100 + 1) + 1) * (s.hi - s.lo) / 4096) * 100) AS BIGINT) AS p99_c
FROM s
"""


@q("quantiles_hist", QUANTILES_HIST_ORACLE_SQL)
def q_quantiles_hist(sf_dir: str, bins: int = 4096):
    """APPROXIMATE quantiles via a mergeable equal-width histogram sketch —
    the one-pass-per-stat scale path next to the exact rank-based
    ``quantiles``: error is bounded by one bin width ((hi-lo)/4096 ≈ 0.02%
    of the range) while the plan is two combiner passes with O(bins)
    driver state, vs the rank machinery's range-partition + offsets. At
    100 TB this is the operator a monitoring/profiling pass wants: no
    sort, no shuffle of data rows, partial histograms merge by addition
    (the classic mergeable-sketch property).

    Deterministic and hash-exact vs the SQL twin: both sides compute
    ``floor((v - lo) * bins / (hi - lo))`` clipped to the last bin, pick
    the first bin whose CDF reaches k = floor-div quantile rank, and
    report the bin's UPPER edge — identical IEEE-double expression trees,
    integer k arithmetic, shared round-half-away scaling."""
    ds = load_table(sf_dir, "orders", ["o_totalprice"])
    from ray.data.aggregate import Count, Max, Min

    s = ds.aggregate(
        Min("o_totalprice"), Max("o_totalprice"), Count()
    )
    lo = float(s["min(o_totalprice)"])
    hi = float(s["max(o_totalprice)"])
    n = int(s["count()"])
    if hi == lo:
        # constant column: every quantile IS the value; the bin expression
        # would be 0/0 (and the SQL twin equally degenerate)
        v = [int(scaled_int(lo, 100.0))]
        return pd.DataFrame({"p50_c": v, "p90_c": v, "p99_c": v})

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        v = df["o_totalprice"].to_numpy(dtype=np.float64)
        b = np.floor((v - lo) * bins / (hi - lo)).astype(np.int64)
        np.minimum(b, bins - 1, out=b)
        counts = np.bincount(b)
        nz = np.nonzero(counts)[0]
        return pd.DataFrame(
            {"bin": nz.astype(np.int64), "c": counts[nz].astype(np.int64)}
        )

    out = combiner_groupby(
        ds.map_batches(hist, batch_format="pandas"), ["bin"], sums={"c": "c"}
    )
    out = to_frame(out)  # bins ≤ 4096 — always driver
    hdf = out.sort_values("bin")
    cum = hdf["c"].to_numpy(dtype=np.int64).cumsum()
    bin_ids = hdf["bin"].to_numpy(dtype=np.int64)
    ks = {
        "p50_c": (n - 1) // 2 + 1,
        "p90_c": (n - 1) * 9 // 10 + 1,
        "p99_c": (n - 1) * 99 // 100 + 1,
    }
    res = {}
    for name, k in ks.items():
        i = int(np.searchsorted(cum, k, side="left"))
        edge = lo + (int(bin_ids[i]) + 1) * (hi - lo) / bins
        res[name] = [int(scaled_int(edge, 100.0))]
    return pd.DataFrame(res)


@q(
    "pivot_events",
    "SELECT user_id, "
    "CAST(round(coalesce(sum(CASE WHEN event_type = 'click' THEN value END), 0) * 10000) AS BIGINT) AS click_dm, "
    "CAST(round(coalesce(sum(CASE WHEN event_type = 'purchase' THEN value END), 0) * 10000) AS BIGINT) AS purchase_dm, "
    "CAST(round(coalesce(sum(CASE WHEN event_type = 'view' THEN value END), 0) * 10000) AS BIGINT) AS view_dm, "
    "count(*) AS n_events FROM events GROUP BY user_id",
)
def q_pivot_events(sf_dir: str):
    """Pivot (wide conditional aggregate): per-user sums of value by event
    type as columns. The pivot is a per-batch vectorized projection to
    indicator columns; the shuffle is then an ordinary numeric groupby-sum
    (combiner-friendly — partial sums per batch would commute at scale)."""
    ds = load_table(sf_dir, "events", ["user_id", "event_type", "value"])

    def indicators(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"user_id": df["user_id"]})
        v = df["value"].to_numpy(dtype=np.float64)
        et = df["event_type"].to_numpy()
        for t in ("click", "purchase", "view"):
            out[f"v_{t}"] = np.where(et == t, v, 0.0)
        return out

    agg = combiner_groupby(
        ds.map_batches(indicators, batch_format="pandas"),
        ["user_id"],
        sums={"v_click": "s_click", "v_purchase": "s_purchase", "v_view": "s_view"},
        count="n_events",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(dtype=np.int64),
                "click_dm": scaled_int(df["s_click"], 10000.0),
                "purchase_dm": scaled_int(df["s_purchase"], 10000.0),
                "view_dm": scaled_int(df["s_view"], 10000.0),
                "n_events": df["n_events"].to_numpy(dtype=np.int64),
            }
        )

    return map_any(agg, finish)


@q(
    "json_extract_agg",
    "SELECT event_type, "
    "CAST(sum(CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k, "
    "CAST(max(CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT)) AS BIGINT) AS max_k, "
    "count(*) AS n FROM events GROUP BY event_type",
)
def q_json_extract_agg(sf_dir: str):
    """Semi-structured column handling: extract a field from a JSON string
    column with ONE vectorized regex pass per batch (compiled once at
    module load — no per-row json.loads in the hot path), then an ordinary
    grouped aggregate."""
    ds = load_table(sf_dir, "events", ["event_type", "props"])

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        raw = df["props"].str.extract(r'"k": (\d+)', expand=False)
        bad = raw.isna()
        if bad.any():
            # match the oracle's data contract (every props row carries
            # '"k": N' — DuckDB's CAST likewise fails on a miss) with a
            # clear error naming the offender instead of a dtype-cast
            # ValueError deep inside the task
            sample = df.loc[bad, "props"].iloc[0]
            raise ValueError(
                f'json_extract_agg: {int(bad.sum())} props rows lack the '
                f'\'"k": N\' field (e.g. {sample!r})'
            )
        k = pd.to_numeric(raw, errors="raise").astype("int64")
        return pd.DataFrame({"event_type": df["event_type"], "k": k})

    return combiner_groupby(
        ds.map_batches(extract, batch_format="pandas"),
        ["event_type"],
        sums={"k": "sum_k"},
        maxs={"k": "max_k"},
        count="n",
    )


@q(
    "rank_partitioned",
    "SELECT o_orderpriority, o_orderkey, o_totalprice, rn FROM ("
    "SELECT o_orderpriority, o_orderkey, o_totalprice, "
    "ROW_NUMBER() OVER (PARTITION BY o_orderpriority "
    "ORDER BY o_totalprice DESC, o_orderkey) AS rn FROM orders) WHERE rn <= 10",
)
def q_rank_partitioned(sf_dir: str):
    # F4 (reference: RANK() OVER (PARTITION BY schema_name ...),
    # sqlserver_advanced:185-186): rank within group over a co-partition
    # on the group key.
    ds = load_table(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"])
    return co_partition(ds, ["o_orderpriority"], top10_by_priority)


def top10_by_priority(frame: pd.DataFrame) -> pd.DataFrame:
    """Per ``o_orderpriority`` of the frame: its 10 orders of highest
    ``o_totalprice`` (ties by ``o_orderkey``), numbered 1..10 in ``rn``."""
    top = (
        frame.sort_values(
            ["o_orderpriority", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
        )
        .groupby("o_orderpriority", sort=False, dropna=False)
        .head(10)
        .reset_index(drop=True)
    )
    top["rn"] = (
        top.groupby("o_orderpriority", sort=False, dropna=False)
        .cumcount()
        .to_numpy(np.int64)
        + 1
    )
    return top


@q(
    "cte_share",
    "WITH seg AS (SELECT c_mktsegment, "
    "CAST(round(sum(o_totalprice) * 100) AS BIGINT) AS seg_sales_c "
    "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c_mktsegment) "
    "SELECT c_mktsegment, seg_sales_c, "
    "CAST(round(seg_sales_c * 1000000.0 / (SELECT sum(seg_sales_c) FROM seg)) AS BIGINT) "
    "AS share_ppm FROM seg",
)
def q_cte_share(sf_dir: str):
    # F5 + F6 (reference: WITH object_stats AS (...), sqlserver_advanced:164-177
    # + arithmetic on aggregates, advanced:289): CTE = intermediate Dataset.
    orders = load_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = load_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = thresholded_join(
        orders, cust, left_on=["o_custkey"], right_on=["c_custkey"], how="inner"
    )
    seg = combiner_groupby(
        joined, ["c_mktsegment"], sums={"o_totalprice": "seg_sales"}
    )
    seg = to_frame(seg)  # segment-cardinality result, driver-safe
    seg["seg_sales_c"] = scaled_int(seg["seg_sales"], 100.0)
    total = int(seg["seg_sales_c"].sum())
    seg["share_ppm"] = scaled_int(seg["seg_sales_c"] * 1000000.0 / total, 1.0)
    return seg[["c_mktsegment", "seg_sales_c", "share_ppm"]]


@q(
    "union_all",
    "SELECT o_orderkey, o_totalprice, 'high' AS tier FROM orders WHERE o_totalprice > 250000 "
    "UNION ALL "
    "SELECT o_orderkey, o_totalprice, 'low' AS tier FROM orders WHERE o_totalprice < 1000",
)
def q_union_all(sf_dir: str):
    # set op: Dataset.union of two filtered branches (SURVEY §2.7)
    def branch(pred, tier):
        ds = load_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pred(t))
            return t.append_column("tier", pa.array([tier] * t.num_rows, pa.string()))

        return ds.map_batches(fn, batch_format="pyarrow")

    hi = branch(lambda t: pc.greater(t["o_totalprice"], 250000.0), "high")
    lo = branch(lambda t: pc.less(t["o_totalprice"], 1000.0), "low")
    return hi.union(lo)


_SESSION_GAP_US = 30 * 60 * 1_000_000


def _by_user(df: pd.DataFrame, order: list[str]):
    """``df`` sorted by ``order`` (``user_id`` first) and the mask of each
    user's first row: the group boundaries of a block holding many users."""
    df = df.sort_values(order, kind="stable").reset_index(drop=True)
    u = df["user_id"].to_numpy()
    first = np.ones(len(df), dtype=bool)
    first[1:] = u[1:] != u[:-1]
    return df, first


def _ts_us(df: pd.DataFrame) -> np.ndarray:
    return df["ts"].to_numpy("datetime64[us]").astype(np.int64)


def session_counts(df: pd.DataFrame) -> pd.DataFrame:
    """Per user of the frame: sessions (a new one after a gap over 30 min)
    and events."""
    df, first = _by_user(df, ["user_id", "ts"])
    ts = _ts_us(df)
    new_s = first.copy()
    new_s[1:] |= ts[1:] - ts[:-1] > _SESSION_GAP_US
    starts = np.flatnonzero(first)
    return pd.DataFrame(
        {
            "user_id": df["user_id"].to_numpy()[starts],
            "n_sessions": np.add.reduceat(new_s.astype(np.int64), starts),
            "n_events": np.diff(np.append(starts, len(df))).astype(np.int64),
        }
    )


def prev_gaps(df: pd.DataFrame) -> pd.DataFrame:
    """Per event: microseconds since the same user's previous event in
    (ts, event_id) order, -1 for the user's first."""
    df, first = _by_user(df, ["user_id", "ts", "event_id"])
    ts = _ts_us(df)
    gap = np.empty(len(ts), dtype=np.int64)
    gap[1:] = ts[1:] - ts[:-1]
    gap[first] = -1
    return pd.DataFrame(
        {"event_id": df["event_id"].to_numpy(np.int64), "prev_gap_us": gap}
    )


def rolling3(df: pd.DataFrame) -> pd.DataFrame:
    """Per event: the sum of ``value`` over the same user's last three
    events in (ts, event_id) order, as scaled int ×10⁴. One grouped rolling
    kernel over the sorted frame; a user's windows never cross into the
    next user's rows."""
    df, _ = _by_user(df, ["user_id", "ts", "event_id"])
    s = (
        df.groupby("user_id", sort=False, dropna=False)["value"]
        .rolling(3, min_periods=1)
        .sum()
    )
    return pd.DataFrame(
        {
            "event_id": df["event_id"].to_numpy(np.int64),
            "roll3_dm": scaled_int(s.to_numpy(), 10000.0),
        }
    )


@q(
    "sessionization",
    "WITH g AS (SELECT user_id, ts, CASE WHEN lag(ts) OVER w IS NULL "
    "OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s "
    "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)) "
    "SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions, count(*) AS n_events "
    "FROM g GROUP BY user_id",
)
def q_sessionization(sf_dir: str):
    # §2.9 streaming-shaped: session windows (30-min gap) over a user
    # co-partition — the engine's pattern for event-time windowing over a
    # partitioned log; each block sorts once and cuts every user's sessions
    ds = load_table(sf_dir, "events", ["user_id", "ts"])
    return co_partition(ds, ["user_id"], session_counts)


@q(
    "asof_join",
    "WITH l AS (SELECT event_id, user_id, ts FROM events "
    "WHERE event_type = 'purchase'), "
    "r AS (SELECT user_id, ts FROM events WHERE event_type = 'click') "
    "SELECT l.event_id, coalesce(CAST(date_diff('microsecond', "
    "(SELECT max(r.ts) FROM r WHERE r.user_id = l.user_id AND r.ts <= l.ts), "
    "l.ts) AS BIGINT), -1) AS gap_us FROM l",
)
def q_asof_join(sf_dir: str):
    """AS-OF join — an operator Ray Data lacks, built per the
    custom-operator contract as a user co-partition + one sorted,
    vectorized match per block (``stages/joins.py::asof_prev_group``, which
    documents the key-partitioning assumption): every purchase event
    matched to the user's most recent click at-or-before it; microsecond
    gap, -1 when no prior click exists. Oracle: deterministic
    correlated-max SQL (exact equivalent of DuckDB's ASOF JOIN with an
    explicit tie rule)."""
    from ..stages.joins import asof_prev_group

    ds = load_table(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return co_partition(
        ds,
        ["user_id"],
        asof_prev_group("user_id", "ts", "event_type", "purchase", "click", "event_id"),
    )


@q(
    "lag_gap",
    "SELECT event_id, coalesce(CAST(date_diff('microsecond', "
    "lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts) "
    "AS BIGINT), -1) AS prev_gap_us FROM events",
)
def q_lag_gap(sf_dir: str):
    """LAG window function: microseconds since the user's previous event
    (-1 for the first). A user co-partition + one vectorized diff over each
    sorted block (``prev_gaps``) — the offset-window family member (LEAD is
    the same shape with the next row)."""
    ds = load_table(sf_dir, "events", ["event_id", "user_id", "ts"])
    return co_partition(ds, ["user_id"], prev_gaps)


@q(
    "rolling_window",
    "SELECT event_id, CAST(round(sum(value) OVER ("
    "PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) * 10000) AS BIGINT) "
    "AS roll3_dm FROM events",
)
def q_rolling_window(sf_dir: str):
    """Rolling-frame window aggregate (ROWS BETWEEN 2 PRECEDING AND CURRENT
    ROW): per-user 3-event moving sum over event time. A user co-partition
    co-locates each entity's ordered history; the frame itself is one
    grouped pandas rolling over each sorted block (``rolling3``) — the
    ordered-frame counterpart of the tumbling ``window_agg``."""
    ds = load_table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return co_partition(ds, ["user_id"], rolling3)


@q(
    "window_agg",
    "SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n, "
    "CAST(round(sum(value) * 10000) AS BIGINT) AS sum_value_dm FROM events GROUP BY 1, 2",
)
def q_window_agg(sf_dir: str):
    # §2.9 streaming-shaped: tumbling 1h window = group by (key, floor(ts))
    ds = load_table(sf_dir, "events", ["event_type", "ts", "value"])

    def add_hour(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "hour": pc.floor_temporal(t["ts"], unit="hour"),
                "value": t["value"],
            }
        )

    out = combiner_groupby(
        ds.map_batches(add_hour, batch_format="pyarrow"),
        ["event_type", "hour"],
        sums={"value": "sum_value"},
        count="n",
    )
    return scale_cols(out, {"sum_value": ("sum_value_dm", 10000.0)})


@q(
    "join_compound",
    "SELECT e.user_id, e.event_type, count(*) AS n_later, "
    "CAST(round(sum(e.value) * 10000) AS BIGINT) AS sum_value_dm "
    "FROM events e JOIN (SELECT user_id, event_type, min(ts) AS min_ts "
    "FROM events GROUP BY user_id, event_type) f "
    "ON e.user_id = f.user_id AND e.event_type = f.event_type "
    "AND e.event_type IN ('click', 'view') "
    "WHERE e.ts > f.min_ts GROUP BY e.user_id, e.event_type",
)
def q_join_compound(sf_dir: str):
    # J4: composite join key + extra join predicate (reference:
    # sqlserver_basic_example.py:144 — ON t.object_id = p.object_id AND
    # p.index_id IN (0,1)). Physical plan: IN-filter pushed below the join
    # on both sides, a size-thresholded join on the COMPOUND key (user_id,
    # event_type), same key names on both sides, then combiner-first
    # partial aggregation.
    kinds = ("click", "view")

    def in_kinds(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["event_type"], value_set=pa.array(kinds)))

    ev = load_table(sf_dir, "events", ["user_id", "event_type", "ts", "value"])
    ev = ev.map_batches(in_kinds, batch_format="pyarrow")
    firsts = combiner_groupby(
        load_table(sf_dir, "events", ["user_id", "event_type", "ts"])
        .map_batches(in_kinds, batch_format="pyarrow"),
        ["user_id", "event_type"],
        mins={"ts": "min_ts"},
    )
    joined = thresholded_join(ev, firsts, left_on=["user_id", "event_type"])

    def later(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["ts"] > df["min_ts"]]
        return df[["user_id", "event_type", "value"]]

    out = combiner_groupby(
        joined.map_batches(later, batch_format="pandas"),
        ["user_id", "event_type"],
        sums={"value": "sum_value"},
        count="n_later",
    )
    return scale_cols(out, {"sum_value": ("sum_value_dm", 10000.0)})


@q(
    "global_count_distinct",
    "SELECT count(DISTINCT o_custkey) AS n_custs FROM orders",
)
def q_global_count_distinct(sf_dir: str):
    # A3 global form: two-phase distinct — per-batch distinct partials,
    # thresholded final (above the cap the distinct key set stays
    # distributed and only its COUNT reaches the driver)
    ds = load_table(sf_dir, "orders", ["o_custkey"])
    distinct = combiner_groupby(ds, ["o_custkey"], count="_c")
    n = len(distinct) if isinstance(distinct, pd.DataFrame) else distinct.count()
    return pd.DataFrame([{"n_custs": int(n)}])


def _clz64(w):
    """Vectorized count-leading-zeros over uint64 (6 branchless halving
    steps); callers guarantee w != 0."""
    import numpy as np

    w = w.copy()
    n = np.zeros(len(w), dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = w >> np.uint64(shift)
        has_high = high != 0
        n = np.where(has_high, n, n + shift)
        w = np.where(has_high, high, w)
    return n


@q("hll_count_distinct")  # no SQL twin: an HLL estimate has no SQL equal
def q_hll_count_distinct(sf_dir: str, p: int = 12):
    """Approximate global COUNT(DISTINCT) via HyperLogLog (Flajolet et al.
    2007) — the mergeable-sketch scale path next to the exact
    ``global_count_distinct``: the exact plan keeps the distinct key SET
    distributed (corpus-sized at 100 TB); the sketch reduces every batch to
    ≤ 2^p (register, max-rho) rows that merge by grouped MAX, so the
    exchange and the driver both hold KB regardless of corpus size.
    Deterministic (fixed siphash key, no RNG) and σ ≈ 1.04/√4096 ≈ 1.6% at
    the default p=12; accuracy pinned against the exact operator in pytest.
    Driver check is rows-only by design (no SQL reproduces the estimator)."""
    ds = load_table(sf_dir, "orders", ["o_custkey"])
    m = 1 << p

    def registers(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(
            df["o_custkey"], index=False, hash_key="b6f0e2d4c8a97531"
        ).to_numpy(np.uint64)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = (h << np.uint64(p)) | np.uint64(1)  # |1: rho capped, never clz(0)
        rho = (_clz64(w) + 1).astype(np.int64)
        out = pd.DataFrame({"reg": idx, "rho": rho})
        return out.groupby("reg", sort=False, as_index=False)["rho"].max()

    regs = combiner_groupby(
        ds.map_batches(registers, batch_format="pandas"),
        ["reg"],
        maxs={"rho": "rho"},
    )
    regs = to_frame(regs)  # ≤ 2^p rows — always driver
    M = np.zeros(m, dtype=np.int64)
    M[regs["reg"].to_numpy(np.int64)] = regs["rho"].to_numpy(np.int64)
    alpha = 0.7213 / (1 + 1.079 / m)
    E = alpha * m * m / np.sum(np.exp2(-M.astype(np.float64)))
    zeros = int((M == 0).sum())
    if E <= 2.5 * m and zeros:
        E = m * np.log(m / zeros)  # linear-counting small-range correction
    return pd.DataFrame(
        [{"n_custs_est": int(round(E)), "n_registers": m}]
    )


@q(
    "head_preview",
    "SELECT c_custkey, c_name FROM customer ORDER BY c_custkey LIMIT 5",
)
def q_head_preview(sf_dir: str):
    # O6 head preview (reference: examples/sqlserver_advanced_example.py:202):
    # ds.take(n) over a sorted stream — tiny driver result by construction
    ds = load_table(sf_dir, "customer", ["c_custkey", "c_name"])
    rows = ds.sort("c_custkey").take(5)
    return pd.DataFrame(rows)
