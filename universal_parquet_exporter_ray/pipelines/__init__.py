from typing import Callable

from .encode import encode_dataset, read_encoded  # noqa: F401
from .verify import compression_report, decoded_dataset, verify_roundtrip  # noqa: F401

# the one query registry: ``relational.py`` and ``textops.py`` register each
# named pipeline here with ``@q``, and ``ORACLE_SQL`` holds its DuckDB twin
# (same column names); a query with no twin gets the rows-only check
QUERIES: dict[str, Callable] = {}
ORACLE_SQL: dict[str, str] = {}


def q(name: str, sql: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if sql is not None:
            ORACLE_SQL[name] = sql
        return fn

    return deco
