"""Benchmark for the columnar-encode engine and its query registry; see README.md."""
