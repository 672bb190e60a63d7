"""Benchmark for tantivy_ray; see run.py."""
