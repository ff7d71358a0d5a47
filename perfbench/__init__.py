"""Benchmark for bckalg; see README.md."""
