"""Benchmark of the hemisystems package; see README.md beside this file."""
