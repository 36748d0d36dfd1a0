"""Benchmark harness for the sasvbackend package; entry point run.py."""
