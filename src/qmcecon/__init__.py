"""Statevector engine for amplitude-estimation Monte Carlo, with economics
workloads and gate-level runtime benchmarking."""

# the benchmark harness checks that its tracer rebinds this package-level name
from .engine import run_qmc  # noqa: F401
