"""Benchmark of the cohomatlas CLI; run it with ``python3 -m perfbench.run``."""
