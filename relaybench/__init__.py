"""Benchmark of the relaypair solvers: solve time, rate and certificate.

Run it from the root of a checkout with ``python3 relaybench/run.py``; see
``relaybench/README.md``.
"""
