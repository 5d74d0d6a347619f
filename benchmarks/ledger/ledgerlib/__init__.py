"""Harness behind ``benchmarks/ledger/run.py`` (see ../README.md).

Everything here measures the ``repro`` package *from outside*: it
generates seeded inputs, drives the public entry points, times the
calls, and checks the answers. Nothing in ``src/`` knows it exists.
"""
