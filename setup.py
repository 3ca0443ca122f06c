"""Packaging for the ``repro`` simulation library.

The core package is dependency-free pure Python.  The vectorized
``repro.fastsync`` engine (``n ≥ 10^5`` sweeps) needs numpy, published
as the ``fast`` extra::

    pip install -e .          # object-model engines only
    pip install -e '.[fast]'  # + the numpy-vectorized engine
    pip install -e '.[dev]'   # + test/benchmark toolchain
"""

from setuptools import find_packages, setup

setup(
    name="repro-leader-election",
    version="0.2.0",
    description=(
        "Reproduction of 'Improved Tradeoffs for Leader Election' (PODC 2023): "
        "sync/async/vectorized clique simulators, fault injection, benchmarks"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    extras_require={
        "fast": ["numpy>=1.22"],
        "dev": ["pytest", "hypothesis", "numpy>=1.22", "ruff"],
    },
)
