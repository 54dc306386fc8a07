"""Packaging for ``repro``, the ECT-Hub reproduction library.

There is no ``pyproject.toml``: this file holds all the metadata. The
package lives under ``src/``; ``pip install .`` or ``pip wheel .``
packages ``repro`` and every subpackage. Tests and benchmarks run from a
checkout with ``PYTHONPATH=src`` (see README.md).
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="ECT-Hub: a base-station-centric energy-communication-transportation hub",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["ect-hub = repro.cli:main"]},
)
