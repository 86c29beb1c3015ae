"""Setup shim for environments without PEP 660 support (no `wheel`).

Packages are discovered automatically from the ``src/`` layout; numpy is
the only runtime dependency.
"""
from setuptools import setup

setup(name="repro", install_requires=["numpy"])
