"""Setuptools entry point.

A classic setup.py (rather than a PEP 517 build-system table) is used so
that ``pip install -e .`` works in fully offline environments that lack the
``wheel`` package; pip then falls back to ``setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'VoIP Intrusion Detection Through Interacting "
        "Protocol State Machines' (DSN 2006): vids, an EFSM-based "
        "cross-protocol VoIP IDS with a full SIP/RTP stack and "
        "discrete-event network simulator."
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    license="MIT",
    install_requires=[],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "numpy"],
    },
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": ["vids-repro=repro.cli:main"],
    },
)
