"""Package metadata for ``pip install -e .`` (src/ layout).

Plain setuptools metadata with no ``pyproject.toml`` build isolation, so an
editable install works offline with the toolchain already present.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "SCOPe reproduction: data partitioning, compression-ratio prediction "
        "and OPTASSIGN tier-and-codec placement for cloud storage"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
