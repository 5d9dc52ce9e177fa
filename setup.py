"""Package metadata for ``pip install .`` (and ``pip install -e .
--no-use-pep517`` on machines without the ``wheel`` package, which PEP 660
editable installs need).  There is no ``pyproject.toml``; this file is the
only metadata.  Running from a checkout needs no install: ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # keep equal to repro.__version__
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
