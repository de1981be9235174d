"""The package's only build configuration (there is no ``pyproject.toml``).

``pip install -e . --no-use-pep517`` works with it in offline environments
where the ``wheel`` package (required by the PEP 517 editable path) is not
installed; the tests and drivers need no install at all, only
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    python_requires=">=3.9",
)
