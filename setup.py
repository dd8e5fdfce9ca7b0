"""Legacy setup shim so `pip install -e . --no-use-pep517` works offline."""

from setuptools import setup

setup()
