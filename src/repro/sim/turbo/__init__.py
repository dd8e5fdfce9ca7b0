"""Compatibility shim: its only reader is ``benchmarks/e2e/probe.py``.

The probe wraps the ``__init__`` and ``run`` of the class this returns.
"""

from ..core import Simulator

__all__ = ["simulator_class"]


def simulator_class(backend=None) -> type:
    """The class ``Simulator()`` constructs; ``backend`` is ignored."""
    return Simulator
