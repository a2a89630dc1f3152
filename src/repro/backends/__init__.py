"""The name of the one kernel engine, for drivers that record it.

COP analysis and fault simulation both run on the vectorized numpy kernels
of :mod:`repro.simulation.compiled` and :mod:`repro.analysis.compiled` over
the shared lowered-circuit IR; there is no engine to select.
:func:`resolve_backend` remains so drivers that print which engine ran keep
working.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

__all__ = ["ENGINE_NAME", "resolve_backend"]

#: Name of the kernel engine every analysis and simulation runs on.
ENGINE_NAME = "numpy"


def resolve_backend(name: Optional[str] = None) -> SimpleNamespace:
    """The kernel engine, as an object whose ``name`` is :data:`ENGINE_NAME`.

    Raises:
        ValueError: ``name`` is neither ``None`` nor :data:`ENGINE_NAME`.
    """
    if name not in (None, ENGINE_NAME):
        raise ValueError(f"unknown backend {name!r}; the only engine is {ENGINE_NAME!r}")
    return SimpleNamespace(name=ENGINE_NAME)
