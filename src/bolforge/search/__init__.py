"""Loop enumeration and counterexample search.

The cell-fill kernel exists twice: a hand-written C extension
(``_kernel_c``, built by ``setup.py``) for speed and a pure-Python twin
(``_kernel_py``) used when the extension is not built.  Both produce
identical output.  ``get_kernel()`` picks the backend, and the env var
``BOLFORGE_KERNEL`` (``c`` or ``python``) is the one way to force it;
``get_kernel(name)`` looks a backend up by name.

A kernel ``run`` given a ``leaf_cb`` is a hunt: it stops at the first
canonical leaf the callback accepts.  At the engine level a
``SearchSpec`` with a ``target`` is a hunt (``find_first``).
"""

from __future__ import annotations

import os


def get_kernel(backend: str | None = None):
    """Return the kernel module for the requested (or default) backend."""
    name = backend or os.environ.get("BOLFORGE_KERNEL") or "auto"
    if name not in ("auto", "c", "python"):
        raise ValueError(f"unknown kernel backend {name!r}")
    if name in ("auto", "c"):
        try:
            from . import _kernel_c

            return _kernel_c
        except ImportError:
            if name == "c":
                raise
    from . import _kernel_py

    return _kernel_py


from .canon import canonical_form  # noqa: E402
from .construct import construct_bruck_from_group  # noqa: E402
from .engine import (  # noqa: E402
    SearchResult,
    SearchSpec,
    SearchStats,
    SearchWitness,
    enumerate_loops,
    find_first,
)

__all__ = [
    "SearchResult",
    "SearchSpec",
    "SearchStats",
    "SearchWitness",
    "canonical_form",
    "construct_bruck_from_group",
    "enumerate_loops",
    "find_first",
    "get_kernel",
]
