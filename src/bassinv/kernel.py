"""Selects the term-arithmetic kernel at import time.

The compiled extension (`bassinv._core_cy`) is used when it imports; the
pure-Python kernel is the fallback.  `use()` switches temporarily, for
parity tests and benchmarks.  BASSINV_KERNEL=py or =cy pins the backend of
a whole process (any other value, or a backend that is not built, raises
ImportError); the benchmark's cross-backend counter test runs its
subprocesses that way.
"""

import os
from contextlib import contextmanager

from . import _core_py

try:
    from . import _core_cy
except ImportError:
    _core_cy = None

_BACKENDS = {m.BACKEND: m for m in (_core_py, _core_cy) if m is not None}
_impl = _BACKENDS.get("cython", _core_py)
_pinned = os.environ.get("BASSINV_KERNEL")
if _pinned:
    _impl = _BACKENDS.get({"py": "python", "cy": "cython"}.get(_pinned))
    if _impl is None:
        raise ImportError(
            f"BASSINV_KERNEL={_pinned!r} selects no available backend; "
            f"use py or cy, available_backends() = {list(_BACKENDS)}")


def active():
    return _impl


def backend_name():
    return _impl.BACKEND


def available_backends():
    return list(_BACKENDS)


@contextmanager
def use(name):
    """Run the body on the backend `name`, one of available_backends()."""
    global _impl
    previous, _impl = _impl, _BACKENDS[name]
    try:
        yield _impl
    finally:
        _impl = previous
