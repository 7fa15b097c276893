"""Call-time hook to the term-arithmetic kernel, `bassinv._core_py`.

The engine looks the kernel up through `active()` on every call, so a test
or a tracer can substitute a proxy (for counting or timing) by replacing
`active`.
"""

from . import _core_py


def active():
    return _core_py


def backend_name():
    """The kernel's name, as the benchmark reports it."""
    return "python"


def available_backends():
    return [backend_name()]
