"""The scipy.special functions dftmc uses, imported on first use.

``import scipy.special`` takes most of the time of ``import dftmc``, and
commands such as ``dftmc check`` never call it.  Reading ``_special.ndtri``
(or ``ndtr``, ``log_ndtr``, ``ndtri_exp``) the first time runs the plain
import through this module's ``__getattr__`` (PEP 562) and stores the
function in this module's globals, so every later read is one attribute
lookup.  The import statement holds the import lock, so threads that read
a name first at the same time each get the fully imported function.
"""

_NAMES = frozenset({"ndtr", "ndtri", "log_ndtr", "ndtri_exp"})


def __getattr__(name):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special

    function = getattr(scipy.special, name)
    globals()[name] = function
    return function
