"""operadkit: exact-arithmetic operads, cobar complexes and strata tables."""

from importlib import import_module

__version__ = "0.1.0"


class InputError(ValueError):
    """Input from outside the program that cannot be used: a malformed
    document or a parameter out of range.  Each module's error class
    derives from it, and the ``operadkit`` command reports it as
    ``Error: <message>`` with exit code 2."""


def load_on_first_use(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """A module ``__getattr__``: the first lookup of a name ``homes`` lists
    imports its home and binds all the home's names in ``namespace``."""
    def __getattr__(name):
        for home, names in homes.items():
            if name in names:
                loaded = import_module(f"{__name__}.{home}")
                namespace.update((n, getattr(loaded, n)) for n in names)
                return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no "
                             f"attribute {name!r}")
    return __getattr__
