"""operadkit: exact-arithmetic operads, cobar complexes and strata tables."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Input from outside the program that cannot be used: a malformed
    document or a parameter out of range.  Each module's error class
    derives from it, and the ``operadkit`` command reports it as
    ``Error: <message>`` with exit code 2."""
