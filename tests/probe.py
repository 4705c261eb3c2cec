"""``counting``: the one way the tests and ``tools/`` count kernel calls."""

from collections import Counter
from contextlib import contextmanager
from importlib import import_module


@contextmanager
def counting(*targets):
    """Rebind each ``module.name`` of ``lrcommute``, such as
    ``"commutor._admissible"``, to a wrapper that counts its calls; yield the
    ``Counter`` of calls by target, and restore every target on exit.  A
    target that does not resolve raises before any is rebound."""
    calls = Counter()
    found = []
    for target in targets:
        module, _, name = target.rpartition(".")
        owner = import_module(f"lrcommute.{module}")
        found.append((target, owner, name, getattr(owner, name)))

    def counted(target, fn):
        def call(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)
        return call

    for target, owner, name, fn in found:
        setattr(owner, name, counted(target, fn))
    try:
        yield calls
    finally:
        for _target, owner, name, fn in reversed(found):
            setattr(owner, name, fn)
