"""Eq, hash, repr and frozen fields as ``dataclass`` makes them, without the
import of ``dataclasses`` and the inspect, ast, dis and tokenize it loads."""

from operator import attrgetter


class Record:
    """Eq and repr over the fields ``__match_args__`` names, which alone fill
    ``__dict__``.  Records of two classes are never equal; unfrozen ones do not hash."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A hashable record that refuses assignment and deletion; its makers fill ``__dict__``."""

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__match_args__)  # the fields' tuple in one C call

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
