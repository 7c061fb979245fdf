"""Config field domains, declared beside their types as ``Annotated[type, domain]``,
and the one check that reads them. A domain answers ``value in domain``; every bound
is a comparison that NaN fails, and no float domain holds an infinity."""

from dataclasses import dataclass
from functools import cache, partial
from math import inf
from typing import Annotated, get_args, get_origin, get_type_hints


@dataclass(frozen=True)
class Interval:
    """The numbers from ``lo`` to ``hi``; ``ends`` says which belong to it, as "[)" does."""

    lo: float
    hi: float = inf
    ends: str = "[)"

    def __contains__(self, value) -> bool:
        return ((self.lo <= value if self.ends[0] == "[" else self.lo < value)
                and (value <= self.hi if self.ends[1] == "]" else value < self.hi))

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}"


class _NonEmpty:
    def __contains__(self, value) -> bool:
        return len(value) > 0

    def __str__(self) -> str:
        return "the non-empty lists"


Positive = Annotated[float, Interval(0, inf, "()")]
NonNegative = Annotated[float, Interval(0)]
Finite = Annotated[float, Interval(-inf, inf, "()")]
Discount = Annotated[float, Interval(0, 1, "(]")]
Count = Annotated[int, Interval(1)]
Natural = Annotated[int, Interval(0)]
Names = Annotated[tuple[str, ...], _NonEmpty()]


# The resolved annotations of a class's fields or a function's parameters, domains kept.
hints = cache(partial(get_type_hints, include_extras=True))


def check(hint, value, name: str):
    """``value``, or ValueError naming ``name`` if it lies outside a domain ``hint`` declares;
    ``value`` has the hint's type, and each item of a ``tuple[X, ...]`` is checked against X."""
    if get_origin(hint) is Annotated:
        for domain in hint.__metadata__:
            if value not in domain:
                raise ValueError(f"{name} must be in {domain}, got {value!r}")
    elif get_origin(hint) is tuple:
        for i, item in enumerate(value):
            check(get_args(hint)[0], item, f"{name}[{i}]")
    elif value is not None:  # X | None: a value checks against X
        for arg in get_args(hint):
            check(arg, value, name)
    return value


class Checked:
    """A dataclass base whose construction checks every field against its domain."""

    def __post_init__(self):
        for name, hint in hints(type(self)).items():
            check(hint, getattr(self, name), name)
