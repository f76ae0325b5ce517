"""Total integer valuations over a declared variable set."""

from __future__ import annotations

from typing import Iterator, Mapping, Tuple


class Valuation:
    """An immutable total map from a fixed variable set into the integers.

    Looking up a variable outside the declared set is an error, and two
    valuations compare equal only when they have the same variable set and
    identical bindings.
    """

    __slots__ = ("_vars", "_values")

    def __init__(self, bindings: Mapping[str, int]):
        items = sorted(bindings.items())
        self._vars: Tuple[str, ...] = tuple(k for k, _ in items)
        self._values: Tuple[int, ...] = tuple(int(v) for _, v in items)

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._vars

    @property
    def values(self) -> Tuple[int, ...]:
        return self._values

    def __getitem__(self, var: str) -> int:
        try:
            i = self._vars.index(var)
        except ValueError:
            raise KeyError(f"variable {var!r} is not declared in this valuation") from None
        return self._values[i]

    def __contains__(self, var: str) -> bool:
        return var in self._vars

    def __iter__(self) -> Iterator[str]:
        return iter(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._vars == other._vars and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._vars, self._values))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in zip(self._vars, self._values))
        return f"{{{body}}}"
