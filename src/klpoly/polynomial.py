"""Exact polynomials in the variable q with integer coefficients.

Kazhdan-Lusztig computations only ever need one variable and exact
arithmetic, so this module provides a small immutable polynomial type
rather than pulling in a computer-algebra dependency.  Coefficients are
stored densely by degree with trailing zeros trimmed; the zero
polynomial has an empty coefficient tuple.  Python integers are
arbitrary precision, so no overflow is possible.
"""

from __future__ import annotations

from collections.abc import Iterable


class IntPolynomial:
    """An immutable polynomial in q with int coefficients.

    >>> p = IntPolynomial([1, 2, 1])
    >>> str(p)
    '1 + 2q + q^2'
    >>> str(p - IntPolynomial([0, 2]))
    '1 + q^2'
    >>> p.degree
    2
    >>> p.coefficient(5)
    0
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        stripped = list(coeffs)
        for c in stripped:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        while stripped and stripped[-1] == 0:
            stripped.pop()
        self._coeffs = tuple(stripped)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients from degree 0 upward, trailing zeros trimmed."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> int:
        """The coefficient of q**k, zero when k is out of range."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def evaluate(self, q: int) -> int:
        """The integer value at an integer q.

        >>> IntPolynomial([1, 2, 1]).evaluate(10)
        121
        """
        value = 0
        for c in reversed(self._coeffs):
            value = value * q + c
        return value

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def shift(self, exponent: int) -> "IntPolynomial":
        """Multiply by q**exponent."""
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        if not self._coeffs:
            return ZERO
        return IntPolynomial((0,) * exponent + self._coeffs)

    def _coerce(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial((other,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        # Adding zero returns the other operand itself: it is immutable.
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._coeffs:
            return self
        return self + (-other)

    def __rsub__(self, other: int) -> "IntPolynomial":
        return IntPolynomial((other,)) - self

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self._coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return ZERO
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for deg, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if deg == 0:
                body = str(mag)
            else:
                var = "q" if deg == 1 else f"q^{deg}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"

    def to_list(self) -> list[int]:
        """Coefficient list from degree 0 upward, for JSON output."""
        return list(self._coeffs)


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
Q = IntPolynomial((0, 1))


def geometric_sum(top_degree: int) -> IntPolynomial:
    """1 + q + ... + q**top_degree.

    >>> str(geometric_sum(2))
    '1 + q + q^2'
    >>> str(geometric_sum(0))
    '1'
    """
    if top_degree < 0:
        raise ValueError(f"top_degree must be >= 0, got {top_degree}")
    return IntPolynomial((1,) * (top_degree + 1))
