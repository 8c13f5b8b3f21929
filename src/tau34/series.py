"""Truncated univariate Taylor series ("jets") with generic coefficients.

Used to carry derivative towers through the recursive expansion of the
rescaled string equation.  Coefficients may be floats, complex numbers or
mpmath numbers; only ring operations and division are required.

Conventions: `Jet([c0, c1, c2, ...])` represents c0 + c1*x + c2*x^2 + ...
truncated at a fixed order; `Jet.from_derivatives` / `derivative` convert
between Taylor coefficients and derivative values.
"""
import math


class Jet:
    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    @classmethod
    def from_derivatives(cls, derivs):
        """Build from [f, f', f'', ...]."""
        return cls([d / math.factorial(k) for k, d in enumerate(derivs)])

    @classmethod
    def constant(cls, value, order):
        c = [value * 0] * (order + 1)
        c[0] = value
        return cls(c)

    @property
    def order(self):
        return len(self.c) - 1

    def derivative(self, k):
        """k-th derivative at the expansion point."""
        if k > self.order:
            raise IndexError(f"jet holds order {self.order}, asked for {k}")
        return self.c[k] * math.factorial(k)

    def _coerce(self, other, n):
        if isinstance(other, Jet):
            return other.c[: n + 1]
        c = [other * 0] * (n + 1)
        c[0] = other
        return c

    def __add__(self, other):
        n = min(self.order, other.order) if isinstance(other, Jet) else self.order
        oc = self._coerce(other, n)
        return Jet([a + b for a, b in zip(self.c[: n + 1], oc)])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.c])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet([a * other for a in self.c])
        n = min(self.order, other.order)
        out = [self.c[0] * 0] * (n + 1)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + self.c[i] * other.c[j]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet([a / other for a in self.c])
        n = min(self.order, other.order)
        if other.c[0] == 0:
            raise ZeroDivisionError("jet division by zero constant term")
        out = [self.c[0] * 0] * (n + 1)
        for i in range(n + 1):
            acc = self.c[i]
            for j in range(i):
                acc = acc - out[j] * other.c[i - j]
            out[i] = acc / other.c[0]
        return Jet(out)

    def __rtruediv__(self, other):
        return Jet.constant(other, self.order) / self

    def __repr__(self):
        return f"Jet({self.c})"
