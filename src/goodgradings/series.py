"""Truncated integer power series and the pyramid counting identities."""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, partitions


@dataclass(frozen=True)
class PowerSeries:
    """A power series in q truncated at a fixed order.

    coeffs[k] is the coefficient of q^k; len(coeffs) == order + 1.
    Arithmetic truncates eagerly, so products stay cheap.
    """

    coeffs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls((1,) + (0,) * order)

    @classmethod
    def monomial(cls, k: int, order: int, coeff: int = 1) -> "PowerSeries":
        c = [0] * (order + 1)
        if 0 <= k <= order:
            c[k] = coeff
        return cls(tuple(c))

    def _check(self, other: "PowerSeries"):
        if self.order != other.order:
            raise ValueError("mixed truncation orders")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires unit constant term."""
        if self.coeffs[0] not in (1, -1):
            raise ValueError("inverse needs constant term +-1")
        n = self.order
        c0 = self.coeffs[0]
        inv = [c0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                acc += self.coeffs[i] * inv[k - i] if i <= n else 0
            inv[k] = -c0 * acc
        return PowerSeries(tuple(inv))


def _one_minus_q_pow(k: int, order: int) -> PowerSeries:
    return PowerSeries.one(order) - PowerSeries.monomial(k, order)


def _one_plus_q_pow(k: int, order: int) -> PowerSeries:
    return PowerSeries.one(order) + PowerSeries.monomial(k, order)


def pyramid_count_formula(p: Partition) -> int:
    """Number of pyramids with row lengths p: prod(2(p_i - p_{i+1}) + 1)."""
    parts = p.parts
    out = 1
    for i in range(len(parts) - 1):
        out *= 2 * (parts[i] - parts[i + 1]) + 1
    return out


def pyramid_counts_by_partition(order: int) -> list[int]:
    """counts[n] = sum over partitions of n of the pyramid count product."""
    counts = [0] * (order + 1)
    for n in range(1, order + 1):
        counts[n] = sum(pyramid_count_formula(p) for p in partitions(n))
    return counts


def pyramid_count_series(order: int) -> PowerSeries:
    """Closed-form generating function for pyramid counts.

    F(q) = sum_{n>=1} (prod_{k=1}^{n-1} (1+q^k)/(1-q^k)^2) * q^n/(1-q^n)
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    total = PowerSeries.zero(order)
    prefix = PowerSeries.one(order)
    for n in range(1, order + 1):
        term = prefix * PowerSeries.monomial(n, order) * _one_minus_q_pow(n, order).inverse()
        total = total + term
        inv = _one_minus_q_pow(n, order).inverse()
        prefix = prefix * _one_plus_q_pow(n, order) * inv * inv
    return total


def unimodal_count_series(order: int) -> PowerSeries:
    """Generating function for unimodal compositions:

    U(q) = sum_{n>=1} (-1)^{n+1} q^{binom(n+1,2)} / prod_{k>=1} (1-q^k)^2
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    alt = PowerSeries.zero(order)
    n = 1
    while n * (n + 1) // 2 <= order:
        sign = 1 if n % 2 == 1 else -1
        alt = alt + PowerSeries.monomial(n * (n + 1) // 2, order, sign)
        n += 1
    prod = PowerSeries.one(order)
    for k in range(1, order + 1):
        inv = _one_minus_q_pow(k, order).inverse()
        prod = prod * inv * inv
    return alt * prod


def _half_pentagonal_exponents(order: int):
    n = 1
    while (3 * n * n - n) // 2 <= order:
        yield ((3 * n * n - n) // 2, (3 * n * n + n) // 2)
        n += 1


def pyramid_series_identity_check(order: int) -> bool:
    """Check the closed product form of the pyramid generating function:

    F(q) = sum_{n>=1} (q^{(3n^2-n)/2} - q^{(3n^2+n)/2})
           * prod_{k>=1} (1+q^k)/(1-q^k)^2

    coefficientwise through q^order.
    """
    lhs = pyramid_count_series(order)
    alt = PowerSeries.zero(order)
    for lo, hi in _half_pentagonal_exponents(order):
        alt = alt + PowerSeries.monomial(lo, order) - PowerSeries.monomial(hi, order)
    prod = PowerSeries.one(order)
    for k in range(1, order + 1):
        inv = _one_minus_q_pow(k, order).inverse()
        prod = prod * _one_plus_q_pow(k, order) * inv * inv
    rhs = alt * prod
    return lhs == rhs
