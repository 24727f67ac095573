"""Pyramid and unimodal counting series and the product-form identity.

A series truncated at q^order is a list of order + 1 ints, coefficient
k at index k.  Each series here is a sparse numerator times factors
(1 + q^k) and 1/(1 - q^k), applied one at a time in place.
"""

from __future__ import annotations

from .partitions import Partition, partitions


def _times_one_plus(f: list[int], k: int) -> list[int]:
    """f * (1 + q^k), truncated to len(f) coefficients, in place."""
    for i in range(len(f) - 1, k - 1, -1):
        f[i] += f[i - k]
    return f


def _over_one_minus(f: list[int], k: int) -> list[int]:
    """f / (1 - q^k), truncated to len(f) coefficients, in place."""
    for i in range(k, len(f)):
        f[i] += f[i - k]
    return f


def _sparse(terms, order: int) -> list[int]:
    """The series sum of c q^e over (e, c) in terms, truncated at q^order."""
    f = [0] * (order + 1)
    for e, c in terms:
        if e <= order:
            f[e] += c
    return f


def pyramid_count_formula(p: Partition) -> int:
    """Number of pyramids with row lengths p: prod(2(p_i - p_{i+1}) + 1)."""
    parts = p.parts
    out = 1
    for i in range(len(parts) - 1):
        out *= 2 * (parts[i] - parts[i + 1]) + 1
    return out


def pyramid_counts_by_partition(order: int) -> list[int]:
    """counts[n] = sum over partitions of n of the pyramid count product."""
    if order < 1:
        raise ValueError("order must be >= 1")
    counts = [0] * (order + 1)
    for n in range(1, order + 1):
        counts[n] = sum(pyramid_count_formula(p) for p in partitions(n))
    return counts


def pyramid_count_series(order: int) -> list[int]:
    """Closed-form generating function for pyramid counts.

    F(q) = sum_{n>=1} (prod_{k=1}^{n-1} (1+q^k)/(1-q^k)^2) * q^n/(1-q^n)

    In Horner form F = G_1, where G_n = 0 for n > order and
    G_n = (q^n + G_{n+1} (1+q^n)/(1-q^n)) / (1-q^n).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    f = [0] * (order + 1)
    for n in range(order, 0, -1):
        _over_one_minus(_times_one_plus(f, n), n)
        f[n] += 1
        _over_one_minus(f, n)
    return f


def unimodal_count_series(order: int) -> list[int]:
    """Generating function for unimodal compositions:

    U(q) = sum_{n>=1} (-1)^{n+1} q^{binom(n+1,2)} / prod_{k>=1} (1-q^k)^2
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    f = _sparse(((n * (n + 1) // 2, 1 if n % 2 else -1)
                 for n in range(1, order + 1)), order)
    for k in range(1, order + 1):
        _over_one_minus(_over_one_minus(f, k), k)
    return f


def pyramid_series_identity_check(order: int) -> bool:
    """Check the closed product form of the pyramid generating function:

    F(q) = sum_{n>=1} (q^{(3n^2-n)/2} - q^{(3n^2+n)/2})
           * prod_{k>=1} (1+q^k)/(1-q^k)^2

    coefficientwise through q^order.
    """
    lhs = pyramid_count_series(order)
    rhs = _sparse([t for n in range(1, order + 1)
                   for t in (((3 * n * n - n) // 2, 1),
                             ((3 * n * n + n) // 2, -1))], order)
    for k in range(1, order + 1):
        _over_one_minus(_over_one_minus(_times_one_plus(rhs, k), k), k)
    return lhs == rhs
