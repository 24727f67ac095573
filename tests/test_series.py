import random

import pytest

from goodgradings.cli import MAX_SERIES_ORDER
from goodgradings.partitions import Partition, partitions
from goodgradings.series import (_over_one_minus, _times_one_plus,
                                 pyramid_count_formula, pyramid_count_series,
                                 pyramid_counts_by_partition,
                                 pyramid_series_identity_check,
                                 unimodal_count_series)


def _times(f, g):
    """Truncated Cauchy product of f and g, len(f) coefficients."""
    return [sum(f[i] * g[n - i] for i in range(n + 1) if n - i < len(g))
            for n in range(len(f))]


def _kernel_cases():
    """Seeded integer series of orders 0..40, each with every k from 1 to
    order + 2, so k beyond the truncation is included."""
    rng = random.Random(20031)
    for order in range(41):
        for k in range(1, order + 3):
            yield [rng.randint(-9, 9) for _ in range(order + 1)], k


def _one_plus_minus(k, order, sign):
    """1 + sign q^k, truncated at q^order."""
    g = [1] + [0] * order
    if k <= order:
        g[k] = sign
    return g


def test_times_one_plus_is_the_truncated_product():
    for f, k in _kernel_cases():
        expected = _times(f, _one_plus_minus(k, len(f) - 1, 1))
        assert _times_one_plus(list(f), k) == expected, (f, k)


def test_over_one_minus_is_undone_by_one_minus():
    for f, k in _kernel_cases():
        g = _over_one_minus(list(f), k)
        assert _times(g, _one_plus_minus(k, len(f) - 1, -1)) == f, (f, k)


def test_series_reject_order_below_one():
    for fn in (pyramid_count_series, pyramid_counts_by_partition,
               unimodal_count_series, pyramid_series_identity_check):
        for order in (0, -2):
            with pytest.raises(ValueError, match="order must be >= 1"):
                fn(order)


def test_pyramid_count_formula():
    assert pyramid_count_formula(Partition((5,))) == 1
    assert pyramid_count_formula(Partition((2, 1))) == 3
    assert pyramid_count_formula(Partition((2, 2))) == 1
    assert pyramid_count_formula(Partition((3, 1))) == 5


def test_pyramid_series_small_coefficients():
    f = pyramid_count_series(4)
    assert f[1] == 1
    assert f[2] == 2
    assert f[3] == 5  # (3): 1, (2,1): 3, (1,1,1): 1
    assert f[4] == 11


def test_pyramid_series_matches_partition_sums():
    # the direct count over raw part tuples against the closed form, at
    # the CLI's order cap
    order = MAX_SERIES_ORDER
    assert pyramid_count_series(order) == pyramid_counts_by_partition(order)


def test_partition_sums_match_the_validated_partitions():
    # the direct count against the product formula summed over the
    # validated partitions
    assert pyramid_counts_by_partition(22) == [0] + [
        sum(map(pyramid_count_formula, partitions(n))) for n in range(1, 23)]


def test_unimodal_series_small():
    u = unimodal_count_series(6)
    assert u[1] == 1
    assert u[3] == 4
    assert u[5] == 15  # all 16 compositions except (2,1,2)


@pytest.mark.parametrize("order", [5, 20, 40, 300])
def test_product_form_identity(order):
    assert pyramid_series_identity_check(order)


def test_low_orders_are_prefixes_of_order_300():
    pyramids, unimodal = pyramid_count_series(300), unimodal_count_series(300)
    for m in range(1, 61):
        assert pyramid_count_series(m) == pyramids[:m + 1]
        assert unimodal_count_series(m) == unimodal[:m + 1]
