import pytest

from klpoly import (
    KLCache,
    bruhat_leq,
    compose,
    interval,
    kl_polynomial,
    length,
    longest_element,
    mu,
)
from klpoly.polynomial import ZERO


@pytest.fixture(scope="session")
def shared_cache() -> KLCache:
    """One memo table for the whole run; values never go stale."""
    return KLCache()


def _split_at_descent(x, w, i, cache):
    """The right side of the defining recursion for P(x, w), split at
    the right descent i of w (w(i) > w(i+1)), with s = s_i:

        q^c P(x, ws) + q^(1-c) P(xs, ws)
            - sum of mu(z, ws) q^((l(w) - l(z)) / 2) P(x, z)

    over z in [x, ws] with zs < z, where c is 1 when xs < x and 0
    otherwise.  The recursion itself splits on the largest descent
    only, so any other descent gives an outside check of its values.
    """
    ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]
    xs = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1:]
    c = 1 if x[i - 1] > x[i] else 0
    total = kl_polynomial(x, ws, cache).shift(c) + kl_polynomial(
        xs, ws, cache
    ).shift(1 - c)
    if bruhat_leq(x, ws):
        for z in interval(x, ws).elements:
            if z[i - 1] > z[i]:
                m = mu(z, ws, cache)
                if m:
                    gap = (length(w) - length(z)) // 2
                    total = total - kl_polynomial(x, z, cache).shift(gap) * m
    return total


@pytest.fixture(scope="session")
def split_at_descent():
    """The recursion's right side at a chosen descent, as a function of
    (x, w, i, cache)."""
    return _split_at_descent


def _inversion_sum(x, w, cache):
    """The signed sum of the inversion identity on [x, w], in Z[q]:

        sum over x <= z <= w of (-1)^(l(z) + l(w)) P(z, w) P(w0 z, w0 x)

    by polynomial arithmetic over the layers of the interval, as the sum
    was taken before it was packed into integers.  The identity holds
    when this is 1 for x = w and 0 otherwise.
    """
    w0x = compose(longest_element(len(x)), x)
    total = ZERO
    for k, layer in enumerate(interval(x, w).layers):
        for z in layer:
            term = kl_polynomial(z, w, cache) * kl_polynomial(
                compose(longest_element(len(z)), z), w0x, cache
            )
            total = total - term if k % 2 else total + term
    return total


@pytest.fixture(scope="session")
def inversion_sum():
    """The inversion identity's signed sum as a polynomial, as a
    function of (x, w, cache)."""
    return _inversion_sum
