import pytest

from klpoly import KLCache, bruhat_leq, interval, kl_polynomial, length, mu


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
