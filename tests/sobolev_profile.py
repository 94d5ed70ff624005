"""Closed-form pointwise bounds of the radial Sobolev criterion profile
A(r), the oracle that test_inequalities and the acceptance suite check
the scanned profile against."""

import numpy as np


def sobolev_profile_bounds(w, eq, q: float, r: np.ndarray, r0: float = 1.0) -> dict:
    """Pointwise upper bounds of the criterion profile A(r).

    Returns arrays: ``uniform`` (valid everywhere, used below r0),
    ``constant_small`` (its r0-uniform majorant), and ``large``
    (c3 * A3(r), valid everywhere, sharp for large r).
    """
    r = np.asarray(r, dtype=float)
    a1, a2 = w.alpha1, w.alpha2
    n, p = float(eq.dim_n), eq.p
    g_r = np.asarray(w.g(r), dtype=float)
    front = n ** (-1.0 / q) * ((p - 1.0) / (n - p)) ** ((p - 1.0) / p)
    uniform = front * r ** ((n * p - q * (n - p)) / (q * p)) * np.exp(
        -g_r * (q - p) / (p * q))
    a = p * q / (q - p)
    constant_small = front * min(r0 ** (1.0 - n / a), 1.0 + r0)
    c3 = ((p - 1.0) ** ((p - 1.0) / p)
          * (a2 * (a1 + 1.0) / (a1 * (a2 + 1.0))) ** (1.0 / q)
          * a1 ** (-1.0 / q) * a2 ** (-(p - 1.0) / p))
    large = c3 * (r ** (n * (p - q) + p * q) * g_r ** (-p - q * (p - 1.0))
                  * np.exp((p - q) * g_r)) ** (1.0 / (p * q))
    return {"uniform": uniform, "constant_small": constant_small, "large": large}
