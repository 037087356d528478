"""Reference pivot loop for the tests of :mod:`rlasszero.lp`.

A plain revised-simplex loop with the solver's pricing, tie and Bland
rules that allocates and recomputes everything on every pivot: the costs
of the basis by fancy indexing, the reduced costs, the ratio buffer, and
the update with ``np.clip`` and ``np.outer``. It shares no code with the
solver's loop, only the tolerances, so a test can swap
``pivot_loop``/``apply_pivot`` in for ``lp._pivot_loop``/``lp._apply_pivot``
and check that the solver makes the same pivots bit for bit.
"""

import numpy as np

from rlasszero import lp


def refactor(a, b, basis):
    binv = np.linalg.inv(a[:, basis])
    xb = binv @ b
    np.clip(xb, 0.0, None, out=xb)
    return binv, xb


def apply_pivot(binv, xb, basis, d, leave, enter):
    """Update the basis inverse and basic values after a pivot."""
    piv = d[leave]
    t = xb[leave] / piv
    xb -= t * d
    xb[leave] = t
    np.clip(xb, 0.0, None, out=xb)
    row = binv[leave] / piv
    binv -= np.outer(d, row)
    binv[leave] = row
    basis[leave] = enter


def pivot_loop(a, b, c, basis, binv, xb, n_price, n_signed,
               max_pivots, bland_after):
    """Simplex pivots with Dantzig pricing, smallest-index ties and a
    Bland switch after ``bland_after`` pivots. Column ``n_signed + j`` is
    minus column j and both are priced with one product; with
    ``n_signed=0`` every column is priced with its own product."""
    m = a.shape[0]
    k = n_signed
    a_pair, a_rest = a[:, :k], a[:, 2 * k:n_price]
    c_u, c_v, c_rest = c[:k], c[k:2 * k], c[2 * k:n_price]
    reduced = np.empty(n_price)
    r_u, r_v, r_rest = reduced[:k], reduced[k:2 * k], reduced[2 * k:]
    w = np.empty(k)
    threshold = -lp._OPT_TOL * (1.0 + np.abs(c).max())
    it = 0
    while True:
        if it and it % lp._REFACTOR_EVERY == 0:
            new = refactor(a, b, basis)
            binv[:, :] = new[0]
            xb[:] = new[1]
        y = c[basis] @ binv
        if k:
            np.matmul(y, a_pair, out=w)
            np.subtract(c_u, w, out=r_u)
            np.add(c_v, w, out=r_v)
        if r_rest.size:
            np.subtract(c_rest, y @ a_rest, out=r_rest)
        reduced[basis[basis < n_price]] = 0.0
        enter = int(np.argmin(reduced))
        if reduced[enter] >= threshold:
            return lp.OPTIMAL
        if it >= bland_after:
            enter = int(np.flatnonzero(reduced < threshold)[0])
        d = binv @ a[:, enter]
        ratios = np.divide(xb, d, out=np.full(m, np.inf),
                           where=d > lp._FEAS_TOL)
        best = ratios.min()
        if best == np.inf:
            return lp.UNBOUNDED
        ties = np.flatnonzero(ratios <= best + lp._FEAS_TOL)
        leave = int(ties[np.argmin(basis[ties])])
        apply_pivot(binv, xb, basis, d, leave, enter)
        it += 1
        if it >= max_pivots:
            return lp.TOLERANCE_FAILURE


def full_pricing_loop(a, b, c, basis, binv, xb, n_price, n_signed,
                      max_pivots, bland_after):
    """:func:`pivot_loop` that ignores ``n_signed`` and prices every
    column with its own product."""
    return pivot_loop(a, b, c, basis, binv, xb, n_price, 0,
                      max_pivots, bland_after)
