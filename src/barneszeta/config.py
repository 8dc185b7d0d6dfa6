"""Truncations of the zeta evaluators and quadratures.

DIRECT_M         cap on the rows summed directly before the outer
                 Euler-Maclaurin tail; the count is chosen from (s, alpha/w)
EM_ORDER         number of even-index Bernoulli correction terms (outer)
HURWITZ_M        cap on the head length of the Hurwitz zeta Euler-Maclaurin
                 sum; the length is chosen from (s, a)
HURWITZ_J        Bernoulli correction terms inside the Hurwitz evaluator
QUAD_CELL_ORDER  Gauss-Legendre points per cell piece of the 2-D sawtooth
                 integral (the 1-D one is in closed form)
QUAD_MAX_CELLS   hard cap on the number of its cell pieces
QUAD_TAIL_TOL    absolute tolerance allotted to its analytic tail
FD_STEP          first central-difference step of the verify
                 alpha-derivatives, relative to alpha (then halved three times)

Below a cap, ``numerics._head_length`` picks the least count whose first
omitted Bernoulli term is below 2^-53 of the tail.  SNAPSHOT echoes the
constants, caps included, in every JSON record as the ``config`` object.
"""

DIRECT_M = 64
EM_ORDER = 10
HURWITZ_M = 64
HURWITZ_J = 12
QUAD_CELL_ORDER = 12
QUAD_MAX_CELLS = 200_000
QUAD_TAIL_TOL = 1e-13
FD_STEP = 0.1

SNAPSHOT = {
    "direct_M": DIRECT_M,
    "em_order": EM_ORDER,
    "hurwitz_M": HURWITZ_M,
    "hurwitz_J": HURWITZ_J,
    "quad": {
        "cell_order": QUAD_CELL_ORDER,
        "max_cells": QUAD_MAX_CELLS,
        "tail_tol": QUAD_TAIL_TOL,
    },
    "fd_step": FD_STEP,
}
