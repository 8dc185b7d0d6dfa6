"""Fixed truncations of the zeta evaluators and quadratures.

DIRECT_M         rows summed directly before the outer Euler-Maclaurin tail
EM_ORDER         number of even-index Bernoulli correction terms (outer)
HURWITZ_M        head length of the Hurwitz zeta Euler-Maclaurin sum
HURWITZ_J        Bernoulli correction terms inside the Hurwitz evaluator
QUAD_CELL_ORDER  Gauss-Legendre points per unit cell of the sawtooth integrals
QUAD_MAX_CELLS   hard cap on the number of cells
QUAD_TAIL_TOL    absolute tolerance allotted to the analytic tail
FD_STEP          central-difference step of the verify alpha-derivatives
                 (capped at alpha/4)

SNAPSHOT echoes them in every JSON record as the ``config`` object.
"""

DIRECT_M = 64
EM_ORDER = 10
HURWITZ_M = 64
HURWITZ_J = 12
QUAD_CELL_ORDER = 12
QUAD_MAX_CELLS = 200_000
QUAD_TAIL_TOL = 1e-10
FD_STEP = 5e-3

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
