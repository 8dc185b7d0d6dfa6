"""Evaluation configuration shared by the zeta evaluators."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .numerics import QuadratureSpec

__all__ = ["EvalConfig"]


@dataclass(frozen=True)
class EvalConfig:
    """Precision knobs.

    direct_M      outer truncation of the row-wise Euler-Maclaurin sum
                  (the reference ``eval --method direct`` sums 32*direct_M)
    em_order      number of even-index Bernoulli correction terms (outer)
    hurwitz_M     head length of the Hurwitz zeta Euler-Maclaurin sum
    hurwitz_J     Bernoulli correction terms inside the Hurwitz evaluator
    quad          sawtooth-integral quadrature spec
    fd_step       central-difference step of the verify alpha-derivatives
                  (capped at alpha/4)
    """

    direct_M: int = 64
    em_order: int = 10
    hurwitz_M: int = 64
    hurwitz_J: int = 12
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    fd_step: float = 5e-3

    def __post_init__(self):
        if self.direct_M < 8:
            raise ValueError("direct_M must be >= 8")
        if not 1 <= self.em_order <= 32:
            raise ValueError("em_order must be in 1..32")
        if self.hurwitz_M < 2 or not 1 <= self.hurwitz_J <= 16:
            raise ValueError("bad hurwitz truncation")
        if not self.fd_step > 0:
            raise ValueError("fd_step must be positive")

    def with_(self, **kwargs) -> "EvalConfig":
        return replace(self, **kwargs)

    def snapshot(self) -> dict:
        return {
            "direct_M": self.direct_M,
            "em_order": self.em_order,
            "hurwitz_M": self.hurwitz_M,
            "hurwitz_J": self.hurwitz_J,
            "quad": {
                "cell_order": self.quad.cell_order,
                "max_cells": self.quad.max_cells,
                "tail_tol": self.quad.tail_tol,
            },
            "fd_step": self.fd_step,
        }


DEFAULT_CONFIG = EvalConfig()
