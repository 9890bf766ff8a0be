"""Bound verification records shared by the order-statistic and bound modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["VERDICT_PASS", "VERDICT_FAIL", "VERDICT_VACUOUS", "BoundReport"]

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_VACUOUS = "vacuous"


@dataclass
class BoundReport:
    """One analytic bound against one empirical measurement.

    ``stderr`` is the Monte Carlo standard error (or quadrature error bound).
    The verdict is always computed: pass when ``empirical - 3*stderr <=
    analytic``, and vacuous when the analytic side is infinite.
    """

    bound_name: str
    analytic_value: float
    empirical_value: float
    stderr: float = 0.0
    params: dict = field(default_factory=dict)
    verdict: str = field(init=False)
    message: str = ""

    def __post_init__(self):
        self.verdict = self._judge()

    def _judge(self) -> str:
        if math.isinf(self.analytic_value) and self.analytic_value > 0:
            return VERDICT_VACUOUS
        if not math.isfinite(self.empirical_value):
            return VERDICT_FAIL
        # bounds that are exactly tight (uniform-parent MSE) differ from the
        # measurement only by round-off; equality holds up to 1e-12 relative
        dust = 1e-12 * max(abs(self.analytic_value), abs(self.empirical_value), 1e-300)
        if self.empirical_value - 3.0 * self.stderr <= self.analytic_value + dust:
            return VERDICT_PASS
        return VERDICT_FAIL

    @property
    def slack(self) -> float:
        return self.analytic_value - self.empirical_value

    @property
    def passed(self) -> bool:
        return self.verdict in (VERDICT_PASS, VERDICT_VACUOUS)

    def to_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "analytic_value": self.analytic_value,
            "empirical_value": self.empirical_value,
            "stderr": self.stderr,
            "slack": self.slack,
            "verdict": self.verdict,
            "params": dict(self.params),
            "message": self.message,
        }
