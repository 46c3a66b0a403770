"""Turbo bins and TDP budget enforcement (Sections II-E/F, V-B).

The limiter reproduces the balanced-EPB behaviour measured in Table IV:

* targets above the budget scale core and uncore down together along a
  clock-parity line (turbo/2.5/2.4 GHz settings -> ~2.31 GHz core,
  ~2.33 GHz uncore);
* targets that *almost* exhaust the budget are undershot slightly and
  the freed headroom handed to the uncore (2.3 GHz -> ~2.27 core,
  ~2.5 uncore — the paper's 1 % IPS win over turbo);
* comfortable targets run at the request with the uncore soaking all
  remaining headroom up to its UFS target (2.2 GHz -> uncore ~2.8;
  2.1 GHz -> below 120 W, nothing throttles, uncore at 3.0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from repro.engine.rng import DrawBatch
from repro.pcu.epb import Epb
from repro.power.model import PowerModel
from repro.specs.cpu import CpuSpec

# Uncore/core clock-parity ratio the PCU maintains when both domains are
# power constrained (balanced EPB).
PARITY = 1.01
# Budget utilization above which the PCU undershoots the core request and
# shifts headroom to the uncore.
NEAR_BUDGET_UTILIZATION = 0.97
CORE_UNDERSHOOT = 0.013
# Control-loop dither on TDP-bound grants (the duty-cycling hardware
# oscillation that makes measured medians sit between 100 MHz bins).
DITHER_SIGMA_HZ = 5e6
#: Arguments of the one dither draw, ``normal(mean, sigma)``.
DITHER_ARGS = (0.0, DITHER_SIGMA_HZ)


@dataclass(frozen=True)
class FrequencyDecision:
    """One PCU tick's frequency grants for a socket."""

    core_targets_hz: dict[int, float]    # per active core id
    uncore_hz: float | None              # None = clock halted
    tdp_bound: bool


@dataclass(frozen=True)
class OperatingPoint:
    """The limiter's undithered solve for one input point.

    ``f_common`` is the highest pre-TDP core target, or ``None`` when
    there is nothing to grant (package asleep, or no target): such a
    point grants no core and never dithers.
    """

    f_common: float | None
    f_core: float
    f_uncore: float | None
    tdp_bound: bool


class TdpLimiter:
    """Computes frequency grants under the package power budget."""

    def __init__(self, spec: CpuSpec, power_model: PowerModel,
                 budget_w: float | None = None) -> None:
        self.spec = spec
        self.power_model = power_model
        self.budget_w = budget_w if budget_w is not None else spec.tdp_w
        # The decision is a pure function of its inputs except for the
        # dither; workloads present a small rotating set of (target,
        # activity, ufs) points — steady fleets one, phase-cycling
        # fleets one per phase mix — so memoize the expensive brentq
        # solve per input point and re-dither on top. A single-entry
        # cache thrashes as soon as two phase mixes alternate.
        self._solve_memo: dict[tuple, tuple[float, float, bool]] = {}

    _SOLVE_MEMO_MAX = 128

    # ---- per-core pre-TDP target ------------------------------------------------

    def core_target_hz(self, requested_hz: float | None, n_active: int,
                       avx_capped: bool, epb: Epb, turbo_enabled: bool,
                       eet_trim_hz: float) -> float:
        """Request + turbo bins + EPB semantics + EET trim (no TDP yet)."""
        bin_cap = self.spec.turbo.limit(n_active, avx_capped)
        if requested_hz is None:
            target = bin_cap if turbo_enabled else self.spec.nominal_hz
        elif (epb is Epb.PERFORMANCE
              and requested_hz >= self.spec.nominal_hz):
            # Section II-C: EPB=performance activates turbo even when the
            # base frequency is selected.
            target = bin_cap if turbo_enabled else self.spec.nominal_hz
        else:
            target = requested_hz
        target = min(target, bin_cap)
        target = max(target - eet_trim_hz, self.spec.min_hz)
        return target

    # ---- socket-level decision -----------------------------------------------------

    def decide(
        self,
        targets_hz: dict[int, float],        # active core id -> pre-TDP target
        activity_sum: float,
        ufs_target_hz: float | None,
        rng: "np.random.Generator | DrawBatch | None" = None,
    ) -> FrequencyDecision:
        """Solve, dither and grant: :meth:`solve` then :meth:`grant`."""
        point = self.solve(targets_hz, activity_sum, ufs_target_hz)
        return self.grant(point, targets_hz, self.dither(point, rng))

    def solve(self, targets_hz: dict[int, float], activity_sum: float,
              ufs_target_hz: float | None) -> OperatingPoint:
        """The pure (memoized, draw-free) half of :meth:`decide`."""
        spec = self.spec
        if ufs_target_hz is None:
            # Package sleeping: no active cores by definition.
            return OperatingPoint(f_common=None, f_core=0.0, f_uncore=None,
                                  tdp_bound=False)
        ufs_cap = min(ufs_target_hz, spec.uncore_max_hz)
        if not targets_hz:
            return OperatingPoint(f_common=None, f_core=0.0,
                                  f_uncore=ufs_cap, tdp_bound=False)

        budget = self.budget_w
        f_common = max(targets_hz.values())

        key = (round(f_common), round(activity_sum, 6), round(ufs_cap), budget)
        memo = self._solve_memo
        hit = memo.get(key)
        if hit is not None:
            f_core, f_uncore, tdp_bound = hit
        else:
            f_core, f_uncore, tdp_bound = self._solve(
                f_common, activity_sum, ufs_cap, budget)
            if len(memo) >= self._SOLVE_MEMO_MAX:
                memo.clear()
            memo[key] = (f_core, f_uncore, tdp_bound)
        return OperatingPoint(f_common=f_common, f_core=f_core,
                              f_uncore=f_uncore, tdp_bound=tdp_bound)

    def dither(self, point: OperatingPoint,
               rng: "np.random.Generator | DrawBatch | None") -> float:
        """The core grant ceiling: the solved core frequency, plus one
        dither draw when the point is TDP-bound (the only draw a
        decision makes)."""
        f_core = point.f_core
        if point.tdp_bound and rng is not None:
            # The PCU hands in a batched buffer; callers with a bare
            # generator (tuning scripts, tests) draw directly. Same
            # distribution, same one-draw-per-decision ledger footprint.
            if isinstance(rng, DrawBatch):
                dither = float(rng.take(*DITHER_ARGS))
            else:
                dither = float(rng.normal(*DITHER_ARGS))
            f_core = min(max(f_core + dither, self.spec.min_hz),
                         point.f_common)
        return f_core

    def dither_many(self, point: OperatingPoint,
                    draws: np.ndarray) -> np.ndarray:
        """:meth:`dither` over a vector of drawn dithers (one per tick):
        elementwise the same float operations, so each entry equals the
        scalar ceiling the same draw gives."""
        if not point.tdp_bound:
            return np.full(len(draws), point.f_core)
        return np.minimum(np.maximum(point.f_core + draws, self.spec.min_hz),
                          point.f_common)

    @staticmethod
    def grant(point: OperatingPoint, targets_hz: dict[int, float],
              f_core: float) -> FrequencyDecision:
        """Per-core grants under the (dithered) ceiling ``f_core``."""
        grants = ({} if point.f_common is None
                  else {cid: min(t, f_core) for cid, t in targets_hz.items()})
        return FrequencyDecision(core_targets_hz=grants,
                                 uncore_hz=point.f_uncore,
                                 tdp_bound=point.tdp_bound)

    def _solve(self, f_common: float, activity_sum: float, ufs_cap: float,
               budget: float) -> tuple[float, float, bool]:
        spec = self.spec

        def fu_parity(f_c: float) -> float:
            return min(max(f_c * PARITY, spec.uncore_min_hz), ufs_cap)

        p_at_request = self.power_model.package_power_at(
            f_common, fu_parity(f_common), activity_sum)

        if p_at_request > budget:
            # Both domains constrained: shrink along the parity line.
            def excess(f_c: float) -> float:
                return self.power_model.package_power_at(
                    f_c, fu_parity(f_c), activity_sum) - budget

            lo, hi = spec.min_hz, f_common
            if excess(lo) >= 0.0:
                f_core = lo
            else:
                f_core = float(brentq(excess, lo, hi, xtol=1e5))
            return f_core, fu_parity(f_core), True
        if p_at_request > NEAR_BUDGET_UTILIZATION * budget:
            # Near the edge: undershoot the core, hand headroom to uncore —
            # but never below the lowest ratio the silicon can grant.
            f_core = max(f_common * (1.0 - CORE_UNDERSHOOT), spec.min_hz)
        else:
            f_core = f_common
        f_uncore = min(ufs_cap, self.power_model.solve_uncore_for_budget(
            f_core, activity_sum, budget))
        f_uncore = max(f_uncore, spec.uncore_min_hz)
        return f_core, f_uncore, False
