"""RAPL (running average power limiting) energy accounting (Section IV).

Two backends reproduce the paper's central RAPL finding:

* :class:`MeasuredRaplBackend` — Haswell-EP: FIVR current sensing makes
  RAPL an actual *measurement*; the accumulated energy equals the ground
  truth (plus quantization to the energy unit and the ~1 ms register
  update period).
* :class:`ModeledRaplBackend` — Sandy Bridge-EP: RAPL was a *model*
  driven by event counters, with a workload-dependent bias. The backend
  scales true energy by the bias factor of whatever is executing, which
  recreates the per-workload branches of Fig. 2a.

Haswell-EP specifics the paper documents are enforced here: the PP0
(core) domain is not supported; the DRAM domain must be read with the
15.3 uJ energy unit (DRAM mode 1) rather than the generic unit of the
SDM — configuring mode 0 yields the "unreasonably high values" the paper
warns about; counters are 32-bit and wrap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import UnsupportedFeatureError, ConfigurationError
from repro.specs.cpu import CpuSpec


class RaplDomain(enum.Enum):
    PACKAGE = "package"
    DRAM = "dram"
    PP0 = "pp0"

    # Identity hash (consistent with enum identity-equality): the
    # accumulation path hits the per-domain dicts on every integration
    # segment, and the Python-level Enum.__hash__ shows up there.
    __hash__ = object.__hash__


class DramRaplMode(enum.Enum):
    """BIOS-selectable DRAM RAPL mode. Haswell-EP supports only mode 1."""

    MODE0 = 0
    MODE1 = 1


_COUNTER_BITS = 32
_COUNTER_WRAP = 1 << _COUNTER_BITS


class MeasuredRaplBackend:
    """FIVR-based energy measurement: accumulates ground-truth joules."""

    def accumulate(self, true_joules: float, bias: float) -> float:
        return true_joules


class ModeledRaplBackend:
    """Pre-Haswell event-counter model: workload-biased estimate."""

    def accumulate(self, true_joules: float, bias: float) -> float:
        return true_joules * bias


@dataclass
class RaplBank:
    """The RAPL MSR bank of one socket."""

    spec: CpuSpec
    backend: MeasuredRaplBackend | ModeledRaplBackend
    dram_mode: DramRaplMode = DramRaplMode.MODE1
    # continuously integrated energy (J) per domain
    _energy_j: dict[RaplDomain, float] = field(default_factory=dict)
    # snapshot visible through the MSR, refreshed every ~1 ms
    _visible_j: dict[RaplDomain, float] = field(default_factory=dict)
    # raw-counter skew (counts) per domain — fault injection shifts the
    # 32-bit counter's phase so a wrap lands at a chosen instant without
    # perturbing the true accumulated energy
    _counter_skew: dict[RaplDomain, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        domains = [RaplDomain.PACKAGE, RaplDomain.DRAM]
        if self.spec.has_pp0_rapl:
            domains.append(RaplDomain.PP0)
        self._energy_j = {d: 0.0 for d in domains}
        self._visible_j = {d: 0.0 for d in domains}
        if (self.dram_mode is DramRaplMode.MODE0
                and self.spec.rapl_dram_energy_unit_j not in (0.0,)
                and self.spec.microarch.codename == "haswell-ep"):
            # Allowed (a BIOS may still offer it) but behaviour is wrong;
            # reads will use the generic unit. See read_energy_j().
            pass

    # ---- accumulation (called from the socket integrator) -------------------

    def accumulate(self, domain: RaplDomain, true_joules: float,
                   bias: float = 1.0) -> None:
        if domain not in self._energy_j:
            raise UnsupportedFeatureError(
                f"RAPL domain {domain.value} not supported on {self.spec.model}")
        self._energy_j[domain] += self.backend.accumulate(true_joules, bias)

    def accumulate_pkg_dram(self, pkg_joules: float, dram_joules: float,
                            bias: float) -> None:
        """Fused hot-path accumulate for the two always-present domains.

        The socket integrator credits PACKAGE and DRAM on every segment;
        both domains exist on every supported part (only PP0 varies), so
        this skips the per-call membership check of :meth:`accumulate`.
        """
        acc = self.backend.accumulate
        energy = self._energy_j
        energy[RaplDomain.PACKAGE] += acc(pkg_joules, bias)
        energy[RaplDomain.DRAM] += acc(dram_joules, bias)

    def pkg_dram_energy(self) -> tuple[float, float]:
        """Accumulated (PACKAGE, DRAM) joules."""
        energy = self._energy_j
        return energy[RaplDomain.PACKAGE], energy[RaplDomain.DRAM]

    def set_pkg_dram_energy(self, pkg_j: float, dram_j: float) -> None:
        """Store the (PACKAGE, DRAM) sums a batch of segments reached —
        each added left to right as :meth:`accumulate_pkg_dram` adds."""
        energy = self._energy_j
        energy[RaplDomain.PACKAGE] = pkg_j
        energy[RaplDomain.DRAM] = dram_j

    def latch_pkg_dram(self, pkg_j: float, dram_j: float) -> None:
        """:meth:`refresh` at an instant the PACKAGE and DRAM domains
        held ``pkg_j`` and ``dram_j`` (a batch latching mid-way)."""
        self.refresh()
        visible = self._visible_j
        visible[RaplDomain.PACKAGE] = pkg_j
        visible[RaplDomain.DRAM] = dram_j

    def refresh(self) -> None:
        """Latch accumulated energy into the visible MSR snapshot.

        Hardware updates the energy-status MSRs roughly once per
        millisecond; the node schedules this at
        ``spec.rapl_update_period_ns``.
        """
        for domain, value in self._energy_j.items():
            self._visible_j[domain] = value

    # ---- units ------------------------------------------------------------------

    def energy_unit_j(self, domain: RaplDomain) -> float:
        """The unit a *correct* reader must apply for ``domain``.

        On Haswell-EP the DRAM domain uses 15.3 uJ (Section IV, quoting
        the registers datasheet), not the generic unit from the SDM.
        """
        if domain is RaplDomain.DRAM and self.dram_mode is DramRaplMode.MODE1:
            unit = self.spec.rapl_dram_energy_unit_j
        else:
            unit = self.spec.rapl_energy_unit_j
        if unit <= 0.0:
            raise UnsupportedFeatureError(
                f"{self.spec.model} has no RAPL energy unit for {domain.value}")
        return unit

    # ---- reads --------------------------------------------------------------------

    def read_counter(self, domain: RaplDomain) -> int:
        """Raw 32-bit energy-status counter (wraps)."""
        if domain not in self._visible_j:
            raise UnsupportedFeatureError(
                f"RAPL domain {domain.value} not supported on {self.spec.model}")
        unit = self.energy_unit_j(domain)
        skew = self._counter_skew.get(domain, 0)
        return (int(self._visible_j[domain] / unit) + skew) % _COUNTER_WRAP

    # ---- fault injection ----------------------------------------------------

    def force_wrap(self, domain: RaplDomain, margin_counts: int = 0) -> int:
        """Skew the counter so it wraps after ``margin_counts`` more counts.

        Models the 32-bit counter being caught near its wrap point
        mid-measurement. Only the raw counter phase changes — the true
        accumulated energy is untouched, so wrap-aware readers
        (:func:`wraparound_delta`) still recover exact deltas while naive
        ``after - before`` subtraction goes hugely negative. Returns the
        skewed counter value.
        """
        if not 0 <= margin_counts < _COUNTER_WRAP:
            raise ConfigurationError(
                f"wrap margin must be in [0, 2^32), got {margin_counts}")
        current = self.read_counter(domain)
        target = (_COUNTER_WRAP - margin_counts) % _COUNTER_WRAP
        self._counter_skew[domain] = (
            self._counter_skew.get(domain, 0) + target - current)
        return self.read_counter(domain)

    def read_energy_j(self, domain: RaplDomain,
                      assumed_unit_j: float | None = None) -> float:
        """Counter scaled by an energy unit, as software would compute it.

        ``assumed_unit_j`` lets callers reproduce the misconfiguration the
        paper warns about: scaling the Haswell DRAM counter with the
        generic SDM unit produces values ~4x too high.
        """
        unit = assumed_unit_j if assumed_unit_j is not None \
            else self.energy_unit_j(domain)
        if unit <= 0.0:
            raise ConfigurationError("energy unit must be positive")
        return self.read_counter(domain) * unit

    def true_energy_j(self, domain: RaplDomain) -> float:
        """Unquantized accumulated energy (test/analysis convenience)."""
        if domain not in self._energy_j:
            raise UnsupportedFeatureError(
                f"RAPL domain {domain.value} not supported on {self.spec.model}")
        return self._energy_j[domain]


def wraparound_delta(counter_before: int, counter_after: int) -> int:
    """Counter difference accounting for 32-bit wrap (at most one wrap)."""
    delta = counter_after - counter_before
    if delta < 0:
        delta += _COUNTER_WRAP
    return delta


def unit_exponent(unit_j: float) -> int:
    """The SDM ``1/2^n`` exponent closest to a given energy unit."""
    return round(-math.log2(unit_j))
