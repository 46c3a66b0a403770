"""One processor package: cores + uncore + RAPL + power integration.

``integrate(t0, t1, ...)`` advances all counters and energy accumulators
in closed form over a segment during which every frequency, c-state and
workload phase is constant (the engine guarantees this). This is where
the frequency, bandwidth, IPC and power models meet.

Steady-state fast path: most consecutive segments share the exact same
operating point, so the per-second rates are computed once per *epoch*
(a socket-local dirty counter bumped by every mutation that can change
rates — frequency grants, phase swaps, c-state transitions, AVX-license
changes, uncore frequency/halt; see :mod:`repro.engine.epoch`) and the
per-core accumulation is a single vectorized multiply-add into the
structure-of-arrays counter matrix — one per node: the sockets' matrices
are slices of one node-wide stack that
:meth:`repro.system.node.Node.integrate` advances in a single operation.
This is the difference between O(events x cores x models) and
O(events) for the common case. Setting
``fastpath_enabled = False`` (or ``REPRO_FASTPATH=0``) recomputes every
segment from scratch; both paths are bit-identical by construction and
by test (``tests/test_perf_fastpath.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cstates.states import CState, PackageCState, resolve_package_cstate
from repro.engine.epoch import EpochCell
from repro.engine import fastpath, sanitize
from repro.errors import EpochConsistencyError
from repro.memory.bandwidth import BandwidthDemand, SocketBandwidthModel
from repro.power.fivr import Fivr
from repro.power.model import PowerModel, SocketPowerBreakdown
from repro.power.rapl import (
    MeasuredRaplBackend,
    ModeledRaplBackend,
    RaplBank,
    RaplDomain,
)
from repro.specs.cpu import CpuSpec
from repro.system.core import AVX_REQUEST_THROTTLE, AvxLicense, Core
from repro.system.counters import CSTATE_ROW, FIELD_ROW
from repro.system.uncore import Uncore
from repro.units import NS_PER_S
from repro.workloads.base import WorkloadPhase

# Modeled (pre-Haswell) RAPL underestimates idle power; the offset keeps
# the Fig. 2a idle point off the common trend like the original data.
_MODELED_IDLE_BIAS = 0.85

# Accumulator rows, resolved once (see counters.CORE_COUNTER_FIELDS).
_ROW_TSC = FIELD_ROW["tsc"]
_ROW_APERF = FIELD_ROW["aperf"]
_ROW_MPERF = FIELD_ROW["mperf"]
_ROW_INSTR_CORE = FIELD_ROW["instructions_core"]
_ROW_INSTR_T0 = FIELD_ROW["instructions_thread0"]
_ROW_STALL = FIELD_ROW["stall_cycles"]
_ROW_L3 = FIELD_ROW["l3_bytes"]
_ROW_DRAM = FIELD_ROW["dram_bytes"]
_N_FIELD_ROWS = len(FIELD_ROW)
_C0_RES_ROW = CSTATE_ROW[CState.C0]
_CSTATE_C0 = CState.C0
# The seven rows a uniform lane fills, as one fancy-index vector: one
# broadcast assignment instead of seven row-slice assignments.
_UNIFORM_ROWS = np.array(
    [_ROW_APERF, _ROW_MPERF, _ROW_INSTR_T0, _ROW_INSTR_CORE,
     _ROW_STALL, _ROW_L3, _ROW_DRAM], dtype=np.intp)
# Column-index vectors by core count, shared across every _SegmentRates
# a socket constructs (they are read-only).
_ARANGE_CACHE: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class _SegmentRates:
    """Precomputed per-second rates for one socket operating point."""

    # (n_fields, n_cores) counter rates per second; one fused
    # multiply-add per segment advances every core counter at once.
    rate_matrix: np.ndarray
    # per-core residency row (current c-state) in the residency matrix
    res_rows: np.ndarray
    uncore_l3_rate: float
    uncore_dram_rate: float
    uclk_rate: float
    breakdown: SocketPowerBreakdown
    bias: float
    # flat indices (row-major) into the residency matrix for the same
    # cells `res_rows` addresses column-wise; a 1-D fancy add on these
    # is cheaper than the 2-D (rows, cols) form and lands on the exact
    # same int64 cells.
    res_flat: np.ndarray = field(init=False)

    # breakdown.package_w and the node's dc sum, precomputed once per
    # operating point instead of re-adding on every segment.
    pkg_w: float = field(init=False)
    dc_w: float = field(init=False)

    def __post_init__(self) -> None:
        n = self.res_rows.shape[0]
        cols = _ARANGE_CACHE.get(n)
        if cols is None:
            cols = _ARANGE_CACHE[n] = np.arange(n, dtype=np.intp)
        object.__setattr__(self, "res_flat", self.res_rows * n + cols)
        object.__setattr__(self, "pkg_w", self.breakdown.package_w)
        object.__setattr__(self, "dc_w",
                           self.breakdown.package_w + self.breakdown.dram_w)


@dataclass
class Socket:
    """Mutable state of one processor package."""

    spec: CpuSpec
    socket_id: int
    cores: list[Core]
    uncore: Uncore
    power_model: PowerModel
    bw_model: SocketBandwidthModel
    rapl: RaplBank
    # true (unbiased, unquantized) energy accumulators
    energy_pkg_j: float = 0.0
    energy_dram_j: float = 0.0
    # last evaluated instantaneous breakdown (for meters/PCU)
    last_breakdown: SocketPowerBreakdown | None = None
    package_cstate: PackageCState = PackageCState.PC0
    # steady-state fast path; None = process default (repro.engine.fastpath)
    fastpath_enabled: bool | None = None
    # epoch-consistency sanitizer; None = process default (engine.sanitize)
    sanitize_enabled: bool | None = None
    _residency_pkg_ns: dict[PackageCState, int] = field(
        default_factory=lambda: {s: 0 for s in PackageCState})

    def __post_init__(self) -> None:
        if self.fastpath_enabled is None:
            self.fastpath_enabled = fastpath.enabled()
        if self.sanitize_enabled is None:
            self.sanitize_enabled = sanitize.enabled()
        self._sanitize_segments = 0
        self.sanitize_checks = 0
        # Socket-local epoch; chained to the node epoch once the node
        # assembles its sockets.
        self.epoch = EpochCell()
        n = len(self.cores)
        # Structure-of-arrays counter storage: adopt every core's
        # counters as column views of one accumulator matrix (until the
        # node moves them into its stack, see adopt_counter_stack).
        self.adopt_counter_stack(
            np.zeros((_N_FIELD_ROWS, n), dtype=np.float64),
            np.zeros((len(CSTATE_ROW), n), dtype=np.int64))
        self._last_dc_w = 0.0   # package+dram W of the last segment
        for core in self.cores:
            core._epoch_cell = self.epoch
        self.uncore._epoch_cell = self.epoch
        # Epoch-keyed caches (instance state, never class-level: a
        # class-level cache slot would alias across sockets).
        self._rates: _SegmentRates | None = None
        self._rates_epoch = -1
        self._rates_memo: dict[tuple, _SegmentRates] = {}
        # Residency-row vectors by (row per core) pattern: the patterns
        # cycle with the workload phases while the full memo key churns
        # with every dithered grant, so this inner cache hits even when
        # the outer memo misses. Entries are shared read-only.
        self._res_rows_cache: dict[tuple, np.ndarray] = {}
        # Pre-filled rate-matrix template (TSC always runs at nominal);
        # a memo miss copies it instead of zeroing + refilling the row.
        self._matrix_template = np.zeros_like(self._cnt_data)
        self._matrix_template[_ROW_TSC, :] = self.spec.nominal_hz
        # Staging column for _uniform_rates' one-shot row broadcast.
        self._uniform_scratch = np.empty((len(_UNIFORM_ROWS), 1),
                                         dtype=np.float64)
        self._pkg_sync_key: tuple[int, bool] | None = None
        self._active_cache: list[Core] = []
        self._active_epoch = -1

    # ---- construction ---------------------------------------------------------

    @classmethod
    def build(cls, spec: CpuSpec, socket_id: int, first_core_id: int,
              voltage_offset_v: float, measured_rapl: bool) -> "Socket":
        power_model = PowerModel(spec, voltage_offset_v)
        vf_core = spec.vf_core.with_offset(voltage_offset_v)
        vf_uncore = spec.vf_uncore.with_offset(voltage_offset_v)
        cores = [
            Core(spec=spec, core_id=first_core_id + i, socket_id=socket_id,
                 fivr=Fivr(domain=f"core{first_core_id + i}", vf_curve=vf_core))
            for i in range(spec.n_cores)
        ]
        uncore = Uncore(spec=spec,
                        fivr=Fivr(domain=f"uncore{socket_id}", vf_curve=vf_uncore))
        backend = MeasuredRaplBackend() if measured_rapl else ModeledRaplBackend()
        return cls(spec=spec, socket_id=socket_id, cores=cores, uncore=uncore,
                   power_model=power_model, bw_model=SocketBandwidthModel(spec),
                   rapl=RaplBank(spec=spec, backend=backend))

    def adopt_counter_stack(self, data: np.ndarray, res: np.ndarray) -> None:
        """Rebind the counter and residency matrices to ``data``/``res``
        (contiguous ``(n_fields, n_cores)`` and ``(n_cstates, n_cores)``
        views into the node's stacks), carrying the current values.
        Every core's counters become column views of the new storage."""
        for j, core in enumerate(self.cores):
            core.counters.adopt(data[:, j], res[:, j])
        self._cnt_data = data
        self._cnt_res = res
        self._cnt_res_flat = res.reshape(-1)   # shared view

    # ---- views used by the PCU and instruments ----------------------------------

    def active_cores(self) -> list[Core]:
        """Cores in C0 with an active phase (cached per epoch; treat the
        returned list as read-only)."""
        if self.fastpath_enabled and self._active_epoch == self.epoch.value:
            return self._active_cache
        active = [c for c in self.cores
                  if c.cstate is CState.C0 and (p := c._phase) is not None
                  and p.active]
        self._active_cache = active
        self._active_epoch = self.epoch.value
        return active

    def activity_sum(self) -> float:
        return sum(c.current_phase.power_activity for c in self.active_cores())

    def max_stall_fraction(self) -> float:
        active = self.active_cores()
        if not active:
            return 0.0
        return max(c.current_phase.stall_fraction for c in active)

    def any_avx_active(self) -> bool:
        return any(c.current_phase.uses_avx for c in self.active_cores())

    def fastest_active_request(self) -> float | None | str:
        """The p-state setting of the fastest active core.

        Returns ``None`` for a turbo request, a frequency in Hz otherwise,
        or the sentinel ``"no-active-core"``.
        """
        active = self.active_cores()
        if not active:
            return "no-active-core"
        requests = [c.requested_hz for c in active]
        if any(r is None for r in requests):
            return None
        return max(requests)

    def mean_frequency_hz(self) -> float:
        active = self.active_cores()
        if not active:
            return 0.0
        return sum(c.freq_hz for c in active) / len(active)

    def counter_total(self, name: str) -> float:
        """Sum of one counter over all cores (vectorized over the SoA)."""
        return float(self._cnt_data[FIELD_ROW[name]].sum())

    # ---- bandwidth evaluation ------------------------------------------------------

    def _demands(self) -> list[BandwidthDemand]:
        demands = []
        for core in self.active_cores():
            phase = core.current_phase
            if phase.l3_bytes_per_cycle > 0 or phase.dram_bytes_per_cycle > 0:
                demands.append(BandwidthDemand(
                    core_id=core.core_id,
                    f_core_hz=core.freq_hz,
                    n_threads=max(core.n_threads, 1),
                    l3_bytes_per_cycle=phase.l3_bytes_per_cycle,
                    dram_bytes_per_cycle=phase.dram_bytes_per_cycle,
                ))
        return demands

    def evaluate_power(self) -> SocketPowerBreakdown:
        """Instantaneous power at the current operating point."""
        bw = self.bw_model.solve(self._demands(), self.uncore.freq_hz)
        core_points = [(c.freq_hz, c.current_phase.power_activity)
                       for c in self.active_cores()]
        return self.power_model.socket_power(
            core_points, self.uncore.freq_hz, self.uncore.halted,
            bw.total_dram_gbs)

    # ---- package state ------------------------------------------------------------

    def sync_package_state(self, any_active_in_system: bool) -> PackageCState:
        key = (self.epoch.value, any_active_in_system)
        if self.fastpath_enabled and key == self._pkg_sync_key:
            return self.package_cstate
        state = resolve_package_cstate(
            [c.cstate for c in self.cores], any_active_in_system)
        self.package_cstate = state
        if state.uncore_halted:
            self.uncore.halt()
        else:
            self.uncore.resume()
        # Re-read the epoch: halt()/resume() bump it when they flip the
        # uncore state, and that bump must invalidate the rate cache
        # (not this key — the package state is already up to date).
        self._pkg_sync_key = (self.epoch.value, any_active_in_system)
        return state

    # ---- the integrator ---------------------------------------------------------------

    def _compute_rates_scalar(self) -> "_SegmentRates":
        """Reference (per-core scalar) segment-rate computation.

        Kept as the ground truth the vectorized path is proven against:
        the sanitize-mode epoch check cross-compares both on sampled
        segments, and the vectorization parity tests assert exact
        equality over randomized operating points. Not used on the hot
        path.
        """
        bw = self.bw_model.solve(self._demands(), self.uncore.freq_hz)
        nominal = self.spec.nominal_hz
        rate_matrix = np.zeros_like(self._cnt_data)
        rate_matrix[_ROW_TSC, :] = nominal
        res_rows = np.empty(len(self.cores), dtype=np.intp)
        core_points: list[tuple[float, float]] = []
        bias_num = 0.0
        bias_den = 0.0

        for j, core in enumerate(self.cores):
            res_rows[j] = CSTATE_ROW[core.cstate]
            phase = core.current_phase
            if not (core.is_active and phase is not None and phase.active):
                continue
            f = core.freq_hz
            throttle = self._bw_throttle(core, phase, bw)
            ipc_thread = (phase.ipc_thread(f, self.uncore.freq_hz, throttle)
                          * core.execution_throttle())
            instr_rate = ipc_thread * f
            rate_matrix[_ROW_APERF, j] = f
            rate_matrix[_ROW_MPERF, j] = nominal
            rate_matrix[_ROW_INSTR_T0, j] = instr_rate
            rate_matrix[_ROW_INSTR_CORE, j] = \
                instr_rate * max(core.n_threads, 1)
            rate_matrix[_ROW_STALL, j] = phase.stall_fraction * f
            rate_matrix[_ROW_L3, j] = bw.l3_bytes_per_s.get(core.core_id, 0.0)
            rate_matrix[_ROW_DRAM, j] = \
                bw.dram_bytes_per_s.get(core.core_id, 0.0)
            core_points.append((f, phase.power_activity))
            p_core = self.power_model.core_power_w(f, phase.power_activity)
            bias_num += p_core * phase.rapl_model_bias
            bias_den += p_core

        breakdown = self.power_model.socket_power(
            core_points, self.uncore.freq_hz, self.uncore.halted,
            bw.total_dram_gbs)
        return _SegmentRates(
            rate_matrix=rate_matrix,
            res_rows=res_rows,
            uncore_l3_rate=bw.total_l3_gbs * 1e9,
            uncore_dram_rate=bw.total_dram_gbs * 1e9,
            uclk_rate=0.0 if self.uncore.halted else self.uncore.freq_hz,
            breakdown=breakdown,
            bias=bias_num / bias_den if bias_den > 0 else _MODELED_IDLE_BIAS,
        )

    def _compute_rates(self) -> "_SegmentRates":
        """Segment rates, vectorized across cores over the SoA matrices.

        Evaluates the IPC, bandwidth and power laws with elementwise
        numpy ops whose expression structure mirrors the scalar
        reference exactly — elementwise float64 ops are bit-identical to
        the equivalent scalar arithmetic, and every cross-core reduction
        replicates the reference's left-to-right fold. The result is
        byte-equal to :meth:`_compute_rates_scalar` (enforced by the
        sanitize cross-check and the parity tests), just cheaper when
        many cores are active.
        """
        return self._rates_from_key(self._gather_key())

    def _rates_from_key(self, key: tuple) -> "_SegmentRates":
        """Rate computation driven entirely by a gathered key.

        The memo key is a complete image of every input (uncore point
        plus one lane tuple or c-state per core), so a miss reads the
        key instead of re-walking the cores: one core walk serves both
        the memo probe and the recompute.
        """
        fu = key[0]
        halted = key[1]
        rate_matrix = self._matrix_template.copy()
        c0_row = _C0_RES_ROW
        res_list: list[int] = []
        active: list[tuple[int, tuple]] = []   # (column, lane)
        lane0: tuple | None = None
        uniform = True
        for j, part in enumerate(key[2:]):
            if type(part) is tuple:
                res_list.append(c0_row)
                active.append((j, part))
                if lane0 is None:
                    lane0 = part
                elif uniform and part != lane0:
                    uniform = False
            else:
                res_list.append(CSTATE_ROW[part])
        res_key = tuple(res_list)
        res_rows = self._res_rows_cache.get(res_key)
        if res_rows is None:
            if len(self._res_rows_cache) >= 512:
                self._res_rows_cache.clear()
            res_rows = np.array(res_list, dtype=np.intp)
            self._res_rows_cache[res_key] = res_rows

        if not active:
            breakdown = self.power_model.socket_power(
                [], fu, halted, 0.0)
            return _SegmentRates(
                rate_matrix=rate_matrix, res_rows=res_rows,
                uncore_l3_rate=0.0, uncore_dram_rate=0.0,
                uclk_rate=0.0 if halted else fu,
                breakdown=breakdown, bias=_MODELED_IDLE_BIAS)

        if uniform:
            f0, phase0, nthr0, exec0 = lane0
            return self._uniform_rates(
                rate_matrix, res_rows, [j for j, _ in active],
                (f0, phase0, max(nthr0, 1), exec0), fu, halted)

        nominal = self.spec.nominal_hz
        cols: list[int] = []
        f_l: list[float] = []
        nthr_l: list[int] = []
        exec_l: list[float] = []
        par_l: list[float] = []
        slope_l: list[float] = []
        bwb_l: list[bool] = []
        stall_l: list[float] = []
        act_l: list[float] = []
        bias_l: list[float] = []
        l3pc_l: list[float] = []
        drpc_l: list[float] = []
        for j, lane in active:
            f_hz, phase, nthr, exec_t = lane
            cols.append(j)
            f_l.append(f_hz)
            nthr_l.append(max(nthr, 1))
            exec_l.append(exec_t)
            par_l.append(phase.ipc_parity)
            slope_l.append(phase.ipc_uncore_slope)
            bwb_l.append(phase.bw_bound)
            stall_l.append(phase.stall_fraction)
            act_l.append(phase.power_activity)
            bias_l.append(phase.rapl_model_bias)
            l3pc_l.append(phase.l3_bytes_per_cycle)
            drpc_l.append(phase.dram_bytes_per_cycle)

        col_idx = np.array(cols, dtype=np.intp)
        f = np.array(f_l, dtype=np.float64)
        nthr = np.array(nthr_l, dtype=np.int64)
        l3pc = np.array(l3pc_l, dtype=np.float64)
        drpc = np.array(drpc_l, dtype=np.float64)

        l3_rate, dram_rate, l3_gbs, dram_gbs = self.bw_model.solve_soa(
            f, nthr, l3pc, drpc, fu)

        # Bandwidth throttle (_bw_throttle): achieved/demanded ratio for
        # bw-bound phases, exact 1.0 everywhere else.
        throttle = np.ones_like(f)
        want = (l3pc + drpc) * f
        bound = np.array(bwb_l, dtype=bool) & (want > 0.0)
        if bound.any():
            got = l3_rate[bound] + dram_rate[bound]
            throttle[bound] = np.minimum(1.0, got / want[bound])

        # Per-thread IPC law (WorkloadPhase.ipc_thread). Multiplying the
        # non-bw-bound lanes by their exact 1.0 throttle is a bitwise
        # no-op, matching the reference's conditional multiply.
        par = np.array(par_l, dtype=np.float64)
        ratio = f / max(fu, 1.0)
        ipc = par + np.array(slope_l, dtype=np.float64) * (1.0 - ratio)
        ipc = np.maximum(ipc, 0.05 * par)
        ipc = ipc * throttle
        ipc_thread = ipc * np.array(exec_l, dtype=np.float64)
        instr = ipc_thread * f

        rate_matrix[_ROW_APERF, col_idx] = f
        rate_matrix[_ROW_MPERF, col_idx] = nominal
        rate_matrix[_ROW_INSTR_T0, col_idx] = instr
        rate_matrix[_ROW_INSTR_CORE, col_idx] = instr * nthr
        rate_matrix[_ROW_STALL, col_idx] = \
            np.array(stall_l, dtype=np.float64) * f
        rate_matrix[_ROW_L3, col_idx] = l3_rate
        rate_matrix[_ROW_DRAM, col_idx] = dram_rate

        p_core = self.power_model.core_power_w_array(
            f, np.array(act_l, dtype=np.float64))
        bias_num = sum((p_core * np.array(bias_l, dtype=np.float64)).tolist())
        bias_den = sum(p_core.tolist())

        breakdown = SocketPowerBreakdown(
            static_w=self.spec.power.static_w,
            core_dyn_w=bias_den,
            uncore_w=self.power_model.uncore_power_w(fu, halted),
            dram_w=self.power_model.dram_power_w(dram_gbs))
        return _SegmentRates(
            rate_matrix=rate_matrix,
            res_rows=res_rows,
            uncore_l3_rate=l3_gbs * 1e9,
            uncore_dram_rate=dram_gbs * 1e9,
            uclk_rate=0.0 if halted else fu,
            breakdown=breakdown,
            bias=bias_num / bias_den if bias_den > 0 else _MODELED_IDLE_BIAS,
        )

    def _uniform_rates(self, rate_matrix: np.ndarray, res_rows: np.ndarray,
                       cols: list[int], lane: tuple, fu: float,
                       halted: bool) -> "_SegmentRates":
        """Single-lane segment rates for a homogeneous socket.

        Every active core shares one ``(freq, phase, threads, throttle)``
        lane — lockstep fleets, gang-scheduled sweeps, the tick-heavy
        benchmark — so the per-lane laws are evaluated once as scalars
        and broadcast into the rate matrix. Each expression repeats the
        SoA path verbatim (scalar float64 ops are bit-identical to the
        one-lane elementwise op), and the cross-core reductions replay
        the left-to-right fold over ``n`` equal terms. Guarded by the
        same sanitize cross-check and parity tests as the SoA path.
        """
        f, phase, nthr, exec_throttle = lane
        n = len(cols)
        l3pc = phase.l3_bytes_per_cycle
        drpc = phase.dram_bytes_per_cycle

        l3_rate, dram_rate, l3_gbs, dram_gbs = self.bw_model.solve_uniform(
            n, f, nthr, l3pc, drpc, fu)

        throttle = 1.0
        if phase.bw_bound:
            want = (l3pc + drpc) * f
            if want > 0.0:
                throttle = min(1.0, (l3_rate + dram_rate) / want)

        par = phase.ipc_parity
        ratio = f / max(fu, 1.0)
        ipc = par + phase.ipc_uncore_slope * (1.0 - ratio)
        ipc = max(ipc, 0.05 * par)
        ipc = ipc * throttle
        ipc_thread = ipc * exec_throttle
        instr = ipc_thread * f

        if n == rate_matrix.shape[1]:
            # Whole socket active: one (7,1)-over-(7,n) broadcast fills
            # every row. The scratch column holds plain scalars, so the
            # elements are the identical floats the row-by-row
            # assignments would store.
            scratch = self._uniform_scratch
            scratch[0, 0] = f
            scratch[1, 0] = self.spec.nominal_hz
            scratch[2, 0] = instr
            scratch[3, 0] = instr * nthr
            scratch[4, 0] = phase.stall_fraction * f
            scratch[5, 0] = l3_rate
            scratch[6, 0] = dram_rate
            rate_matrix[_UNIFORM_ROWS] = scratch
        else:
            col_idx = np.array(cols, dtype=np.intp)
            rate_matrix[_ROW_APERF, col_idx] = f
            rate_matrix[_ROW_MPERF, col_idx] = self.spec.nominal_hz
            rate_matrix[_ROW_INSTR_T0, col_idx] = instr
            rate_matrix[_ROW_INSTR_CORE, col_idx] = instr * nthr
            rate_matrix[_ROW_STALL, col_idx] = phase.stall_fraction * f
            rate_matrix[_ROW_L3, col_idx] = l3_rate
            rate_matrix[_ROW_DRAM, col_idx] = dram_rate

        p_core = self.power_model.core_power_w(f, phase.power_activity)
        p_bias = p_core * phase.rapl_model_bias
        bias_num = 0.0
        bias_den = 0.0
        for _ in range(n):
            bias_num += p_bias
            bias_den += p_core

        breakdown = SocketPowerBreakdown(
            static_w=self.spec.power.static_w,
            core_dyn_w=bias_den,
            uncore_w=self.power_model.uncore_power_w(fu, halted),
            dram_w=self.power_model.dram_power_w(dram_gbs))
        return _SegmentRates(
            rate_matrix=rate_matrix,
            res_rows=res_rows,
            uncore_l3_rate=l3_gbs * 1e9,
            uncore_dram_rate=dram_gbs * 1e9,
            uclk_rate=0.0 if halted else fu,
            breakdown=breakdown,
            bias=bias_num / bias_den if bias_den > 0 else _MODELED_IDLE_BIAS,
        )

    # Operating-point memo: tick-heavy workloads cycle through a handful
    # of phase combinations, each revisit bumping the epoch; the memo
    # keys the full rate computation on the operating point itself so a
    # revisited point costs one key build instead of a model evaluation.
    _RATES_MEMO_MAX = 256

    def _gather_key(self) -> tuple:
        """Hashable image of every rate-computation input.

        Phases are frozen dataclasses compared by value, so the key
        cannot alias across distinct operating points; keying by value
        (not ``id``) also makes entries immune to object reuse. The key
        doubles as the gather: :meth:`_rates_from_key` reads its lane
        tuples instead of walking the cores a second time.
        """
        uncore = self.uncore
        requesting = AvxLicense.REQUESTING
        c0 = _CSTATE_C0
        # One comprehension, one conditional expression per core; the
        # throttle term inlines core.execution_throttle().
        return (uncore.freq_hz, uncore.halted) + tuple(
            [(core.freq_hz, p, core._nthr,
              AVX_REQUEST_THROTTLE
              if core.avx_license is requesting else 1.0)
             if (core.cstate is c0 and (p := core._phase) is not None
                 and p.active)
             else core.cstate
             for core in self.cores])

    def _segment_rates(self) -> "_SegmentRates":
        key = self._gather_key()
        memo = self._rates_memo
        rates = memo.get(key)
        if rates is None:
            rates = self._rates_from_key(key)
            if len(memo) >= self._RATES_MEMO_MAX:
                memo.clear()
            memo[key] = rates
        return rates

    def integrate(self, t0_ns: int, t1_ns: int,
                  any_active_in_system: bool) -> "_SegmentRates | None":
        """Advance the package state, uncore counters, energy and RAPL
        over one segment; returns the segment's rates (``None`` for an
        empty segment).

        The per-core counter and residency matrices are not touched
        here: the node advances every socket's slice of its stacks with
        one multiply-add (:meth:`repro.system.node.Node.integrate`).
        """
        dt_ns = t1_ns - t0_ns
        if dt_ns <= 0:
            return None
        dt_s = dt_ns / NS_PER_S
        # Inline fast check of sync_package_state's memo key; the method
        # re-resolves only when the epoch or system activity moved.
        if not (self.fastpath_enabled
                and self._pkg_sync_key == (self.epoch.value,
                                           any_active_in_system)):
            self.sync_package_state(any_active_in_system)
        self._residency_pkg_ns[self.package_cstate] += dt_ns

        rates = self._rates
        if (rates is None or not self.fastpath_enabled
                or self._rates_epoch != self.epoch.value):
            # Fastpath consults the operating-point memo; with the fast
            # path off every segment recomputes genuinely (bit-identical
            # either way — the memo stores what the computation returns).
            rates = self._rates = (self._segment_rates()
                                   if self.fastpath_enabled
                                   else self._compute_rates())
            self._rates_epoch = self.epoch.value
        elif self.sanitize_enabled:
            self._check_epoch_consistency(rates)
        self.last_breakdown = rates.breakdown

        ucnt = self.uncore.counters
        ucnt.l3_bytes += rates.uncore_l3_rate * dt_s
        ucnt.dram_bytes += rates.uncore_dram_rate * dt_s
        ucnt.uclk += rates.uclk_rate * dt_s

        pkg_e = rates.pkg_w * dt_s
        dram_e = rates.breakdown.dram_w * dt_s
        self.energy_pkg_j += pkg_e
        self.energy_dram_j += dram_e
        self.rapl.accumulate_pkg_dram(pkg_e, dram_e, rates.bias)
        self._last_dc_w = rates.dc_w
        return rates

    # ---- batched segments (repro.system.horizon) --------------------------------

    def steady_rates(self, any_active_in_system: bool) -> "_SegmentRates | None":
        """The cached rates the next segment would integrate from, when
        integrating it would resolve and recompute nothing (package state
        synced and rates cached for this epoch); else ``None``."""
        epoch = self.epoch.value
        if (self.fastpath_enabled and self._rates is not None
                and self._rates_epoch == epoch
                and self._pkg_sync_key == (epoch, any_active_in_system)):
            return self._rates
        return None

    def scalar_accumulators(self) -> list[float]:
        """The scalar sums :meth:`integrate` advances: uncore L3, DRAM
        and clock counters, package and DRAM energy, RAPL package and
        DRAM energy."""
        ucnt = self.uncore.counters
        return [ucnt.l3_bytes, ucnt.dram_bytes, ucnt.uclk,
                self.energy_pkg_j, self.energy_dram_j,
                *self.rapl.pkg_dram_energy()]

    @staticmethod
    def scalar_rates(rates: "_SegmentRates") -> list[float]:
        """Per-second rates of the first five :meth:`scalar_accumulators`
        (the RAPL two follow from the energies through the backend)."""
        return [rates.uncore_l3_rate, rates.uncore_dram_rate,
                rates.uclk_rate, rates.pkg_w, rates.breakdown.dram_w]

    def fold_segments(self, values: list[float], dt_ns: int) -> None:
        """Store :meth:`scalar_accumulators` after ``dt_ns`` of
        cached-rate segments integrated in one batch."""
        ucnt = self.uncore.counters
        (ucnt.l3_bytes, ucnt.dram_bytes, ucnt.uclk,
         self.energy_pkg_j, self.energy_dram_j) = values[:5]
        self.rapl.set_pkg_dram_energy(values[5], values[6])
        self._residency_pkg_ns[self.package_cstate] += dt_ns

    def _check_epoch_consistency(self, cached: "_SegmentRates") -> None:
        """Sanitize mode: recompute the cached rates on a sampled segment.

        Runs on cache-hit segments only, every ``EPOCH_CHECK_STRIDE``-th
        hit. The fresh recompute goes through the **vectorized** SoA
        path — the one integration actually uses — deliberately
        bypassing the operating-point memo (a memo hit would just echo
        the possibly-stale cache back at itself). It is then
        cross-checked against the scalar reference, so one sampled
        segment catches both failure modes: a rate-relevant mutation
        that skipped the epoch bump, and a vectorization bug that made
        the SoA path drift from the per-core math. Both computations are
        pure (no RNG, no state mutation), so the check observes without
        perturbing.
        """
        counter = self._sanitize_segments
        self._sanitize_segments = counter + 1
        if counter % sanitize.EPOCH_CHECK_STRIDE != 0:
            return
        self.sanitize_checks += 1
        fresh = self._compute_rates()
        if not np.array_equal(cached.rate_matrix, fresh.rate_matrix):
            bad = np.argwhere(
                cached.rate_matrix != fresh.rate_matrix)[0]
            raise EpochConsistencyError(
                f"socket {self.socket_id}: cached segment rates diverge "
                f"from a fresh recompute at epoch {self.epoch.value} "
                f"(first at row {bad[0]}, core column {bad[1]}) — a "
                "rate-relevant field was mutated without an epoch bump")
        if not np.array_equal(cached.res_rows, fresh.res_rows):
            raise EpochConsistencyError(
                f"socket {self.socket_id}: cached c-state residency rows "
                f"diverge from a fresh recompute at epoch "
                f"{self.epoch.value} — a c-state change skipped the "
                "__setattr__-intercepted path")
        reference = self._compute_rates_scalar()
        if not (np.array_equal(fresh.rate_matrix, reference.rate_matrix)
                and np.array_equal(fresh.res_rows, reference.res_rows)
                and fresh.uncore_l3_rate == reference.uncore_l3_rate
                and fresh.uncore_dram_rate == reference.uncore_dram_rate
                and fresh.uclk_rate == reference.uclk_rate
                and fresh.bias == reference.bias
                and fresh.breakdown == reference.breakdown):
            raise EpochConsistencyError(
                f"socket {self.socket_id}: vectorized segment rates "
                f"diverge from the scalar reference at epoch "
                f"{self.epoch.value} — the SoA integration path lost "
                "bit-parity with the per-core math")

    @staticmethod
    def _bw_throttle(core: Core, phase: WorkloadPhase, bw) -> float:
        """Achieved/demanded traffic ratio for bandwidth-bound phases."""
        if not phase.bw_bound:
            return 1.0
        want = ((phase.l3_bytes_per_cycle + phase.dram_bytes_per_cycle)
                * core.freq_hz)
        if want <= 0:
            return 1.0
        got = (bw.l3_bytes_per_s.get(core.core_id, 0.0)
               + bw.dram_bytes_per_s.get(core.core_id, 0.0))
        return min(1.0, got / want)

    # ---- residency accessor ---------------------------------------------------

    def package_residency_ns(self, state: PackageCState) -> int:
        return self._residency_pkg_ns[state]
