"""Switched-array sounder emulation.

One capture records all eight UEs back to back (640 us per UE slot, ten
waveform repetitions each, 5.12 ms total) on a 100 ms trigger grid while
the AP drives. The repetitions of a slot are averaged, so a capture holds
one spectrum per UE, with one repetition's noise variance over
REPETITIONS_PER_UE. The receive front end applies a stepped AGC attenuator
shared by the whole capture, chosen from the strongest UE of the previous
capture; attenuation buys headroom at the price of noise figure.

Every capture is reproducible in isolation: its noise stream derives from
(campaign seed, capture index) only, so chunked and parallel synthesis
produce byte-identical records. The receiver noise is complex Gaussian,
drawn by a Box-Muller transform (Box & Muller, 1958) of the capture's
uniform draws and evaluated in float32, the precision the capture file
stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel as ch
from . import raypaths as rp
from .constants import THERMAL_NOISE_DBM_PER_HZ
from .scene import Scene, sample_ap_pose_arrays
from .waveform import WaveformSpec, reference_tones

# Acquisition timing of one capture.
REPETITION_SPAN_S = 64e-6
REPETITIONS_PER_UE = 10
UE_SLOT_S = REPETITION_SPAN_S * REPETITIONS_PER_UE  # 640 us
CAPTURE_SPAN_S = UE_SLOT_S * 8  # 5.12 ms
CAPTURE_INTERVAL_S = 0.1

_POWER_FLOOR_MW = 1e-30


# --- AGC ---------------------------------------------------------------------

@dataclass(frozen=True)
class AGCConfig:
    attenuation_steps_db: tuple[float, ...] = (0.0, 10.0, 20.0, 30.0)
    target_output_window_dbm: tuple[float, float] = (-45.0, -40.0)

    def validate(self) -> None:
        steps = list(self.attenuation_steps_db)
        if not steps or steps != sorted(set(steps)):
            raise ValueError(f"attenuation_steps_db = {steps}: "
                             "must be non-empty and strictly increasing")
        lo, hi = self.target_output_window_dbm
        if not lo < hi:
            raise ValueError(f"target_output_window_dbm = {[lo, hi]}: must have low < high")


def _agc_step(att_db: float, strongest_dbm: float, config: AGCConfig) -> float:
    """Attenuation after a capture whose strongest UE input is strongest_dbm.

    Holds att_db while the attenuated output stays inside the target window;
    otherwise takes the smallest step that lands inside, or failing that the
    smallest step that keeps the output at or below the window top (full
    attenuation if even that fails).
    """
    lo, hi = config.target_output_window_dbm
    if lo <= strongest_dbm - att_db <= hi:
        return att_db
    for a in config.attenuation_steps_db:
        if lo <= strongest_dbm - a <= hi:
            return float(a)
    for a in config.attenuation_steps_db:
        if strongest_dbm - a <= hi:
            return float(a)
    return float(config.attenuation_steps_db[-1])


def agc_attenuation_sequence(strongest_dbm: np.ndarray, config: AGCConfig) -> np.ndarray:
    """Attenuation per capture with the one-capture causal lag.

    The attenuator starts at 0 dB. Capture 0 uses its own power (the device
    converges before the run starts); capture m >= 1 reacts to the strongest
    UE of capture m - 1.
    """
    config.validate()
    att = np.zeros(strongest_dbm.shape[0])
    a = 0.0
    for m in range(att.shape[0]):
        a = _agc_step(a, float(strongest_dbm[max(m - 1, 0)]), config)
        att[m] = a
    return att


# --- impairments -------------------------------------------------------------

@dataclass(frozen=True)
class ChainRippleConfig:
    """Smooth random transmit/receive chain response over the band."""

    amplitude_db: float = 3.0
    phase_rad: float = np.pi / 4
    n_terms: int = 4
    seed: int = 7

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed}: must be >= 0")


def make_chain_response(n_subcarriers: int, cfg: ChainRippleConfig) -> np.ndarray:
    """Deterministic low-order Fourier ripple, never near zero."""
    rng = np.random.default_rng(cfg.seed)
    k = np.arange(n_subcarriers) / n_subcarriers
    amp = np.zeros(n_subcarriers)
    pha = np.zeros(n_subcarriers)
    for j in range(1, cfg.n_terms + 1):
        a, b, c, d = rng.uniform(-1.0, 1.0, 4)
        amp += (a * np.cos(2 * np.pi * j * k) + b * np.sin(2 * np.pi * j * k)) / j
        pha += (c * np.cos(2 * np.pi * j * k) + d * np.sin(2 * np.pi * j * k)) / j
    amp *= cfg.amplitude_db / max(np.abs(amp).max(), 1e-12)
    pha *= cfg.phase_rad / max(np.abs(pha).max(), 1e-12)
    return 10.0 ** (amp / 20.0) * np.exp(1j * pha)


@dataclass(frozen=True)
class ImpairmentConfig:
    tx_power_dbm: float = 42.0
    base_noise_figure_db: float = 5.0
    thermal_dbm_per_hz: float = THERMAL_NOISE_DBM_PER_HZ
    nf_penalty_per_att_db: float = 2.0 / 3.0
    nf_penalty_cap_db: float = 20.0
    agc: AGCConfig = field(default_factory=AGCConfig)
    crosstalk_coupling_db: float | None = -60.0
    chain: ChainRippleConfig = field(default_factory=ChainRippleConfig)

    def validate(self) -> None:
        c = self.crosstalk_coupling_db
        if c is not None and c > 0:
            raise ValueError(f"crosstalk_coupling_db = {c}: must be <= 0 or null")

    def noise_sigma2_mw(self, attenuation_db, spacing_hz: float) -> np.ndarray:
        """Input-referred noise variance per tone per repetition, in mW."""
        att = np.asarray(attenuation_db, dtype=float)
        penalty = np.minimum(self.nf_penalty_per_att_db * att, self.nf_penalty_cap_db)
        dbm = (
            self.thermal_dbm_per_hz
            + 10.0 * np.log10(spacing_hz)
            + self.base_noise_figure_db
            + penalty
        )
        return 10.0 ** (dbm / 10.0)


# --- campaign ---------------------------------------------------------------

@dataclass
class CampaignPlan:
    """Everything needed to synthesize any capture independently.

    Built by one deterministic pass: pose sampling, path tracing per UE,
    noiseless power evaluation and the sequential AGC pass. Spectra are not
    held here; synthesize_chunk generates them on demand from (seed,
    capture index).
    """

    site_id: str
    waveform: WaveformSpec
    impairments: ImpairmentConfig
    seed: int
    positions: np.ndarray  # (M, 3)
    headings: np.ndarray  # (M,)
    timestamps: np.ndarray  # (M,)
    ue_positions: np.ndarray  # (U, 3)
    path_gains: list  # per UE: complex (K_j,)
    path_delays: list  # per UE: float (K_j,)
    row_splits: list  # per UE: int (M+1,)
    measured_power_dbm: np.ndarray  # (M, U)
    link_class: np.ndarray  # (M, U) uint8, LinkClass values from the tracer
    attenuation_db: np.ndarray  # (M,)
    reference_tones: np.ndarray  # complex (N,)
    chain: np.ndarray  # complex (N,)

    @property
    def n_captures(self) -> int:
        return int(self.positions.shape[0])

    @property
    def n_ues(self) -> int:
        return int(self.ue_positions.shape[0])

    @property
    def tx_tone_amplitude(self) -> float:
        p_mw = 10.0 ** (self.impairments.tx_power_dbm / 10.0)
        return float(np.sqrt(p_mw / self.waveform.n_subcarriers))

    @property
    def cal_response(self) -> np.ndarray:
        """Back-to-back calibration (N,), with the reference comb divided out."""
        return self.tx_tone_amplitude * self.chain


def plan_campaign(
    scene: Scene,
    waveform: WaveformSpec,
    impairments: ImpairmentConfig,
    seed: int,
    site=0,
) -> CampaignPlan:
    """Trace every pose of the scene's route to every UE of site, and fix
    the AGC sequence over the whole route.

    The AGC is causal, so the plan of a route cut after k poses has the
    same first k attenuations as the plan of the whole route.
    """
    waveform.validate()
    positions, headings, timestamps = sample_ap_pose_arrays(scene.trajectory)
    ue_site = scene.site(site)
    m_total = positions.shape[0]

    chain = make_chain_response(waveform.n_subcarriers, impairments.chain)

    gains, delays, splits = [], [], []
    n_ues = ue_site.positions_m.shape[0]
    power_dbm = np.zeros((m_total, n_ues))
    link_class = np.zeros((m_total, n_ues), dtype=np.uint8)
    for j, ue in enumerate(ue_site.positions_m):
        bundle = rp.trace_paths_batch(scene, positions, headings, ue)
        link_class[:, j] = bundle.link_class
        g = bundle.complex_gains()
        tau = bundle.delay_s
        rs = ch.row_splits_for_poses(bundle.pose_index, m_total)
        gains.append(g)
        delays.append(tau)
        splits.append(rs)
        mean_gain = ch.mean_tone_power(g, tau, rs, waveform)
        power_dbm[:, j] = impairments.tx_power_dbm + 10.0 * np.log10(
            np.maximum(mean_gain, _POWER_FLOOR_MW)
        )

    att = agc_attenuation_sequence(power_dbm.max(axis=1), impairments.agc)

    return CampaignPlan(
        site_id=ue_site.site_id, waveform=waveform,
        impairments=impairments, seed=int(seed),
        positions=positions, headings=headings, timestamps=timestamps,
        ue_positions=ue_site.positions_m.copy(),
        path_gains=gains, path_delays=delays, row_splits=splits,
        measured_power_dbm=power_dbm, link_class=link_class, attenuation_db=att,
        reference_tones=reference_tones(waveform), chain=chain,
    )


def _capture_rng(seed: int, capture_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(capture_index,)))


def _unit_noise(seed: int, capture_index: int, out: np.ndarray) -> None:
    """Write capture capture_index's unit-variance noise into out, (U, N, 2)
    float32 (real, imaginary) components, one standard normal each.

    One (U, 2, N) draw of float64 uniforms u from the capture's generator;
    per UE, r = sqrt(-2 ln float32(1 - u[0])) and theta = float32(2 pi u[1]),
    and the components are (r cos theta, r sin theta), every step in
    float32. Since 1 - u >= 2^-53, r stays below 8.58.
    """
    u = _capture_rng(seed, capture_index).random((out.shape[0], 2, out.shape[1]))
    r = (1.0 - u[:, 0]).astype(np.float32)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = (2.0 * np.pi * u[:, 1]).astype(np.float32)
    np.multiply(r, np.cos(theta), out=out[..., 0])
    np.multiply(r, np.sin(theta), out=out[..., 1])


def synthesize_chunk(plan: CampaignPlan, m0: int, m1: int) -> np.ndarray:
    """Recorded spectra for captures [m0, m1), shape (m, U, N): per UE,
    the mean of its REPETITIONS_PER_UE repetitions.

    The raw recording is g * (signal + noise) with g the AGC attenuator
    gain; the transmit leakage (crosstalk_coupling_db, None for none) adds
    to the channel at zero delay, ahead of the attenuator, so its calibrated
    level does not move with AGC steps.

    Each capture's unit noise z (_unit_noise) is drawn first, straight into
    the complex64 result; its float32 components are stored exactly. The
    signal loop is then UE-major: one UE's complex128 channel rows for the
    chunk's links that have traced paths, then per capture that UE's
    noise, scaled and added in one reused (N, 2) float64 buffer and
    written back over it, so no (m, U, N) complex128 signal is ever held.
    A link without paths adds the one signal row of the chunk's empty
    links, a zero channel through the same crosstalk add and transmit
    front as a channel row, so its bytes are those of a zero row in the
    channel rows. Every capture's noise depends on (seed, capture index)
    only.

    Noise, gain and the complex64 cast run in place on float64 (real,
    imaginary) views: z *= sqrt(sigma2 / 2), z += signal, z *= g, then one
    rounding to float32. A complex value times a real scalar is exact per
    component, as is a complex sum, so the bytes equal those of
    (g * (signal + (z0 + 1j z1) * sqrt(sigma2 / 2))).astype(complex64)
    with the same z, where sigma2 is the variance of the repetition
    mean, one repetition's over REPETITIONS_PER_UE. A thermal density of
    -inf dBm/Hz gives sigma2 = 0, a capture without receiver noise.
    """
    wf_spec = plan.waveform
    n = wf_spec.n_subcarriers
    n_ue = plan.n_ues
    imp = plan.impairments
    m_chunk = m1 - m0

    tx_front = plan.tx_tone_amplitude * plan.reference_tones * plan.chain  # (N,)
    g_lin = 10.0 ** (-plan.attenuation_db[m0:m1] / 20.0)
    sigma2 = (imp.noise_sigma2_mw(plan.attenuation_db[m0:m1], wf_spec.subcarrier_spacing_hz)
              / REPETITIONS_PER_UE)  # variance of the repetition mean
    noise_scale = np.sqrt(sigma2 / 2.0)

    out = np.empty((m_chunk, n_ue, n), dtype=np.complex64)
    out_re = out.view(np.float32).reshape(m_chunk, n_ue, n, 2)
    for i in range(m_chunk):
        _unit_noise(plan.seed, m0 + i, out_re[i])

    def to_signal(h):
        """Turn channel rows h, (k, N) complex128, into the received signal
        in place (crosstalk added, times the transmit front); returns their
        (k, N, 2) float64 view."""
        if imp.crosstalk_coupling_db is not None:
            h += 10.0 ** (imp.crosstalk_coupling_db / 20.0)
        h *= tx_front
        return h.view(np.float64).reshape(h.shape[0], n, 2)

    # Every link without paths has a zero channel, so they share one row.
    empty_re = to_signal(np.zeros((1, n), dtype=np.complex128))[0]
    h_buf = np.empty((m_chunk, n), dtype=np.complex128)
    z = np.empty((n, 2))
    for j in range(n_ue):
        sub_splits = plan.row_splits[j][m0:m1 + 1] - plan.row_splits[j][m0]
        base = plan.row_splits[j][m0]
        has = np.flatnonzero(np.diff(sub_splits))  # links with paths
        h_rows = ch.synthesize_rows(
            plan.path_gains[j][base:base + sub_splits[-1]],
            plan.path_delays[j][base:base + sub_splits[-1]],
            np.concatenate([[0], sub_splits[has + 1]]), wf_spec, out=h_buf[:has.size],
        )
        h_re = to_signal(h_rows)
        row_of = np.full(m_chunk, -1)
        row_of[has] = np.arange(has.size)
        for i in range(m_chunk):
            np.multiply(out_re[i, j], noise_scale[i], out=z)
            z += empty_re if row_of[i] < 0 else h_re[row_of[i]]
            z *= g_lin[i]
            out_re[i, j] = z
    return out
