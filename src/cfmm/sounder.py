"""Switched-array sounder emulation.

One capture records all eight UEs back to back (640 us per UE slot, ten
waveform repetitions each, 5.12 ms total) on a 100 ms trigger grid while
the AP drives. The repetitions of a slot are averaged, so a capture holds
one spectrum per UE, with one repetition's noise variance over
REPETITIONS_PER_UE. The receive front end applies a stepped AGC attenuator
shared by the whole capture, chosen from the strongest UE of the previous
capture; attenuation buys headroom at the price of noise figure.

The module emulates the one sounder of the measurement: its transmit
power, AGC ladder, noise figure and chain ripple are the constants below,
not run settings.

Every capture is reproducible in isolation: its noise stream derives from
(campaign seed, capture index) only, so chunked and parallel synthesis
produce byte-identical records. The receiver noise is complex Gaussian,
a Box-Muller transform (Box & Muller, 1958) of one 64-bit word per
(UE, tone) of the capture's stream, evaluated in float32, the precision
the capture file stores, as are its scale, add and gain.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# The receiver.
TX_POWER_DBM = 42.0
BASE_NOISE_FIGURE_DB = 5.0
NF_PENALTY_PER_ATT_DB = 2.0 / 3.0  # noise figure added per dB of attenuation
NF_PENALTY_CAP_DB = 20.0
AGC_STEPS_DB = (0.0, 10.0, 20.0, 30.0)  # attenuator steps, increasing
AGC_WINDOW_DBM = (-45.0, -40.0)  # target output window (low, high)
# Smooth random transmit/receive chain response over the band: CHAIN_TERMS
# Fourier terms from seed CHAIN_SEED, scaled to these peak deviations.
CHAIN_AMPLITUDE_DB = 3.0
CHAIN_PHASE_RAD = np.pi / 4
CHAIN_TERMS = 4
CHAIN_SEED = 7

_POWER_FLOOR_MW = 1e-30
TRACE_SPAN_POSES = 2048  # poses per tracer call, all UEs: bounds the call's memory


# --- AGC ---------------------------------------------------------------------

def _agc_step(att_db: float, strongest_dbm: float) -> float:
    """Attenuation after a capture whose strongest UE input is strongest_dbm.

    Holds att_db while the attenuated output stays inside the target window;
    otherwise takes the smallest step that lands inside, or failing that the
    smallest step that keeps the output at or below the window top (full
    attenuation if even that fails).
    """
    lo, hi = AGC_WINDOW_DBM
    if lo <= strongest_dbm - att_db <= hi:
        return att_db
    for a in AGC_STEPS_DB:
        if lo <= strongest_dbm - a <= hi:
            return a
    for a in AGC_STEPS_DB:
        if strongest_dbm - a <= hi:
            return a
    return AGC_STEPS_DB[-1]


def agc_attenuation_sequence(strongest_dbm: np.ndarray) -> np.ndarray:
    """Attenuation per capture with the one-capture causal lag.

    The attenuator starts at 0 dB. Capture 0 uses its own power (the device
    converges before the run starts); capture m >= 1 reacts to the strongest
    UE of capture m - 1.
    """
    att = np.zeros(strongest_dbm.shape[0])
    a = 0.0
    for m in range(att.shape[0]):
        a = _agc_step(a, float(strongest_dbm[max(m - 1, 0)]))
        att[m] = a
    return att


# --- impairments -------------------------------------------------------------

def make_chain_response(n_subcarriers: int) -> np.ndarray:
    """Deterministic low-order Fourier ripple, never near zero."""
    rng = np.random.default_rng(CHAIN_SEED)
    k = np.arange(n_subcarriers) / n_subcarriers
    amp = np.zeros(n_subcarriers)
    pha = np.zeros(n_subcarriers)
    for j in range(1, CHAIN_TERMS + 1):
        a, b, c, d = rng.uniform(-1.0, 1.0, 4)
        amp += (a * np.cos(2 * np.pi * j * k) + b * np.sin(2 * np.pi * j * k)) / j
        pha += (c * np.cos(2 * np.pi * j * k) + d * np.sin(2 * np.pi * j * k)) / j
    amp *= CHAIN_AMPLITUDE_DB / max(np.abs(amp).max(), 1e-12)
    pha *= CHAIN_PHASE_RAD / max(np.abs(pha).max(), 1e-12)
    return 10.0 ** (amp / 20.0) * np.exp(1j * pha)


@dataclass(frozen=True)
class ImpairmentConfig:
    thermal_dbm_per_hz: float = THERMAL_NOISE_DBM_PER_HZ
    crosstalk_coupling_db: float | None = -60.0

    def validate(self) -> None:
        c = self.crosstalk_coupling_db
        if c is not None and c > 0:
            raise ValueError(f"crosstalk_coupling_db = {c}: must be <= 0 or null")

    def noise_sigma2_mw(self, attenuation_db, spacing_hz: float) -> np.ndarray:
        """Input-referred noise variance per tone per repetition, in mW."""
        att = np.asarray(attenuation_db, dtype=float)
        penalty = np.minimum(NF_PENALTY_PER_ATT_DB * att, NF_PENALTY_CAP_DB)
        dbm = (
            self.thermal_dbm_per_hz
            + 10.0 * np.log10(spacing_hz)
            + BASE_NOISE_FIGURE_DB
            + penalty
        )
        return 10.0 ** (dbm / 10.0)


# --- campaign ---------------------------------------------------------------

@dataclass
class CampaignPlan:
    """Everything needed to synthesize any capture independently.

    Built by one deterministic pass: pose sampling, path tracing per link,
    noiseless power evaluation and the sequential AGC pass. Spectra are not
    held here; synthesize_chunk generates them on demand from (seed,
    capture index).
    """

    site_id: str
    waveform: WaveformSpec
    impairments: ImpairmentConfig
    seed: int
    positions: np.ndarray  # (M, 3)
    timestamps: np.ndarray  # (M,)
    ue_positions: np.ndarray  # (U, 3)
    path_gains: np.ndarray  # complex (K,), the paths of every link
    path_delays: np.ndarray  # float (K,)
    row_splits: np.ndarray  # int (M U + 1,), path offsets of link m U + j (capture m, UE j)
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
        p_mw = 10.0 ** (TX_POWER_DBM / 10.0)
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
    m_total, n_ues = positions.shape[0], ue_site.positions_m.shape[0]

    chain = make_chain_response(waveform.n_subcarriers)

    gains, delays, splits, power, link_class = [], [], [np.zeros(1, np.int64)], [], []
    for m0 in range(0, m_total, TRACE_SPAN_POSES):
        m1 = min(m0 + TRACE_SPAN_POSES, m_total)
        bundle = rp.trace_paths_batch(scene, positions[m0:m1], headings[m0:m1],
                                      ue_site.positions_m)
        gains.append(bundle.complex_gains())
        delays.append(bundle.delay_s)
        rs = ch.row_splits_for_links(bundle.link_index, (m1 - m0) * n_ues)
        link_class.append(bundle.link_class.reshape(-1, n_ues))
        del bundle  # before the power sums, which need no other column
        splits.append(splits[-1][-1] + rs[1:])
        power.append(ch.mean_tone_power(gains[-1], delays[-1], rs, waveform).reshape(-1, n_ues))
    gains, delays, splits, power, link_class = (
        np.concatenate(x) for x in (gains, delays, splits, power, link_class))
    power_dbm = TX_POWER_DBM + 10.0 * np.log10(np.maximum(power, _POWER_FLOOR_MW))
    att = agc_attenuation_sequence(power_dbm.max(axis=1))

    return CampaignPlan(
        site_id=ue_site.site_id, waveform=waveform,
        impairments=impairments, seed=int(seed),
        positions=positions, timestamps=timestamps,
        ue_positions=ue_site.positions_m.copy(),
        path_gains=gains, path_delays=delays, row_splits=splits,
        link_class=link_class, attenuation_db=att,
        reference_tones=reference_tones(waveform), chain=chain,
    )


def _box_muller(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller radius and angle, float32 arrays shaped like words, of
    C-contiguous uint64 words, every step in float32.

    A word's first and second 32-bit halves in memory (low and high on a
    little-endian host), read as signed integers a and b, give
    u1 = |a + 1/2| / 2^31 in [2^-32, 1], r = sqrt(-ln(u1^2)) <= sqrt(64 ln 2)
    = 6.66, and theta = pi b / 2^31 + pi in [0, 2 pi].
    """
    r, theta = (words.view(np.int32).reshape(*words.shape, 2)[..., k].astype(np.float32)
                for k in (0, 1))
    r += 0.5
    r *= 2.0 ** -31
    r *= r
    np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
    theta *= np.pi / 2 ** 31
    theta += np.pi
    return r, theta


def _unit_noise(seed: int, capture_index: int, out: np.ndarray) -> None:
    """Write capture capture_index's unit-variance noise into out, (U, N, 2)
    float32 (real, imaginary) components, one standard normal each.

    One 64-bit word per (UE, tone) from the capture's own PCG64 stream,
    SeedSequence(entropy=seed, spawn_key=(capture_index,)); each word's
    _box_muller radius r and angle theta give (r cos theta, r sin theta).
    """
    n_ue, n = out.shape[:2]
    stream = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(capture_index,)))
    r, theta = _box_muller(stream.random_raw(n_ue * n).reshape(n_ue, n))
    np.multiply(r, np.cos(theta), out=out[..., 0])
    np.multiply(r, np.sin(theta), out=out[..., 1])


def synthesize_chunk(plan: CampaignPlan, m0: int, m1: int) -> np.ndarray:
    """Recorded spectra for captures [m0, m1), shape (m, U, N): per UE,
    the mean of its REPETITIONS_PER_UE repetitions.

    The raw recording is g * (signal + noise) with g the AGC attenuator
    gain; the transmit leakage (crosstalk_coupling_db, None for none) adds
    to the channel at zero delay, ahead of the attenuator, so its calibrated
    level does not move with AGC steps.

    The signal goes first, link by link in (capture, UE) order: the
    complex128 channel rows of the links that have traced paths, at most m
    at a time in one m-row buffer, are turned into the received signal in
    place and cast straight into the complex64 result. Links without paths
    share one row, a zero channel through the same crosstalk add and transmit
    front. Then per capture, its unit noise z (_unit_noise) fills one
    reused (U, N, 2) float32 buffer, and over all UEs at once, in place on
    the result's float32 (real, imaginary) components: z *= s,
    result += z, result *= g, with s = float32(sqrt(sigma2 / 2)) and
    g = float32(gain), where sigma2 is the variance of the repetition mean,
    one repetition's over REPETITIONS_PER_UE. So each component is
    g * (complex64(signal) + s * z), rounded to float32 after each
    operation. A thermal density of -inf dBm/Hz gives s = 0, a capture
    without receiver noise: z is finite, so that stores g * complex64(signal).
    Every capture's noise depends on (seed, capture index) only.
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

    def to_signal(h):
        """Turn channel rows h, (k, N) complex128, into the received signal
        in place: crosstalk added, times the transmit front."""
        if imp.crosstalk_coupling_db is not None:
            h += 10.0 ** (imp.crosstalk_coupling_db / 20.0)
        h *= tx_front
        return h

    out = np.empty((m_chunk * n_ue, n), dtype=np.complex64)  # a row per link
    splits = plan.row_splits[m0 * n_ue:m1 * n_ue + 1]
    counts = np.diff(splits)
    # Every link without paths has a zero channel, so they share one row.
    out[counts == 0] = to_signal(np.zeros((1, n), dtype=np.complex128))
    has = np.flatnonzero(counts)
    h_buf = np.empty((min(has.size, m_chunk), n), dtype=np.complex128)
    for b in range(0, has.size, m_chunk):
        block = has[b:b + m_chunk]  # the links between them have no paths
        out[block] = to_signal(ch.synthesize_rows(
            plan.path_gains, plan.path_delays, np.append(splits[block], splits[block[-1] + 1]),
            wf_spec, out=h_buf[:block.size]))

    out_re = out.view(np.float32).reshape(m_chunk, n_ue, n, 2)
    z = np.empty((n_ue, n, 2), dtype=np.float32)
    for i, (s, g) in enumerate(zip(noise_scale.astype(np.float32), g_lin.astype(np.float32))):
        _unit_noise(plan.seed, m0 + i, z)
        z *= s
        out_re[i] += z
        out_re[i] *= g
    return out.reshape(m_chunk, n_ue, n)
