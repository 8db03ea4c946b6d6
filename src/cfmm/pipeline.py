"""Power delay profile evaluation pipeline.

Fixed stage order: calibrate and window -> pad/invert -> small-scale
average -> noise threshold -> delay gate -> leakage pre-cursor removal.
Thresholding runs before gating because the noise level is estimated from
late delay bins that the gate discards.

Calibration is folded into the transform's pre-multiply. calibrate gives
one complex factor per tone, 1 / (cal response x reference), which joins
the Kaiser taps in one weight vector per chunk, and one real factor per
capture, 10^(attenuation / 20). compute_pdp multiplies each row of raw
complex64 spectra by the weights, its span pre-rotation and chirp, and
its capture's factor, straight into the zero-padded FFT buffer of its
row block; no calibrated copy of the spectra is made.

The PDP convention is P(tau_q) = |sum_k w_k H_k exp(+2j pi k q / (F N))|^2
with taps normalized to unit coherent gain (sum w = 1), so an isolated
path's peak equals its power regardless of the window shape, and the
ungated, unwindowed profile obeys Parseval against (1/N) sum |H_k|^2.

Only the delays the pipeline keeps are transformed. The padded profile has
L = F N bins and the noise region is [lo, hi) in oversampled bins; its
complement is the signed span [hi - L, lo), which holds the gated delays,
the rest of the pre-noise delays and the negative delays where the
zero-delay leakage wraps. compute_pdp evaluates that span exactly with
Bluestein's chirp-z algorithm (Rabiner, Schafer & Rader, 1969). The
noise-region energy of a capture is the Parseval total L sum |w H|^2
minus the span energy; since the small-scale average is linear, the noise
level averages those per-capture region means instead of whole profiles.

The window shape parameter follows the classic Kaiser-Bessel convention:
a value of 3.0 means I0(pi*3*sqrt(1-x^2)) (first sidelobe -69.8 dB). The
far sidelobes then stay more than 100 dB below an isolated peak, which is
what lets a 100 dB dynamic range survive windowing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import SPEED_OF_LIGHT

_TINY = 1e-300
NOISE_FLOOR_DB = 10.0 * np.log10(_TINY)  # noise_db of a profile with no measurable noise
# Rows per block of compute_pdp: it reuses one (block, nfft) complex128
# buffer, 2.0 MB at the default 7840-point transform, however many rows
# it is given. Blocks of 8 to 136 rows ran a 128-capture chunk equally
# fast (2 vCPUs, numpy 2.4); below 16 the chunk's peak memory hardly
# falls further.
TRANSFORM_BLOCK_ROWS = 16


@dataclass(frozen=True)
class PipelineParams:
    kaiser_beta: float = 3.0  # Kaiser-Bessel alpha; np.kaiser beta = pi * this
    pad_factor: int = 10
    ssa_window: int = 9
    delta_n_db: float = 7.0
    gate_native_bins: int = 400
    guard_native_bins: int = 4
    # The top native bins alias negative delays, where the zero-delay
    # leakage spike's mainlobe wraps around; stop the noise region short
    # of them so the estimate reads thermal noise, not leakage skirts.
    noise_region_native: tuple[int, int | None] = (450, 2750)

    def validate(self) -> None:
        if self.kaiser_beta < 0:
            raise ValueError(f"kaiser_beta = {self.kaiser_beta}: must be >= 0")
        if self.pad_factor < 1:
            raise ValueError(f"pad_factor = {self.pad_factor}: must be >= 1")
        if self.ssa_window < 1 or self.ssa_window % 2 == 0:
            raise ValueError(f"ssa_window = {self.ssa_window}: must be odd and >= 1")
        if self.gate_native_bins < 1:
            raise ValueError(f"gate_native_bins = {self.gate_native_bins}: must be >= 1")
        if self.guard_native_bins < 0:
            raise ValueError(f"guard_native_bins = {self.guard_native_bins}: must be >= 0")
        lo, hi = region = list(self.noise_region_native)
        if lo < self.gate_native_bins:
            raise ValueError(f"noise_region_native = {region}: must start >= gate_native_bins")
        if hi is not None and hi <= lo:
            raise ValueError(f"noise_region_native = {region}: must be non-empty")

    def noise_bins(self, n_subcarriers: int) -> tuple[int, int]:
        """Noise region [lo, hi) in oversampled bins of an n_subcarriers profile.

        Raises ValueError when the region does not fit inside the profile.
        """
        lo, hi = self.noise_region_native
        hi = n_subcarriers if hi is None else hi
        if not lo < hi <= n_subcarriers:
            raise ValueError(
                f"pipeline.noise_region_native = {tuple(self.noise_region_native)}: "
                f"needs lo < hi <= {n_subcarriers}, the tone count of the captures")
        return lo * self.pad_factor, hi * self.pad_factor

    @property
    def gated_bins(self) -> int:
        """Oversampled bins the delay gate keeps, the matrix's n_bins."""
        return self.gate_native_bins * self.pad_factor


@dataclass
class SparseRows:
    """Gated profiles of consecutive (capture, UE) rows, surviving bins only.

    Compressed sparse rows: row r holds n_runs[r] runs of consecutive
    surviving bins, each a first bin and a length, and the float32 values
    of those bins in bin order. Runs and values follow row order, and rows
    run capture-major, as (capture, UE) in a matrix file. dense decodes
    them into (values, mask) arrays, for code that compares bin by bin.
    """

    noise_db: np.ndarray  # (rows,) float64
    n_runs: np.ndarray  # (rows,) int
    starts: np.ndarray  # (runs,) int, first bin of each run
    lengths: np.ndarray  # (runs,) int, at least 1
    values: np.ndarray  # (kept,) float32
    n_bins: int  # bins per row, the gated span

    @classmethod
    def encode(cls, mask: np.ndarray, values: np.ndarray,
               noise_db: np.ndarray) -> "SparseRows":
        """From a mask with bins on the last axis and the values of its
        set bins in row-major order, as dense[mask] gives them; the leading
        axes flatten to rows, as do those of noise_db."""
        flat = mask.reshape(-1, mask.shape[-1])
        # A zero column after each row ends every run inside its row. With
        # one more zero ahead of the first row, the mask changes along the
        # flattened rows at each run's first bin and at the bin past its
        # last, alternately.
        width = flat.shape[1] + 1
        padded = np.zeros(1 + flat.shape[0] * width, dtype=bool)
        padded[1:].reshape(-1, width)[:, :-1] = flat
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        rows, starts = np.divmod(edges[0::2], width)
        return cls(
            noise_db=np.asarray(noise_db, dtype=np.float64).reshape(-1),
            n_runs=np.bincount(rows, minlength=flat.shape[0]),
            starts=starts, lengths=edges[1::2] - edges[0::2],
            values=values.astype(np.float32, copy=False),
            n_bins=flat.shape[1],
        )

    @property
    def n_rows(self) -> int:
        return int(self.n_runs.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_bins

    def kept(self) -> np.ndarray:
        """Surviving bins per row."""
        ends = np.concatenate([[0], np.cumsum(self.lengths)])
        ptr = np.concatenate([[0], np.cumsum(self.n_runs)])
        return ends[ptr[1:]] - ends[ptr[:-1]]

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, mask), each (rows, n_bins), masked bins zero."""
        run_row = np.repeat(np.arange(self.n_rows), self.n_runs)
        # Runs mark +1 at their first bin and -1 past their last; the running
        # sum is the mask, and the values fill it in row-major order.
        first = run_row * self.n_bins + self.starts
        edges = np.zeros(self.n_rows * self.n_bins + 1, dtype=np.int8)
        edges[first] += 1
        edges[first + self.lengths] -= 1
        mask = np.cumsum(edges[:-1], dtype=np.int8).view(bool).reshape(self.shape)
        out = np.zeros(self.shape, dtype=np.float32)
        out[mask] = self.values
        return out, mask

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and bin of each kept value."""
        rows = np.repeat(np.arange(self.n_rows), self.kept())
        # A value's bin is its run's first bin plus its offset in the run.
        first = np.cumsum(self.lengths) - self.lengths
        bins = np.repeat(self.starts - first, self.lengths) + np.arange(self.values.size)
        return rows, bins

    def row_max(self) -> np.ndarray:
        """Largest kept value per row, float32; 0 where the row keeps nothing."""
        kept = self.kept()
        top = np.zeros(self.n_rows, dtype=np.float32)
        full = np.flatnonzero(kept)
        if full.size:
            top[full] = np.maximum.reduceat(self.values, (np.cumsum(kept) - kept)[full])
        return top

    def peaks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the bin and float32 value that argmax over the dense
        row picks: the first of equal maxima, and bin 0, value 0 where the
        row keeps nothing or only zeros."""
        top = self.row_max()
        bins = np.zeros(self.n_rows, dtype=np.int64)
        value_row, value_bins = self.positions()
        hits = np.flatnonzero(self.values == top[value_row])
        hit_row = value_row[hits]
        lead = np.concatenate([[True], hit_row[1:] != hit_row[:-1]])[:hits.size]
        bins[hit_row[lead]] = value_bins[hits[lead]]
        bins[top == 0] = 0
        return bins, top


def kaiser_taps(n_subcarriers: int, beta: float) -> np.ndarray:
    """Window taps normalized to unit coherent gain (sum of taps = 1)."""
    w = np.kaiser(n_subcarriers, np.pi * beta)
    return w / w.sum()


def calibrate(cal_response: np.ndarray, reference_tones: np.ndarray,
              attenuation_db: float | np.ndarray = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Factors that undo the chain calibration, the reference and the attenuator.

    Returns (tone_gain, row_gain): 1 / (cal_response * reference_tones),
    complex, one per tone, and 10^(attenuation_db / 20), real, shaped like
    attenuation_db (scalar, or one value per capture row). A raw spectrum
    times both is the calibrated channel; process_chunk folds them into the
    pre-multiply of compute_pdp. Neither tone vector holds a zero: the
    capture reader rejects one that does.
    """
    tone_gain = 1.0 / (np.asarray(cal_response) * np.asarray(reference_tones))
    row_gain = 10.0 ** (np.asarray(attenuation_db, dtype=float) / 20.0)
    return tone_gain, row_gain


def _fast_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= target, the lengths pocketfft runs fastest.

    Equals scipy.fft.next_fast_len(target) for complex input.
    """
    odd = [1]  # odd 11-smooth numbers below 2 * target
    for p in (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m < 2 * target:
                grown.append(m)
                m *= p
        odd = grown
    return min(m << (-(-target // m) - 1).bit_length() for m in odd)


@lru_cache(maxsize=8)
def _chirp_plan(n: int, big_l: int, start: int, span: int) -> tuple:
    """(nfft, rotate, chirp, kernel FFT) of one span transform, read-only.

    rotate and chirp are the n-tone pre-rotation by the span start and
    chirp exp(i pi k^2 / L); the kernel FFT is that of the conjugate chirp
    laid out for circular convolution over nfft points. A process computes
    each once per (n, L, span), not once per call.
    """
    nfft = _fast_len(n + span - 1)
    k = np.arange(max(n, span), dtype=np.int64)
    chirp = np.exp(1j * np.pi * ((k * k) % (2 * big_l)) / big_l)
    rotate = np.exp(2j * np.pi * ((k[:n] * start) % big_l) / big_l)
    kernel = np.zeros(nfft, dtype=np.complex128)
    kernel[:span] = chirp[:span].conj()
    kernel[nfft - n + 1:] = chirp[n - 1:0:-1].conj()
    plan = (rotate, chirp[:n].copy(), np.fft.fft(kernel))
    for a in plan:
        a.flags.writeable = False
    return (nfft, *plan)


def compute_pdp(h: np.ndarray, weights: np.ndarray, pad_factor: int,
                bins: tuple[int, int], row_gain: np.ndarray | float,
                energy: np.ndarray) -> np.ndarray:
    """Weighted, zero-padded delay-power profile, tones on the last axis.

    weights is one factor per tone: the window taps (kaiser_taps), times
    calibrate's tone_gain where h is raw; row_gain is one real factor per
    row of h, or one for all rows. The padded profile has L = pad_factor * n
    bins; bin q sits at delay q / (L * spacing), and a negative q is the
    alias of bin L + q. bins = (start, stop) selects the signed bins
    start <= q < stop ((0, L) is the whole profile), which come out in that
    order. energy, shaped as h without its tone axis, receives each row's
    whole-profile energy L sum |w g h|^2 (Parseval), one float64 per row.

    The span is evaluated with Bluestein's algorithm: pre-rotate by the
    span start, convolve with the chirp exp(i pi k^2 / L) by numpy.fft
    transforms of the 11-smooth length nfft >= n + span - 1, and drop the
    unit-modulus post-chirp, which |.|^2 removes. Phases are reduced
    exactly in int64 (k^2 mod 2L, j*start mod L) before scaling, so no
    phase loses precision with k. The rows run in blocks of
    TRANSFORM_BLOCK_ROWS through one reused (block, nfft) buffer: only its
    zero tail [n, nfft) is re-zeroed, the block goes into its head in one
    multiply by weights x rotation x chirp and one by row_gain, both row
    transforms run in place, and |x|^2 of the span is written straight
    into the result. Each row is transformed alone, so the output does not
    depend on the block size, and the working memory beyond the result
    does not grow with the row count. Since rotation and chirp have unit
    modulus, energy comes from the pre-multiplied rows.
    """
    h = np.asarray(h)
    n = h.shape[-1]
    big_l = pad_factor * n
    start, stop = bins
    span = stop - start
    if not 0 < span <= big_l:
        raise ValueError(f"bins {bins}: span must hold 1..{big_l} bins")
    nfft, rotate, chirp, kernel_fft = _chirp_plan(n, big_l, start, span)
    lead = h.shape[:-1]
    rows = h.reshape(-1, n)
    row_gain = np.broadcast_to(row_gain, lead).reshape(-1)
    tone = weights * rotate * chirp
    p = np.empty((rows.shape[0], span))
    total = np.empty(rows.shape[0])
    x = np.empty((min(TRANSFORM_BLOCK_ROWS, rows.shape[0]), nfft), dtype=np.complex128)
    for r0 in range(0, rows.shape[0], TRANSFORM_BLOCK_ROWS):
        r1 = min(r0 + TRANSFORM_BLOCK_ROWS, rows.shape[0])
        buf = x[:r1 - r0]
        head = buf[:, :n]
        buf[:, n:] = 0
        np.multiply(rows[r0:r1], tone, out=head)
        head *= row_gain[r0:r1, None]
        np.square(head.view(np.float64)).sum(axis=-1, out=total[r0:r1])
        np.fft.fft(buf, axis=-1, out=buf)
        buf *= kernel_fft
        np.fft.ifft(buf, axis=-1, out=buf)
        y = buf[:, :span]
        np.square(y.real, out=p[r0:r1])
        p[r0:r1] += np.square(y.imag)
    total *= big_l
    energy[...] = total.reshape(lead)
    return p.reshape(lead + (span,))


def small_scale_average(pdps: np.ndarray, window: int) -> np.ndarray:
    """Centered moving mean over the capture axis with truncated edges;
    window is odd, as PipelineParams.validate checks.

    Summation runs in fixed window order (earliest row first) so a row's
    average is bit-identical no matter how the campaign is chunked for
    parallel processing; a running-sum formulation would not be.
    """
    pdps = np.asarray(pdps)
    m = pdps.shape[0]
    half = window // 2
    acc = np.zeros(pdps.shape, dtype=np.float64)
    counts = np.zeros(m)
    for off in range(-half, half + 1):
        src_lo, src_hi = max(0, off), m + min(0, off)
        dst = slice(src_lo - off, src_hi - off)
        acc[dst] += pdps[src_lo:src_hi]
        counts[src_lo - off:src_hi - off] += 1
    acc /= counts.reshape((m,) + (1,) * (pdps.ndim - 1))
    return acc


def threshold_noise(ssa_pdp: np.ndarray, noise_mean: np.ndarray,
                    delta_n_db: float) -> tuple[np.ndarray, np.ndarray]:
    """Noise-level estimate and survival mask.

    noise_mean is the mean linear power over the noise region (late,
    signal-free delay bins), one value per profile on the leading axes;
    bins at or above noise + delta survive. Returns (mask, noise_level_db).
    """
    p_lin = np.asarray(noise_mean, dtype=np.float64)
    noise_db = 10.0 * np.log10(np.maximum(p_lin, _TINY))
    theta_lin = p_lin * 10.0 ** (delta_n_db / 10.0)
    mask = np.asarray(ssa_pdp) >= theta_lin[..., None]
    return mask, noise_db


def degenerate_row_counts(kept_bins: np.ndarray, noise_db: np.ndarray) -> dict[str, int]:
    """Counts of profiles whose summary numbers are not ordinary readings.

    rows_no_surviving_bins: no gated bin survived threshold, gate and cut,
    so the profile has no peak. rows_noise_at_floor: the noise mean was
    below the clamp, so noise_db reads NOISE_FLOOR_DB and the threshold
    passes every non-zero bin. kept_bins and noise_db hold one value per
    profile: its surviving bin count and its noise level.
    """
    return {
        "rows_no_surviving_bins": int((np.asarray(kept_bins) == 0).sum()),
        "rows_noise_at_floor": int((np.asarray(noise_db) <= NOISE_FLOOR_DB).sum()),
    }


def delay_gate(mask: np.ndarray, cuts: np.ndarray) -> None:
    """Restrict gated profiles to [cut, B), in place.

    mask holds the B gated bins on the last axis; cuts (from
    crosstalk_cut_bins) broadcasts against the leading axes. Bins before a
    profile's cut are leakage pre-cursor and are unmasked.
    """
    mask &= np.arange(mask.shape[-1]) >= np.asarray(cuts)[..., None]


def native_bin_width_s(source) -> float:
    """Width of one native delay bin, 1 / bandwidth, of a source's tone comb."""
    return 1.0 / (source.n_subcarriers * source.subcarrier_spacing_hz)


def crosstalk_cut_bins(distance_m: np.ndarray, native_bin_s: float,
                       guard_native_bins: int, gate_native_bins: int,
                       pad_factor: int) -> np.ndarray:
    """Pre-cursor removal extent in oversampled bins, per entry.

    The earliest physical arrival sits at the Euclidean-distance bin
    (rounded to the native grid); everything more than guard bins ahead of
    it is leakage. A distance beyond the gate removes the whole gated span.
    """
    k = np.rint(np.asarray(distance_m, dtype=float)
                / (SPEED_OF_LIGHT * native_bin_s)).astype(int)
    return np.clip(k - guard_native_bins, 0, gate_native_bins) * pad_factor


# --- campaign orchestration ---------------------------------------------------

def process_chunk(source, params: PipelineParams, a: int, b: int) -> tuple:
    """Process captures [a, b) in isolation.

    Re-reads a small halo so the small-scale average matches the
    whole-campaign computation exactly; the result depends only on
    (source, params, a, b), never on how the campaign was chunked, which
    is what makes parallel workers byte-equivalent to a serial run.
    Returns (a, b, rows), rows the chunk's SparseRows over the gated span;
    the benchmark's tracer counts a chunk's rows by the echoed span.

    Each UE's spectra are read just before they are transformed, complex64
    as stored, one row per capture of the chunk and its halo, so the chunk
    never holds every UE's spectra at once. Each profile is transformed
    over the signed span that complements the noise region, and its gated
    bins are averaged, thresholded, gated and cut into the chunk's mask;
    only their surviving values are kept.
    """
    n = source.n_subcarriers
    f = params.pad_factor
    big_l = n * f
    gate_cut = params.gated_bins
    noise_lo, noise_hi = params.noise_bins(n)
    span = (noise_hi - big_l, noise_lo)
    gated = slice(big_l - noise_hi, big_l - noise_hi + gate_cut)  # delays [0, gate)
    halo = (params.ssa_window - 1) // 2

    deltas = source.positions[a:b, None, :] - source.ue_positions[None, :, :]
    distances = np.linalg.norm(deltas, axis=-1)  # (b - a, U)
    cuts = crosstalk_cut_bins(distances, native_bin_width_s(source),
                              params.guard_native_bins,
                              params.gate_native_bins, f)

    lo = max(0, a - halo)
    hi = min(source.n_captures, b + halo)
    own = slice(a - lo, b - lo)
    tone_gain, row_gain = calibrate(source.cal_response, source.reference_tones,
                                    source.attenuation_db[lo:hi])
    weights = kaiser_taps(n, params.kaiser_beta) * tone_gain

    mask = np.empty((b - a, source.n_ues, gate_cut), dtype=bool)
    noise_db = np.empty((b - a, source.n_ues))
    kept = []  # per UE, its surviving float64 values in (capture, bin) order
    total = np.empty(hi - lo)
    for j in range(source.n_ues):
        pdp = compute_pdp(source.spectra(lo, hi, j), weights, f, span, row_gain, total)
        region = np.maximum(total - pdp.sum(axis=-1), 0.0) / (noise_hi - noise_lo)
        ssa = small_scale_average(pdp[:, gated], params.ssa_window)[own]
        noise_mean = small_scale_average(region, params.ssa_window)[own]
        mask[:, j], noise_db[:, j] = threshold_noise(ssa, noise_mean, params.delta_n_db)
        delay_gate(mask[:, j], cuts[:, j])
        kept.append(ssa[mask[:, j]])
        del pdp, ssa  # so two UEs' profiles never coexist
    # Row (c, j)'s values are one block both in UE j's (capture, bin) order
    # and in the capture-major rows, where it starts shift[c, j] later.
    counts = mask.sum(axis=-1)
    shift = np.cumsum(counts).reshape(counts.shape) - np.cumsum(counts, axis=0)
    values = np.empty(int(counts.sum()), dtype=np.float32)
    for j, v in enumerate(kept):
        values[np.repeat(shift[:, j], counts[:, j]) + np.arange(v.size)] = v
    return a, b, SparseRows.encode(mask, values, noise_db)


_WORKER_TASK = None  # (fn, args) of the running pool; fork workers inherit it
_LOOKAHEAD_PER_WORKER = 2  # spans a pool starts ahead of the earliest untaken one


def peak_rss_mb() -> float | None:
    """Peak resident set size of this process in MB (1e6 bytes), from the
    VmHWM line of /proc/self/status; None where that line is missing. A
    forked worker's reading also counts the pages it shares with its parent
    that are resident in it, so the readings of a stage and of its workers
    overlap and do not add up."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return None


def _run_span(span: tuple[int, int]) -> tuple:
    fn, args = _WORKER_TASK
    result = fn(*args, *span)
    return span[0], result, peak_rss_mb()


def run_chunks(fn, args: tuple, n_captures: int, chunk_size: int, take,
               workers: int = 1) -> dict:
    """Call take(a, fn(*args, a, b)) for each span [a, b) of chunk_size
    captures covering [0, n_captures), in span order, in this process.
    chunk_size must be at least 1; the stages check it before they start.
    Returns the run's stage record fields: workers, the number of
    processes that ran spans, and, when a pool ran, worker_peak_rss_mb,
    the largest peak_rss_mb that a worker read at the end of a span
    (omitted where no worker could read one).

    With workers <= 1 the spans run here, one after another. Otherwise a
    fork pool of that many processes, at most one per span, runs them:
    spans are submitted to a queue, the earliest is waited on and taken,
    and a span starts only while it lies fewer than 2 x workers spans
    after the earliest one not yet taken, so at most that many results
    wait in the parent however long the campaign. fn and args reach the
    workers through one module global instead of being pickled; the
    global is cleared however the run ends, and a failed run cancels the
    spans not yet started. A result depends only on its span, so the
    output depends on neither the chunk size nor the worker count. On the
    serial path take holds the only reference to a result, so each chunk
    is freed before the next one is computed (a generator would keep it
    alive in its caller's loop variable).
    """
    spans = [(a, min(a + chunk_size, n_captures))
             for a in range(0, n_captures, chunk_size)]
    workers = min(workers, len(spans))
    if workers <= 1:
        for a, b in spans:
            take(a, fn(*args, a, b))
        return {"workers": 1}
    # Imported here, not at module level: stages that run no pool skip
    # their import cost.
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    window = _LOOKAHEAD_PER_WORKER * workers
    queued: deque = deque()  # futures of the untaken spans, in span order
    peaks = []

    def take_earliest() -> None:
        a, result, peak = queued.popleft().result()
        if peak is not None:
            peaks.append(peak)
        take(a, result)

    global _WORKER_TASK
    _WORKER_TASK = (fn, args)
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=mp.get_context("fork")) as pool:
            try:
                for span in spans:
                    if len(queued) == window:
                        take_earliest()
                    queued.append(pool.submit(_run_span, span))
                while queued:
                    take_earliest()
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        _WORKER_TASK = None
    return {"workers": workers} | ({"worker_peak_rss_mb": max(peaks)} if peaks else {})
