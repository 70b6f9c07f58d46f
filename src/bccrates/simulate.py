"""Exact small-blocklength simulation of the random coding constructions.

Codebooks are drawn layer by layer (cloud centers, satellites, and for the
three-layer broadcast code a common layer on top), with one RNG stream per
trial derived from the master seed and trial index.  At desk-scale
blocklengths every figure of merit is computed by exact enumeration: output
distributions, divergences, leakage, and threshold-decoder error rates.
The exact error tables, the Monte Carlo error estimates and the sequence
decoders apply one threshold rule to log-likelihood sums added in letter order.
``_Block`` holds three-layer codebooks with their tests, read from the
chain's laws (composed once per chain); ``decode_bob``/``decode_eve`` are
the one-sequence case, and the Monte Carlo error estimates score a block of
samples at a time, drawn in the per-sample order.

A batch of trials is evaluated in blocks: each block draws its codebooks,
one stream per trial, and every channel's rows are folded once per distinct
word of the block, then gathered back.  Codebook tables of a block fill at
most ``_TRIAL_BLOCK`` entries (or one trial), and nothing is kept between
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csv import write_csv
from .chain import BccChain
from .exponents import decoding_thresholds
from .probability import Dmc, GuardExceeded, Pmf, _kl

CODEBOOK_GUARD = 2**22
OUTPUT_ENUM_GUARD = 2**20
LEAKAGE_GUARD = 2**22
DECODE_GUARD = 2**22
# Entries per array of a Monte Carlo block.  15,000 doubles stay under
# 128 KiB, the default threshold above which malloc maps fresh pages for an
# array, so a call's buffers do not each cost page faults.
_MC_BLOCK = 15_000
_TRIAL_BLOCK = 1 << 16       # codeword-table entries per block of trials (512 KB a table)


def _inverse_cdf_sample(uniforms: np.ndarray, cdf: np.ndarray, symbols) -> np.ndarray:
    """The letter drawn by each uniform u from row ``symbols`` of ``cdf``: the
    number of columns b < m - 1 with cdf[symbols, b] <= u, compared one column
    at a time.  The last column is forced to 1 > u, so it would never count."""
    columns = cdf[:, :-1].T
    if not len(columns):
        return np.zeros(np.broadcast_shapes(np.shape(uniforms), np.shape(symbols)),
                        dtype=np.int64)
    letters = (columns[0][symbols] <= uniforms).astype(np.int64)
    for column in columns[1:]:
        letters += column[symbols] <= uniforms
    return letters


def _cdf(matrix: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(matrix, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _letter_fold(words: np.ndarray, letter_rows: np.ndarray, combine, start: float):
    """Fold letter rows over every output sequence in t order, outputs indexed
    lexicographically (first symbol most significant)."""
    words = np.atleast_2d(words)
    count = words.shape[0]
    rows = np.full((count, 1), start)
    for t in range(words.shape[1]):
        step = letter_rows[words[:, t]]
        rows = combine(rows[:, :, None], step[:, None, :]).reshape(count, -1)
    return rows


class _DistinctWords:
    """A stack of words (letters on the last axis), folded once per distinct word.

    A word's key is the exact integer its letters spell in base b, one more
    than the largest letter, or its row of letters where b^n would overflow
    int64.  A fold is row-wise, so a gathered row is the same float as the
    word folded alone.  The distinct rows are gathered back only when at most
    half the words are distinct; otherwise (one word, say) every word is
    folded in place.
    """

    def __init__(self, words: np.ndarray):
        n = words.shape[-1]
        self.shape = words.shape[:-1]
        self.words = words.reshape(-1, n)
        self.first = self.inverse = None
        if self.words.shape[0] == 1:  # nothing to share
            return
        letters = int(self.words.max()) + 1
        if letters == 1 or n < 64 and letters**n <= np.iinfo(np.int64).max:
            keys = self.words @ letters ** np.arange(n - 1, -1, -1, dtype=np.int64)
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        else:
            _, first, inverse = np.unique(self.words, axis=0, return_index=True,
                                          return_inverse=True)
        if 2 * first.size <= self.words.shape[0]:
            self.first, self.inverse = first, inverse.reshape(-1)

    def fold(self, letter_rows: np.ndarray, combine, start: float) -> np.ndarray:
        """``_letter_fold`` rows of every word, shaped as the stack plus outputs.

        Words are folded ``_TRIAL_BLOCK`` entries at a time into one table, so
        the last letter's step never holds a second table of every word.
        """
        words = self.words if self.first is None else self.words[self.first]
        outputs = letter_rows.shape[-1] ** words.shape[1]
        chunk = max(1, _TRIAL_BLOCK // outputs)
        if words.shape[0] <= chunk:
            rows = _letter_fold(words, letter_rows, combine, start)
        else:
            rows = np.empty((words.shape[0], outputs))
            for at in range(0, words.shape[0], chunk):
                rows[at:at + chunk] = _letter_fold(words[at:at + chunk], letter_rows,
                                                   combine, start)
        if self.inverse is not None:
            rows = rows[self.inverse]
        return rows.reshape(self.shape + rows.shape[-1:])


def codeword_channel_rows(words: np.ndarray, channel_matrix: np.ndarray) -> np.ndarray:
    """Product-law rows P^n(. | word) for each word, outputs indexed
    lexicographically (first symbol most significant)."""
    return _DistinctWords(np.atleast_2d(words)).fold(channel_matrix, np.multiply, 1.0)


def _log(probs: np.ndarray) -> np.ndarray:
    """Elementwise log, -inf where a probability is 0."""
    with np.errstate(divide="ignore"):
        return np.log(probs)


def _log_likelihoods(words: np.ndarray, matrix: np.ndarray, seq=None) -> np.ndarray:
    """sum_t log matrix[word_t, seq_t] for each word, added left to right in t
    order, at ``seq`` (n,) or each sequence of a stack (samples, n); with
    ``seq`` None, a row over every output sequence of each word (words, n),
    indexed as in ``codeword_channel_rows``.  Every form adds the same terms
    in the same order, so a table entry equals the value for its sequence
    bit for bit."""
    log_m = _log(matrix)
    if seq is None:
        return _letter_fold(words, log_m, np.add, 0.0)
    return np.cumsum(log_m[words, seq[..., None, :]], axis=-1)[..., -1]


def _prior_log_likelihoods(p: Pmf, n: int, seq=None) -> np.ndarray:
    """The i.i.d. law p^n as the one word of a one-input channel (a words axis of 1)."""
    return _log_likelihoods(np.zeros((1, n), dtype=np.int64), p.probs[None, :], seq)


def _outputs_enumerable(outputs: int, n: int) -> bool:
    return outputs**n <= OUTPUT_ENUM_GUARD


def _decode_enumerable(outputs: int, n: int, candidates: int) -> bool:
    """Whether an exact error table of ``candidates`` by ``outputs``^n fits the guards."""
    return outputs**n * candidates <= DECODE_GUARD and _outputs_enumerable(outputs, n)


@dataclass(frozen=True)
class SuperCodebook:
    """Two-layer codebook: cloud centers and per-cloud satellite words."""

    v_words: np.ndarray  # (m2, n)
    x_words: np.ndarray  # (m2, m1, n)
    p_v: Pmf
    p_x_given_v: Dmc
    seed: object = None

    def __post_init__(self) -> None:
        if self.v_words.ndim != 2 or self.x_words.ndim != 3:
            raise ValueError("v_words must be (m2, n) and x_words (m2, m1, n)")
        if self.x_words.shape[0] != self.v_words.shape[0] \
                or self.x_words.shape[2] != self.v_words.shape[1]:
            raise ValueError("codeword array shapes are inconsistent")
        if self.v_words.min() < 0 or self.v_words.max() >= self.p_v.size:
            raise ValueError("cloud symbol outside its alphabet")
        if self.x_words.min() < 0 or self.x_words.max() >= self.p_x_given_v.output_size:
            raise ValueError("satellite symbol outside its alphabet")

    @property
    def n(self) -> int:
        return int(self.v_words.shape[1])

    @property
    def m2(self) -> int:
        return int(self.v_words.shape[0])

    @property
    def m1(self) -> int:
        return int(self.x_words.shape[1])


def generate_super_codebook(p_v: Pmf, p_x_given_v: Dmc, n: int, m1: int, m2: int,
                            seed) -> SuperCodebook:
    """Draw cloud centers i.i.d. from ``p_v`` and satellites from ``p_x_given_v``.

    Deterministic for a fixed seed; the draw order is cloud layer first, then
    one uniform block for all satellites.
    """
    if n < 1 or m1 < 1 or m2 < 1:
        raise ValueError("blocklength and layer sizes must be at least 1")
    if m2 * m1 * n > CODEBOOK_GUARD:
        raise GuardExceeded(f"codebook size {m2}x{m1}x{n} exceeds guard {CODEBOOK_GUARD}")
    if p_v.size != p_x_given_v.input_size:
        raise ValueError("cloud prior does not match conditional layer input")
    rng = np.random.default_rng(seed)
    v_words = rng.choice(p_v.size, size=(m2, n), p=p_v.probs)
    uniforms = rng.random((m2, m1, n))
    x_words = _inverse_cdf_sample(uniforms, _cdf(p_x_given_v.matrix), v_words[:, None, :])
    v_words.setflags(write=False)
    x_words.setflags(write=False)
    return SuperCodebook(v_words=v_words, x_words=x_words, p_v=p_v,
                         p_x_given_v=p_x_given_v, seed=seed)


def _output_mixtures(books: list[SuperCodebook], w_z: Dmc) -> np.ndarray:
    """Exact block output law of each codebook, shape (books, mz^n): the
    uniform mixture of its codeword product rows, added in codeword order."""
    n, mz = books[0].n, w_z.output_size
    if not _outputs_enumerable(mz, n):
        raise GuardExceeded(f"output enumeration {mz}^{n} exceeds guard")
    words = _DistinctWords(np.stack([book.x_words for book in books]))
    rows = words.fold(w_z.matrix, np.multiply, 1.0)
    return rows.reshape(len(books), -1, rows.shape[-1]).mean(axis=1)


def _target_response(codebook: SuperCodebook, w_z: Dmc) -> np.ndarray:
    """The i.i.d. target law over every output sequence."""
    p_x = Pmf(codebook.p_v.probs @ codebook.p_x_given_v.matrix)
    return codeword_channel_rows(np.zeros((1, codebook.n), dtype=np.int64),
                                 w_z.output(p_x).probs[None, :])[0]


def output_distribution(codebook: SuperCodebook, w_z: Dmc) -> np.ndarray:
    """Exact block output law: uniform mixture of the codeword product rows."""
    return _output_mixtures([codebook], w_z)[0]


def exact_output_divergence(codebook: SuperCodebook, w_z: Dmc) -> float:
    """D(simulated block output || i.i.d. target response), in nats."""
    mix = output_distribution(codebook, w_z)
    return _kl(mix, _target_response(codebook, w_z))


def mc_output_divergence(codebook: SuperCodebook, w_z: Dmc, samples: int,
                         seed) -> tuple[float, float]:
    """Monte Carlo divergence estimate for codebooks beyond the enumeration guard.

    Samples outputs from the simulated law (random codeword, then channel
    noise) and averages the pointwise log ratio against the i.i.d. target;
    returns (estimate, standard error).  The codeword picks are drawn first,
    then the noise a few samples at a time, so the draws are those of one
    (samples, n) noise array.  A word's log-likelihood of a sample depends
    only on their joint type, the counts N_ab of positions with word letter
    a and output letter b.  Sample s has output letter at most b at position
    t exactly when u < cdf[x_t, b] (the CDF rows are non-decreasing), so one
    matrix product per output letter but the last counts those positions,
    and N_ab is the difference of two such counts (exact integers).
    sum_ab N_ab log W[a, b] is added in (a, b) order, as logs, so long blocks
    cannot underflow.

    Memory is bounded by ``_MC_BLOCK`` entries an array.  The noise, its
    word letters and output tests fill three (draw, n) buffers, allocated
    once a call and refilled; the counts and log-likelihoods are formed a
    block of ``_MC_BLOCK // (|words| |X| |Z|)`` samples at a time.  Each
    sample's log ratio is the same float at every block size.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    n = codebook.n
    words = codebook.x_words.reshape(-1, n)
    count, (mx, mz) = words.shape[0], w_z.matrix.shape
    p_x = Pmf(codebook.p_v.probs @ codebook.p_x_given_v.matrix)
    p_z = w_z.output(p_x).probs
    picks = rng.integers(0, count, size=samples)
    steps = _cdf(w_z.matrix)[:, :-1].T     # (mz - 1, mx): the CDF steps a uniform is tested on
    log_w, log_p_z = _log(w_z.matrix), _log(p_z)  # -inf: erasure-channel zeros
    # word letters a < mx - 1 one-hot, then a column of ones for the output count:
    # (n, count * (mx - 1) + 1).  The last letter a takes the rest of each word's
    # count, and the last output letter b the rest of every letter's count.
    one_hot = np.concatenate([(words.T[:, :, None] == np.arange(mx - 1)).reshape(n, -1),
                              np.ones((n, 1), dtype=bool)], axis=1).astype(float)
    letter_counts = (words[:, :, None] == np.arange(mx)).sum(axis=1).astype(float)
    rows = min(samples, _mc_block_rows(count * mx * mz))
    draw = min(rows, max(1, _MC_BLOCK // n))
    # a draw's noise, word letters and output-letter tests, refilled in place
    noise, letters, below = np.empty((draw, n)), np.empty((draw, n), np.intp), np.empty((draw, n))
    log_ratios = np.empty(samples)
    for start in range(0, samples, rows):
        pick = picks[start:start + rows]
        k = pick.size
        # at_most[b, s]: sample s's counts of positions whose output letter is
        # at most b, the test u < cdf[a, b], per word letter a < mx - 1, then in all
        at_most = np.empty((mz - 1, k, one_hot.shape[1]))
        # np.take fills out= through a buffer unless mode is "clip" or "wrap";
        # every index is in range, so clipping changes nothing
        for at in range(0, k, draw):
            piece = pick[at:at + draw]
            u = rng.random(out=noise[:piece.size])
            x = np.take(words, piece, axis=0, out=letters[:piece.size], mode="clip")
            for b, step in enumerate(steps):
                test = np.take(step, x, out=below[:piece.size], mode="clip")
                np.matmul(np.less(u, test, out=test), one_hot, out=at_most[b, at:at + piece.size])
        joint = np.empty((k, count, mx, mz))   # N_ab per sample and word
        out_counts = np.empty((k, mz))
        for b in range(mz - 1):
            counts = at_most[b] - at_most[b - 1] if b else at_most[b]
            out_counts[:, b] = counts[:, -1]
            joint[:, :, :-1, b] = counts[:, :-1].reshape(k, count, mx - 1)
            joint[:, :, -1, b] = counts[:, -1:] - joint[:, :, :-1, b].sum(axis=2)
        out_counts[:, -1] = n - out_counts[:, :-1].sum(axis=1)
        joint[..., -1] = letter_counts - joint[..., :-1].sum(axis=3)
        per_word = _type_log_likelihoods(joint.reshape(k, count, -1), log_w.ravel())
        ref = _type_log_likelihoods(out_counts, log_p_z)
        # log mixture probability of each sampled output, by log-sum-exp
        top = per_word.max(axis=1)
        log_mix = top + np.log(np.exp(per_word - top[:, None]).mean(axis=1))
        log_ratios[start:start + k] = log_mix - ref
    return float(log_ratios.mean()), float(log_ratios.std(ddof=1) / math.sqrt(samples))


def _mc_block_rows(joint_size: int) -> int:
    """Samples per block of ``mc_output_divergence``, whose joint counts fill at
    most ``_MC_BLOCK`` entries (or one sample)."""
    return max(1, _MC_BLOCK // joint_size)


def _type_log_likelihoods(counts: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """sum_k counts[..., k] log_probs[k], added in k order; -inf where a positive
    count meets a zero probability, never 0 * -inf."""
    total = np.zeros(counts.shape[:-1])
    impossible = np.zeros(counts.shape[:-1], dtype=bool)
    for k, log_p in enumerate(log_probs):
        if log_p == -math.inf:
            impossible |= counts[..., k] > 0
        else:
            total += counts[..., k] * log_p
    total[impossible] = -math.inf
    return total


def _mc_error(codebook: BccCodebook, matrix: np.ndarray, passing, samples: int,
              seed) -> float:
    """Share of sampled (message, noise) pairs decoded wrongly.

    Each sample draws k, l, s, a uniformly, in that order, then the channel
    noise of their codeword.  A block of samples is drawn, then
    ``passing(outputs)`` gives its tests, (samples, candidates), decoded as
    in ``_exact_errors``.  A block holds at most ``_MC_BLOCK`` entries an
    array (or one sample); the largest gathers each sample's cloud words.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    cdf, sizes = _cdf(matrix), codebook.sizes
    rows = min(samples, max(1, _MC_BLOCK // codebook.v_words.size))
    msgs, noise = np.empty((rows, len(sizes)), dtype=np.int64), np.empty((rows, codebook.n))
    errors = 0
    for start in range(0, samples, rows):
        count = min(rows, samples - start)
        for i in range(count):
            msgs[i] = [rng.integers(size) for size in sizes]
            rng.random(out=noise[i])
        msg = tuple(msgs[:count].T)
        tests = passing(_inverse_cdf_sample(noise[:count], cdf, codebook.x_words[msg]))
        sent = np.ravel_multi_index(msg, sizes) // (math.prod(sizes) // tests.shape[1])
        errors += int(np.count_nonzero(_decode_table(tests, axis=1) != sent))
    return errors / samples


def mc_bob_error(codebook: BccCodebook, alphas, samples: int, seed) -> float:
    """Monte Carlo receiver error estimate over messages and channel noise."""
    block = _Block([codebook])
    return _mc_error(codebook, codebook.chain.w_y.matrix,
                     lambda y: block.bob_passing(alphas, y), samples, seed)


def mc_eve_error(codebook: BccCodebook, alpha0: float, samples: int, seed) -> float:
    """Monte Carlo eavesdropper error estimate for the common message."""
    block = _Block([codebook])
    return _mc_error(codebook, codebook.chain.w_z.matrix,
                     lambda z: block.eve_passing(alpha0, z), samples, seed)


@dataclass(frozen=True)
class SimResult:
    """Per-trial values with summary statistics (mean, std, normal 95% CI);
    ``stderr`` holds each trial's Monte Carlo standard error, 0.0 when exact."""

    values: np.ndarray
    exact: np.ndarray
    stderr: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return int(self.values.size)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def sample_std(self) -> float:
        return float(self.values.std(ddof=1)) if self.trials > 1 else 0.0

    @property
    def ci95(self) -> float:
        return 1.959963984540054 * self.sample_std / math.sqrt(self.trials)

    def write_csv(self, path) -> None:
        rows = [(t, float(v)) for t, v in enumerate(self.values)]
        rows += [("mean", self.mean), ("sample_std", self.sample_std), ("ci95", self.ci95)]
        write_csv(path, "trial,divergence_nats", rows, self.metadata)


def trial_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    """Independent, order-free stream for one trial of a batch."""
    return np.random.SeedSequence((master_seed, trial))


def _trial_blocks(trials: int, entries: int) -> list[range]:
    """Consecutive trials whose codeword tables, ``entries`` each, fill at most
    ``_TRIAL_BLOCK`` entries together (at least one trial a block)."""
    step = max(1, _TRIAL_BLOCK // entries)
    return [range(start, min(start + step, trials)) for start in range(0, trials, step)]


def mc_resolvability(p_v: Pmf, p_x_given_v: Dmc, w_z: Dmc, n: int, m1: int, m2: int,
                     trials: int, master_seed: int, *, allow_mc: bool = False,
                     mc_samples: int = 20000) -> SimResult:
    """Divergence over independently drawn codebooks, one value per trial.

    Each value is exact when the output enumeration fits its guard.  Past the
    guard it is a ``mc_output_divergence`` estimate from ``mc_samples`` outputs
    if ``allow_mc`` is set, with its standard error in ``stderr`` and in the
    ``mc_stderr`` metadata; otherwise the guard is raised.  Exact trials are
    evaluated a block at a time, each value the one its codebook gives alone.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    exact = _outputs_enumerable(w_z.output_size, n) or not allow_mc
    values = np.empty(trials)
    stderr = np.zeros(trials)
    ref = None
    for block in _trial_blocks(trials, m1 * m2 * w_z.output_size**n if exact else _TRIAL_BLOCK):
        books = [generate_super_codebook(p_v, p_x_given_v, n, m1, m2,
                                         seed=trial_seed(master_seed, t)) for t in block]
        if exact:
            mixes = _output_mixtures(books, w_z)
            if ref is None:
                ref = _target_response(books[0], w_z)
            values[block] = [_kl(mix, ref) for mix in mixes]
            continue
        for t, book in zip(block, books):
            values[t], stderr[t] = mc_output_divergence(
                book, w_z, mc_samples, np.random.SeedSequence((master_seed, t, 1)))
    for arr in (values, stderr):
        arr.setflags(write=False)
    meta = {"n": n, "m1": m1, "m2": m2, "trials": trials, "master_seed": master_seed}
    if exact:
        meta["method"] = "exact_enumeration_per_trial"
    else:
        meta.update(method="monte_carlo_output_sampling", mc_samples=mc_samples,
                    mc_stderr=[float(se) for se in stderr])
    return SimResult(values=values, exact=np.full(trials, exact), stderr=stderr,
                     metadata=meta)


@dataclass(frozen=True)
class BccCodebook:
    """Three-layer codebook indexed by (common k, private l, confidential s, dummy a)."""

    u_words: np.ndarray  # (K, n)
    v_words: np.ndarray  # (K, L, S, n)
    x_words: np.ndarray  # (K, L, S, A, n)
    chain: BccChain
    seed: object = None

    def __post_init__(self) -> None:
        if self.u_words.ndim != 2 or self.v_words.ndim != 4 or self.x_words.ndim != 5:
            raise ValueError("u_words must be (K, n), v_words (K, L, S, n) and "
                             "x_words (K, L, S, A, n)")
        ku, n = self.u_words.shape
        if self.v_words.shape[0] != ku or self.v_words.shape[3] != n:
            raise ValueError("v_words shape inconsistent with u_words")
        if self.x_words.shape[:3] != self.v_words.shape[:3] or self.x_words.shape[4] != n:
            raise ValueError("x_words shape inconsistent with v_words")
        for name, size in zip(("u_words", "v_words", "x_words"), self.chain.sizes):
            words = getattr(self, name)
            if words.min() < 0 or words.max() >= size:
                raise ValueError(f"{name} letter outside its alphabet")

    @property
    def n(self) -> int:
        return int(self.u_words.shape[1])

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        k, l, s = self.v_words.shape[:3]
        return (k, l, s, int(self.x_words.shape[3]))

    def encode(self, k: int, l: int, s: int, a: int) -> np.ndarray:
        """The deterministic encoder: message indices to the transmitted word."""
        return self.x_words[k, l, s, a]


def generate_bcc_codebook(chain: BccChain, sizes: tuple[int, int, int, int], n: int,
                          seed) -> BccCodebook:
    """Draw the three layers: common words from P_U, then cloud words from the
    V|U layer per common word, then satellites from the X|V layer."""
    size_k, size_l, size_s, size_a = sizes
    if min(sizes) < 1 or n < 1:
        raise ValueError("sizes and blocklength must be at least 1")
    if size_k * size_l * size_s * size_a * n > CODEBOOK_GUARD:
        raise GuardExceeded("codebook size exceeds guard")
    rng = np.random.default_rng(seed)
    mu = chain.p_u.size
    u_words = rng.choice(mu, size=(size_k, n), p=chain.p_u.probs)
    uniforms_v = rng.random((size_k, size_l, size_s, n))
    v_words = _inverse_cdf_sample(uniforms_v, _cdf(chain.p_v_given_u.matrix),
                                  u_words[:, None, None, :])
    uniforms_x = rng.random((size_k, size_l, size_s, size_a, n))
    x_words = _inverse_cdf_sample(uniforms_x, _cdf(chain.p_x_given_v.matrix),
                                  v_words[:, :, :, None, :])
    for arr in (u_words, v_words, x_words):
        arr.setflags(write=False)
    return BccCodebook(u_words=u_words, v_words=v_words, x_words=x_words,
                       chain=chain, seed=seed)


def _passes(log_p: np.ndarray, alpha: float, log_q) -> np.ndarray:
    """Every decoder's threshold test p >= e^alpha q, taken in logs so long blocks
    and large alpha stay finite; alpha = inf against q = 0 does not pass."""
    with np.errstate(invalid="ignore"):
        return log_p >= alpha + log_q


def _unique_pass(passing: np.ndarray):
    """The one passing candidate, or None on erasure (none or several pass)."""
    hits = np.flatnonzero(passing)
    return int(hits[0]) if hits.size == 1 else None


def decode_bob(y_seq, codebook: BccCodebook, alphas: tuple[float, float, float]):
    """Threshold decoder for (common, private, confidential); None on erasure.

    A candidate passes when its cloud word beats the common-layer law by
    e^{alpha1} and the prior law by e^{alpha2} at the observed sequence; the
    decoder outputs the unique passing triple, erasing on none or several.
    The tests compare log-likelihood sums, so long blocks cannot underflow.
    """
    hit = _unique_pass(_Block([codebook]).bob_passing(alphas, np.asarray(y_seq, dtype=np.int64)))
    if hit is None:
        return None
    return tuple(int(i) for i in np.unravel_index(hit, codebook.sizes[:3]))


def decode_eve(z_seq, codebook: BccCodebook, alpha0: float):
    """Threshold decoder for the common message only; None on erasure."""
    return _unique_pass(_Block([codebook]).eve_passing(alpha0, np.asarray(z_seq, dtype=np.int64)))


def _decode_table(passing: np.ndarray, axis: int = 0) -> np.ndarray:
    """Decoded candidate for every output sequence (candidates on ``axis``);
    an erasure decodes to candidate 0, so it is an error unless 0 was sent."""
    return np.where(passing.sum(axis=axis) == 1, passing.argmax(axis=axis), 0)


def _exact_errors(passing: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """1 - sum_y P(y|x) [decoded(y) = sent(x)], averaged over the codewords x,
    for each trial of ``passing`` (trials, candidates, outputs).

    ``rows`` holds each trial's codeword product rows, flat codewords in
    order; it is scaled in place.  The candidates are the leading message
    indices ((k, l, s) or k), so each one is sent by an equal run of
    consecutive flat codewords.
    """
    trials, candidates, outputs = passing.shape
    rows = rows.reshape(trials, -1, outputs)
    sent = np.repeat(np.arange(candidates), rows.shape[1] // candidates)
    rows *= _decode_table(passing, axis=1)[:, None, :] == sent[:, None]
    # the correct mass can round above 1; an error rate is never below 0
    return np.maximum(1.0 - rows.sum(axis=2).mean(axis=1), 0.0)


def _leakages(cond: np.ndarray) -> list[float]:
    """Mutual information between the confidential message and the block
    output, for each trial of ``cond`` (trials, S, mz^n)."""
    return [sum(_kl(row, mix) for row in laws) / laws.shape[0]
            for laws, mix in zip(cond, cond.mean(axis=1))]


class _Block:
    """Three-layer codebooks of one chain, sizes and n, stacked trial by
    trial, with their decoder and leakage tables.  The laws are the chain's,
    composed once per chain; each layer's distinct words are found once, when
    first read, and serve every table of the block.

    The tests are given at every output sequence, (trials, candidates,
    outputs), or, for a block's one codebook, at one sequence (n,) or a stack
    (samples, n), giving (1, candidates) or (samples, candidates); each form
    adds the sums of ``_log_likelihoods``, so they agree bit for bit.
    """

    def __init__(self, books: list[BccCodebook]):
        self.books = books
        self.trials = len(books)
        self.chain, self.n, self.sizes = books[0].chain, books[0].n, books[0].sizes
        self._distinct: dict[str, _DistinctWords] = {}

    def _words(self, layer: str) -> np.ndarray:
        """Every codebook's words of one layer, flat in index order, (trials, words, n)."""
        words = np.stack([getattr(book, layer) for book in self.books])
        return words.reshape(self.trials, -1, self.n)

    def _fold(self, layer: str, letter_rows: np.ndarray, combine, start: float) -> np.ndarray:
        """``_DistinctWords.fold`` of one layer's words, (trials, words, outputs)."""
        if layer not in self._distinct:
            self._distinct[layer] = _DistinctWords(self._words(layer))
        return self._distinct[layer].fold(letter_rows, combine, start)

    def _log_likelihoods(self, layer: str, matrix: np.ndarray, seq) -> np.ndarray:
        if seq is None:
            return self._fold(layer, _log(matrix), np.add, 0.0)
        return _log_likelihoods(self._words(layer), matrix, seq)

    def bob_passing(self, alphas, y=None) -> np.ndarray:
        """The two tests of ``decode_bob`` for every flat (k, l, s) candidate,
        at every output sequence or at ``y``."""
        chain, (_, alpha1, alpha2) = self.chain, alphas
        log_v = self._log_likelihoods("v_words", chain.p_y_given_v.matrix, y)
        log_u = np.repeat(self._log_likelihoods("u_words", chain.p_y_given_u.matrix, y),
                          self.sizes[1] * self.sizes[2], axis=1)
        log_prior = _prior_log_likelihoods(chain.p_y, self.n, y)
        return _passes(log_v, alpha1, log_u) & _passes(log_v, alpha2, log_prior)

    def eve_passing(self, alpha0: float, z=None) -> np.ndarray:
        """The test of ``decode_eve`` for every common word, as in ``bob_passing``."""
        chain = self.chain
        return _passes(self._log_likelihoods("u_words", chain.p_z_given_u.matrix, z), alpha0,
                       _prior_log_likelihoods(chain.p_z, self.n, z))

    def conditional_laws(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Eavesdropper block law given each confidential message, (trials, S,
        mz^n); the law given s averages its codeword rows in (k, l, a) order.
        ``rows`` are the eavesdropper rows of every flat codeword, (trials,
        codewords, mz^n); without them each confidential index is folded on
        its own, so only its rows are held."""
        size_s, w_z = self.sizes[2], self.chain.w_z
        if w_z.output_size**self.n * size_s > LEAKAGE_GUARD:
            raise GuardExceeded("leakage enumeration exceeds guard")
        if rows is not None:
            rows = rows.reshape(self.trials, *self.sizes, -1)
            return np.moveaxis(rows, 3, 1).mean(axis=(2, 3, 4))
        words = np.stack([book.x_words for book in self.books])
        return np.stack([_DistinctWords(words[:, :, :, s]).fold(
            w_z.matrix, np.multiply, 1.0).mean(axis=(1, 2, 3))
            for s in range(size_s)], axis=1)

    def evaluate(self, *, bob=None, eve=None, leak: bool = False):
        """Exact receiver errors at thresholds ``bob``, eavesdropper errors at
        threshold ``eve`` and leakages (``leak``) of every codebook; None for
        each one not asked.

        Each channel's rows are folded once per distinct codeword of the
        block; the eavesdropper rows serve both its error and the leakage.
        """
        chain, n = self.chain, self.n
        size_k, size_l, size_s, _ = self.sizes
        bob_errors = eve_errors = leakages = None
        if bob is not None:
            if not _decode_enumerable(chain.w_y.output_size, n, size_k * size_l * size_s):
                raise GuardExceeded("receiver error enumeration exceeds guard")
            bob_errors = _exact_errors(self.bob_passing(bob),
                                       self._fold("x_words", chain.w_y.matrix, np.multiply, 1.0))
        if eve is not None:
            if not _decode_enumerable(chain.w_z.output_size, n, size_k):
                raise GuardExceeded("eavesdropper error enumeration exceeds guard")
            rows = self._fold("x_words", chain.w_z.matrix, np.multiply, 1.0)
            if leak:   # before the error scales the rows in place
                leakages = _leakages(self.conditional_laws(rows))
            eve_errors = _exact_errors(self.eve_passing(eve), rows)
        elif leak:
            leakages = _leakages(self.conditional_laws())
        return bob_errors, eve_errors, leakages


def exact_bob_error(codebook: BccCodebook, alphas) -> float:
    """Average decoding error over messages and channel noise, enumerated exactly.

    Erasures decode to the first message triple, so they count as errors
    except when that triple was sent.
    """
    return float(_Block([codebook]).evaluate(bob=alphas)[0][0])


def exact_eve_error(codebook: BccCodebook, alpha0: float) -> float:
    """Average common-message decoding error at the eavesdropper, exact."""
    return float(_Block([codebook]).evaluate(eve=alpha0)[1][0])


def conditional_output_distributions(codebook: BccCodebook) -> np.ndarray:
    """Eavesdropper block law given each confidential message, shape (S, mz^n)."""
    return _Block([codebook]).conditional_laws()[0]


def exact_leakage(codebook: BccCodebook) -> float:
    """Mutual information between the confidential message and the block output."""
    return _Block([codebook]).evaluate(leak=True)[2][0]


@dataclass(frozen=True)
class BccSimReport:
    """Per-trial error rates and leakage for the three-layer code."""

    bob_errors: np.ndarray
    eve_errors: np.ndarray
    leakages: np.ndarray
    alphas: tuple[float, float, float]
    metadata: dict = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return int(self.leakages.size)

    @property
    def mean_bob_error(self) -> float:
        return float(self.bob_errors.mean())

    @property
    def mean_eve_error(self) -> float:
        return float(self.eve_errors.mean())

    @property
    def mean_leakage(self) -> float:
        return float(self.leakages.mean())

    def write_csv(self, path) -> None:
        rows = [(t, float(self.bob_errors[t]), float(self.eve_errors[t]),
                 float(self.leakages[t])) for t in range(self.trials)]
        rows.append(("mean", self.mean_bob_error, self.mean_eve_error, self.mean_leakage))
        write_csv(path, "trial,bob_error,eve_error,leakage_nats", rows, self.metadata)


def simulate_bcc(chain: BccChain, sizes: tuple[int, int, int, int], n: int, *,
                 alphas: tuple[float, float, float] | None = None, delta: float = 0.05,
                 trials: int, master_seed: int, allow_mc: bool = False,
                 mc_samples: int = 2000) -> BccSimReport:
    """Generate ``trials`` codebooks and evaluate error rates and exact leakage.

    Thresholds default to the blockwise assignments n*(I - delta) for the
    three decoder tests.  Error rates are enumerated exactly when the guards
    permit and estimated by Monte Carlo over messages and noise otherwise
    (``allow_mc``); leakage is always exact, under its own guard.  The exact
    tables are evaluated a block of trials at a time, each value the one its
    codebook gives alone; the Monte Carlo estimates keep one stream a trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not math.isfinite(delta):  # recorded in the metadata even when alphas are given
        raise ValueError(f"delta must be finite, got {delta!r}")
    if alphas is None:
        alphas = decoding_thresholds(chain, n, delta)
    if np.isnan(alphas).any():    # every test would fail; +-inf thresholds are valid
        raise ValueError(f"thresholds must be numbers, got {alphas!r}")
    size_k, size_l, size_s, _ = sizes
    exact_bob = _decode_enumerable(chain.w_y.output_size, n, size_k * size_l * size_s)
    exact_eve = _decode_enumerable(chain.w_z.output_size, n, size_k)
    if not (exact_bob and exact_eve) and not allow_mc:
        raise GuardExceeded(
            "error-rate enumeration exceeds guards; enable the Monte Carlo fallback")
    entries = math.prod(sizes) * max(chain.w_y.output_size**n if exact_bob else 1,
                                     chain.w_z.output_size**n)
    bob = np.empty(trials)
    eve = np.empty(trials)
    leak = np.empty(trials)
    for block in _trial_blocks(trials, entries):
        books = [generate_bcc_codebook(chain, sizes, n, seed=trial_seed(master_seed, t))
                 for t in block]
        bob_exact, eve_exact, leak[block] = _Block(books).evaluate(
            bob=alphas if exact_bob else None, eve=alphas[0] if exact_eve else None, leak=True)
        bob[block] = bob_exact if exact_bob else [
            mc_bob_error(book, alphas, mc_samples, np.random.SeedSequence((master_seed, t, 1)))
            for t, book in zip(block, books)]
        eve[block] = eve_exact if exact_eve else [
            mc_eve_error(book, alphas[0], mc_samples, np.random.SeedSequence((master_seed, t, 2)))
            for t, book in zip(block, books)]
    for arr in (bob, eve, leak):
        arr.setflags(write=False)
    meta = {"n": n, "sizes": list(sizes), "trials": trials, "master_seed": master_seed,
            "alphas": [float(a) for a in alphas], "delta": delta,
            "bob_method": "exact" if exact_bob else "monte_carlo",
            "eve_method": "exact" if exact_eve else "monte_carlo",
            "leakage_method": "exact"}
    if not (exact_bob and exact_eve):
        meta["mc_samples"] = mc_samples
    return BccSimReport(bob_errors=bob, eve_errors=eve, leakages=leak,
                        alphas=tuple(float(a) for a in alphas), metadata=meta)
