"""Exact small-blocklength simulation of the random coding constructions.

Codebooks are drawn layer by layer (cloud centers, satellites, and for the
three-layer broadcast code a common layer on top), with one RNG stream per
trial derived from the master seed and trial index.  At desk-scale
blocklengths every figure of merit is computed by exact enumeration: output
distributions, divergences, leakage, and threshold-decoder error rates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import BccChain
from .exponents import decoding_thresholds
from .probability import Dmc, GuardExceeded, Pmf

CODEBOOK_GUARD = 2**22
OUTPUT_ENUM_GUARD = 2**20
LEAKAGE_GUARD = 2**22
DECODE_GUARD = 2**22


def _rng_for(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


def _inverse_cdf_sample(uniforms: np.ndarray, cdf_rows: np.ndarray) -> np.ndarray:
    # cdf_rows[..., last] is forced to 1, so the count below is always < m
    return (cdf_rows <= uniforms[..., None]).sum(axis=-1)


def _cdf(matrix: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(matrix, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def codeword_channel_rows(words: np.ndarray, channel_matrix: np.ndarray) -> np.ndarray:
    """Product-law rows P^n(. | word) for each word, outputs indexed
    lexicographically (first symbol most significant)."""
    words = np.atleast_2d(words)
    count = words.shape[0]
    rows = np.ones((count, 1))
    for t in range(words.shape[1]):
        step = channel_matrix[words[:, t]]
        rows = (rows[:, :, None] * step[:, None, :]).reshape(count, -1)
    return rows


def _product_law(p: np.ndarray, n: int) -> np.ndarray:
    out = np.ones(1)
    for _ in range(n):
        out = np.kron(out, p)
    return out


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
    rng = _rng_for(seed)
    v_words = rng.choice(p_v.size, size=(m2, n), p=p_v.probs)
    uniforms = rng.random((m2, m1, n))
    x_words = _inverse_cdf_sample(uniforms, _cdf(p_x_given_v.matrix)[v_words][:, None, :, :])
    v_words.setflags(write=False)
    x_words.setflags(write=False)
    return SuperCodebook(v_words=v_words, x_words=x_words, p_v=p_v,
                         p_x_given_v=p_x_given_v, seed=seed)


def output_distribution(codebook: SuperCodebook, w_z: Dmc) -> np.ndarray:
    """Exact block output law: uniform mixture of the codeword product rows."""
    n, mz = codebook.n, w_z.output_size
    if mz**n > OUTPUT_ENUM_GUARD:
        raise GuardExceeded(f"output enumeration {mz}^{n} exceeds guard")
    rows = codeword_channel_rows(codebook.x_words.reshape(-1, n), w_z.matrix)
    return rows.mean(axis=0)


def exact_output_divergence(codebook: SuperCodebook, w_z: Dmc) -> float:
    """D(simulated block output || i.i.d. target response), in nats."""
    mix = output_distribution(codebook, w_z)
    p_x = Pmf(codebook.p_v.probs @ codebook.p_x_given_v.matrix)
    ref = _product_law(w_z.output(p_x).probs, codebook.n)
    support = mix > 0.0
    if np.any(ref[support] == 0.0):
        return math.inf
    ms, rs = mix[support], ref[support]
    return float(np.sum(ms * (np.log(ms) - np.log(rs))))


def mc_output_divergence(codebook: SuperCodebook, w_z: Dmc, samples: int,
                         seed) -> tuple[float, float]:
    """Monte Carlo divergence estimate for codebooks beyond the enumeration guard.

    Samples outputs from the simulated law (random codeword, then channel
    noise) and averages the pointwise log ratio against the i.i.d. target;
    returns (estimate, standard error).  Likelihoods are summed as logs, so
    long blocks cannot underflow.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    rng = _rng_for(seed)
    n = codebook.n
    words = codebook.x_words.reshape(-1, n)
    p_x = Pmf(codebook.p_v.probs @ codebook.p_x_given_v.matrix)
    p_z = w_z.output(p_x).probs
    picks = rng.integers(0, words.shape[0], size=samples)
    noise = rng.random((samples, n))
    z = _inverse_cdf_sample(noise, _cdf(w_z.matrix)[words[picks]])
    log_w, log_p_z = _log(w_z.matrix), _log(p_z)  # -inf: erasure-channel zeros
    log_m = math.log(words.shape[0])
    log_ratios = np.empty(samples)
    for i in range(samples):
        # log mixture probability of the sampled output, by log-sum-exp
        per_word = log_w[words, z[i][None, :]].sum(axis=1)
        top = per_word.max()
        log_mix = top + math.log(np.exp(per_word - top).sum()) - log_m
        log_ratios[i] = log_mix - log_p_z[z[i]].sum()
    return float(log_ratios.mean()), float(log_ratios.std(ddof=1) / math.sqrt(samples))


def mc_bob_error(codebook: BccCodebook, alphas, samples: int, seed) -> float:
    """Monte Carlo receiver error estimate over messages and channel noise."""
    rng = _rng_for(seed)
    chain = codebook.chain
    size_k, size_l, size_s, size_a = codebook.sizes
    errors = 0
    for _ in range(samples):
        k = int(rng.integers(size_k))
        l = int(rng.integers(size_l))
        s = int(rng.integers(size_s))
        a = int(rng.integers(size_a))
        x = codebook.x_words[k, l, s, a]
        y = _inverse_cdf_sample(rng.random(codebook.n), _cdf(chain.w_y.matrix)[x])
        decoded = decode_bob(y, codebook, alphas)
        if decoded is None:
            decoded = (0, 0, 0)
        errors += decoded != (k, l, s)
    return errors / samples


def mc_eve_error(codebook: BccCodebook, alpha0: float, samples: int, seed) -> float:
    """Monte Carlo eavesdropper error estimate for the common message."""
    rng = _rng_for(seed)
    chain = codebook.chain
    size_k, size_l, size_s, size_a = codebook.sizes
    errors = 0
    for _ in range(samples):
        k = int(rng.integers(size_k))
        l = int(rng.integers(size_l))
        s = int(rng.integers(size_s))
        a = int(rng.integers(size_a))
        x = codebook.x_words[k, l, s, a]
        z = _inverse_cdf_sample(rng.random(codebook.n), _cdf(chain.w_z.matrix)[x])
        decoded = decode_eve(z, codebook, alpha0)
        if decoded is None:
            decoded = 0
        errors += decoded != k
    return errors / samples


@dataclass(frozen=True)
class SimResult:
    """Per-trial values with summary statistics (mean, std, normal 95% CI)."""

    values: np.ndarray
    exact: np.ndarray
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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("trial,divergence_nats\n")
            for t, v in enumerate(self.values):
                fh.write(f"{t},{float(v)!r}\n")
            fh.write(f"mean,{self.mean!r}\n")
            fh.write(f"sample_std,{self.sample_std!r}\n")
            fh.write(f"ci95,{self.ci95!r}\n")
        with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def trial_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    """Independent, order-free stream for one trial of a batch."""
    return np.random.SeedSequence((master_seed, trial))


def mc_resolvability(p_v: Pmf, p_x_given_v: Dmc, w_z: Dmc, n: int, m1: int, m2: int,
                     trials: int, master_seed: int) -> SimResult:
    """Mean exact divergence over independently drawn codebooks."""
    if trials < 1:
        raise ValueError("need at least one trial")
    values = np.empty(trials)
    for t in range(trials):
        book = generate_super_codebook(p_v, p_x_given_v, n, m1, m2,
                                       seed=trial_seed(master_seed, t))
        values[t] = exact_output_divergence(book, w_z)
    values.setflags(write=False)
    meta = {"n": n, "m1": m1, "m2": m2, "trials": trials, "master_seed": master_seed,
            "method": "exact_enumeration_per_trial"}
    return SimResult(values=values, exact=np.ones(trials, dtype=bool), metadata=meta)


@dataclass(frozen=True)
class BccCodebook:
    """Three-layer codebook indexed by (common k, private l, confidential s, dummy a)."""

    u_words: np.ndarray  # (K, n)
    v_words: np.ndarray  # (K, L, S, n)
    x_words: np.ndarray  # (K, L, S, A, n)
    chain: BccChain
    seed: object = None

    def __post_init__(self) -> None:
        ku, n = self.u_words.shape
        if self.v_words.shape[0] != ku or self.v_words.shape[3] != n:
            raise ValueError("v_words shape inconsistent with u_words")
        if self.x_words.shape[:3] != self.v_words.shape[:3] or self.x_words.shape[4] != n:
            raise ValueError("x_words shape inconsistent with v_words")

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
    rng = _rng_for(seed)
    mu = chain.p_u.size
    u_words = rng.choice(mu, size=(size_k, n), p=chain.p_u.probs)
    uniforms_v = rng.random((size_k, size_l, size_s, n))
    v_words = _inverse_cdf_sample(
        uniforms_v, _cdf(chain.p_v_given_u.matrix)[u_words][:, None, None, :, :])
    uniforms_x = rng.random((size_k, size_l, size_s, size_a, n))
    x_words = _inverse_cdf_sample(
        uniforms_x, _cdf(chain.p_x_given_v.matrix)[v_words][:, :, :, None, :, :])
    for arr in (u_words, v_words, x_words):
        arr.setflags(write=False)
    return BccCodebook(u_words=u_words, v_words=v_words, x_words=x_words,
                       chain=chain, seed=seed)


def _log(probs: np.ndarray) -> np.ndarray:
    """Elementwise log, -inf where a probability is 0."""
    with np.errstate(divide="ignore"):
        return np.log(probs)


def _sequence_log_likelihoods(seq: np.ndarray, matrix: np.ndarray,
                              words: np.ndarray) -> np.ndarray:
    """sum_t log matrix[word_t, seq_t] for each word; shape = words.shape[:-1]."""
    flat = words.reshape(-1, words.shape[-1])
    return _log(matrix)[flat, seq[None, :]].sum(axis=1).reshape(words.shape[:-1])


def decode_bob(y_seq, codebook: BccCodebook, alphas: tuple[float, float, float]):
    """Threshold decoder for (common, private, confidential); None on erasure.

    A candidate passes when its cloud word beats the common-layer law by
    e^{alpha1} and the prior law by e^{alpha2} at the observed sequence; the
    decoder outputs the unique passing triple, erasing on none or several.
    The tests compare log-likelihood sums, so long blocks cannot underflow.
    """
    y = np.asarray(y_seq, dtype=np.int64)
    chain = codebook.chain
    _, alpha1, alpha2 = alphas
    log_pv = _sequence_log_likelihoods(y, chain.p_y_given_v.matrix, codebook.v_words)
    log_pu = _sequence_log_likelihoods(y, chain.p_y_given_u.matrix, codebook.u_words)
    log_prior = float(_log(chain.p_y.probs)[y].sum())
    with np.errstate(invalid="ignore"):  # alpha = inf against a zero law: no pass
        passing = ((log_pv >= alpha1 + log_pu[:, None, None])
                   & (log_pv >= alpha2 + log_prior))
    hits = np.argwhere(passing)
    if hits.shape[0] != 1:
        return None
    return tuple(int(i) for i in hits[0])


def decode_eve(z_seq, codebook: BccCodebook, alpha0: float):
    """Threshold decoder for the common message only; None on erasure."""
    z = np.asarray(z_seq, dtype=np.int64)
    chain = codebook.chain
    log_pu = _sequence_log_likelihoods(z, chain.p_z_given_u.matrix, codebook.u_words)
    log_prior = float(_log(chain.p_z.probs)[z].sum())
    with np.errstate(invalid="ignore"):
        passing = log_pu >= alpha0 + log_prior
    hits = np.flatnonzero(passing)
    if hits.size != 1:
        return None
    return int(hits[0])


def _bob_decode_table(codebook: BccCodebook, alphas) -> np.ndarray:
    """Decoded flat triple index for every receiver sequence; erasures map to 0."""
    chain = codebook.chain
    n = codebook.n
    my = chain.w_y.output_size
    size_k, size_l, size_s, _ = codebook.sizes
    _, alpha1, alpha2 = alphas
    rows_v = codeword_channel_rows(codebook.v_words.reshape(-1, n),
                                   chain.p_y_given_v.matrix)      # (KLS, my^n)
    rows_u = codeword_channel_rows(codebook.u_words, chain.p_y_given_u.matrix)  # (K, my^n)
    rows_u = np.repeat(rows_u, size_l * size_s, axis=0)
    prior = _product_law(chain.p_y.probs, n)[None, :]
    passing = (rows_v >= math.exp(alpha1) * rows_u) & (rows_v >= math.exp(alpha2) * prior)
    counts = passing.sum(axis=0)
    table = np.where(counts == 1, passing.argmax(axis=0), 0)
    return table


def exact_bob_error(codebook: BccCodebook, alphas) -> float:
    """Average decoding error over messages and channel noise, enumerated exactly.

    Erasures decode to the first message triple, so they count as errors
    except when that triple was sent.
    """
    chain = codebook.chain
    n = codebook.n
    my = chain.w_y.output_size
    size_k, size_l, size_s, size_a = codebook.sizes
    if my**n * size_k * size_l * size_s > DECODE_GUARD or my**n > OUTPUT_ENUM_GUARD:
        raise GuardExceeded("receiver error enumeration exceeds guard")
    table = _bob_decode_table(codebook, alphas)
    rows_x = codeword_channel_rows(codebook.x_words.reshape(-1, n), chain.w_y.matrix)
    sent = np.repeat(np.arange(size_k * size_l * size_s), size_a)
    correct = (table[None, :] == sent[:, None])
    return float(1.0 - (rows_x * correct).sum(axis=1).mean())


def exact_eve_error(codebook: BccCodebook, alpha0: float) -> float:
    """Average common-message decoding error at the eavesdropper, exact."""
    chain = codebook.chain
    n = codebook.n
    mz = chain.w_z.output_size
    size_k, size_l, size_s, size_a = codebook.sizes
    if mz**n * size_k > DECODE_GUARD or mz**n > OUTPUT_ENUM_GUARD:
        raise GuardExceeded("eavesdropper error enumeration exceeds guard")
    rows_u = codeword_channel_rows(codebook.u_words, chain.p_z_given_u.matrix)
    prior = _product_law(chain.p_z.probs, n)[None, :]
    passing = rows_u >= math.exp(alpha0) * prior
    counts = passing.sum(axis=0)
    table = np.where(counts == 1, passing.argmax(axis=0), 0)
    rows_x = codeword_channel_rows(codebook.x_words.reshape(-1, n), chain.w_z.matrix)
    sent = np.repeat(np.arange(size_k), size_l * size_s * size_a)
    correct = (table[None, :] == sent[:, None])
    return float(1.0 - (rows_x * correct).sum(axis=1).mean())


def conditional_output_distributions(codebook: BccCodebook) -> np.ndarray:
    """Eavesdropper block law given each confidential message, shape (S, mz^n)."""
    chain = codebook.chain
    n = codebook.n
    mz = chain.w_z.output_size
    size_k, size_l, size_s, size_a = codebook.sizes
    if mz**n * size_s > LEAKAGE_GUARD:
        raise GuardExceeded("leakage enumeration exceeds guard")
    # reorder so the confidential index is leading, then average the rest out
    words = np.moveaxis(codebook.x_words, 2, 0).reshape(size_s, -1, n)
    out = np.empty((size_s, mz**n))
    for s in range(size_s):
        out[s] = codeword_channel_rows(words[s], chain.w_z.matrix).mean(axis=0)
    return out


def exact_leakage(codebook: BccCodebook) -> float:
    """Mutual information between the confidential message and the block output."""
    cond = conditional_output_distributions(codebook)
    mix = cond.mean(axis=0)
    total = 0.0
    for row in cond:
        support = row > 0.0
        total += float(np.sum(row[support] * (np.log(row[support]) - np.log(mix[support]))))
    return total / cond.shape[0]


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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("trial,bob_error,eve_error,leakage_nats\n")
            for t in range(self.trials):
                fh.write(f"{t},{float(self.bob_errors[t])!r},"
                         f"{float(self.eve_errors[t])!r},{float(self.leakages[t])!r}\n")
            fh.write(f"mean,{self.mean_bob_error!r},{self.mean_eve_error!r},"
                     f"{self.mean_leakage!r}\n")
        with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def simulate_bcc(chain: BccChain, sizes: tuple[int, int, int, int], n: int, *,
                 alphas: tuple[float, float, float] | None = None, delta: float = 0.05,
                 trials: int, master_seed: int, allow_mc: bool = False,
                 mc_samples: int = 2000) -> BccSimReport:
    """Generate ``trials`` codebooks and evaluate error rates and exact leakage.

    Thresholds default to the blockwise assignments n*(I - delta) for the
    three decoder tests.  Error rates are enumerated exactly when the guards
    permit and estimated by Monte Carlo over messages and noise otherwise
    (``allow_mc``); leakage is always exact, under its own guard.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if alphas is None:
        alphas = decoding_thresholds(chain, n, delta)
    size_k, size_l, size_s, size_a = sizes
    my, mz = chain.w_y.output_size, chain.w_z.output_size
    exact_bob = (my**n * size_k * size_l * size_s <= DECODE_GUARD
                 and my**n <= OUTPUT_ENUM_GUARD)
    exact_eve = mz**n * size_k <= DECODE_GUARD and mz**n <= OUTPUT_ENUM_GUARD
    if not (exact_bob and exact_eve) and not allow_mc:
        raise GuardExceeded(
            "error-rate enumeration exceeds guards; enable the Monte Carlo fallback")
    bob = np.empty(trials)
    eve = np.empty(trials)
    leak = np.empty(trials)
    for t in range(trials):
        book = generate_bcc_codebook(chain, sizes, n, seed=trial_seed(master_seed, t))
        if exact_bob:
            bob[t] = exact_bob_error(book, alphas)
        else:
            bob[t] = mc_bob_error(book, alphas, mc_samples,
                                  np.random.SeedSequence((master_seed, t, 1)))
        if exact_eve:
            eve[t] = exact_eve_error(book, alphas[0])
        else:
            eve[t] = mc_eve_error(book, alphas[0], mc_samples,
                                  np.random.SeedSequence((master_seed, t, 2)))
        leak[t] = exact_leakage(book)
    for arr in (bob, eve, leak):
        arr.setflags(write=False)
    meta = {"n": n, "sizes": list(sizes), "trials": trials, "master_seed": master_seed,
            "alphas": [float(a) for a in alphas], "delta": delta,
            "bob_method": "exact" if exact_bob else "monte_carlo",
            "eve_method": "exact" if exact_eve else "monte_carlo",
            "leakage_method": "exact"}
    return BccSimReport(bob_errors=bob, eve_errors=eve, leakages=leak,
                        alphas=tuple(float(a) for a in alphas), metadata=meta)
