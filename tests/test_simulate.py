import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from helpers import random_chain, random_dmc, random_pmf

from bccrates import (
    BccChain,
    BccCodebook,
    Dmc,
    GuardExceeded,
    Pmf,
    SuperCodebook,
    decode_bob,
    decode_eve,
    decoding_thresholds,
    exact_bob_error,
    exact_eve_error,
    exact_leakage,
    exact_output_divergence,
    generate_bcc_codebook,
    generate_super_codebook,
    kl_divergence,
    mc_resolvability,
    minimize_superposition_bound,
    output_distribution,
    simulate_bcc,
    trial_seed,
)
from bccrates.channels import bec, bsc
from bccrates import simulate
from bccrates.simulate import (
    codeword_channel_rows,
    conditional_output_distributions,
    mc_bob_error,
    mc_eve_error,
    mc_output_divergence,
)


def h(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p) if 0 < p < 1 else 0.0


def fixture_chain():
    return BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2))


class TestSuperCodebookGeneration:
    def test_seed_determinism(self):
        a = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 4, 4, 4, seed=7)
        b = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 4, 4, 4, seed=7)
        np.testing.assert_array_equal(a.v_words, b.v_words)
        np.testing.assert_array_equal(a.x_words, b.x_words)
        c = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 4, 4, 4, seed=8)
        assert not np.array_equal(a.x_words, c.x_words)

    def test_deterministic_laws_force_codewords(self):
        book = generate_super_codebook(Pmf.point_mass(2, 1), Dmc.identity(2),
                                       3, 2, 2, seed=0)
        assert np.all(book.v_words == 1)
        assert np.all(book.x_words == 1)

    def test_shapes_and_validation(self):
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 5, 3, 2, seed=1)
        assert book.v_words.shape == (2, 5)
        assert book.x_words.shape == (2, 3, 5)
        assert book.n == 5 and book.m1 == 3 and book.m2 == 2
        with pytest.raises(ValueError):
            SuperCodebook(v_words=book.v_words, x_words=book.x_words[:, :, :3],
                          p_v=book.p_v, p_x_given_v=book.p_x_given_v)

    def test_size_guard(self):
        with pytest.raises(GuardExceeded):
            generate_super_codebook(Pmf.uniform(2), bsc(0.1), 2**12, 2**11, 2, seed=0)

    def test_aggregate_symbol_statistics(self):
        # 4-sigma binomial check on the satellite symbol frequencies
        p_v = Pmf([0.25, 0.75])
        layer = bsc(0.1)
        ones = 0
        total = 0
        expected_one = 0.25 * 0.1 + 0.75 * 0.9
        for t in range(1000):
            book = generate_super_codebook(p_v, layer, 4, 4, 4, seed=trial_seed(99, t))
            ones += int(book.x_words.sum())
            total += book.x_words.size
        std = math.sqrt(total * expected_one * (1 - expected_one))
        assert abs(ones - total * expected_one) < 4 * std


class TestExactDivergence:
    def test_single_codeword_uniform_design(self):
        n = 3
        book = SuperCodebook(
            v_words=np.zeros((1, n), dtype=np.int64),
            x_words=np.zeros((1, 1, n), dtype=np.int64),
            p_v=Pmf.uniform(2), p_x_given_v=Dmc.identity(2))
        value = exact_output_divergence(book, bsc(0.2))
        assert value == pytest.approx(n * (math.log(2) - h(0.2)), abs=1e-12)

    def test_full_coverage_codebook_has_zero_divergence(self):
        n = 3
        words = np.stack(np.unravel_index(np.arange(8), (2,) * n), axis=1)
        book = SuperCodebook(
            v_words=np.zeros((1, n), dtype=np.int64),
            x_words=words[None, :, :],
            p_v=Pmf.uniform(2), p_x_given_v=Dmc.identity(2))
        assert exact_output_divergence(book, bsc(0.2)) == pytest.approx(0.0, abs=1e-12)

    def test_input_independent_channel(self):
        w = Dmc([[0.3, 0.7], [0.3, 0.7]])
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 4, 2, 2, seed=3)
        assert exact_output_divergence(book, w) == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_guard(self):
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 21, 1, 1, seed=0)
        with pytest.raises(GuardExceeded):
            exact_output_divergence(book, bsc(0.2))

    def test_mixture_matches_brute_force(self):
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 2, 2, 2, seed=5)
        mix = output_distribution(book, bsc(0.2))
        w = bsc(0.2).matrix
        brute = np.zeros(4)
        for word in book.x_words.reshape(-1, 2):
            for z0 in range(2):
                for z1 in range(2):
                    brute[2 * z0 + z1] += 0.25 * w[word[0], z0] * w[word[1], z1]
        np.testing.assert_allclose(mix, brute, atol=1e-15)


class TestMcResolvability:
    def test_single_trial_reproduces_exact_divergence(self):
        res = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 4, 2, 2,
                               trials=1, master_seed=13)
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 4, 2, 2,
                                       seed=trial_seed(13, 0))
        assert res.values[0] == exact_output_divergence(book, bsc(0.2))
        assert res.trials == 1

    def test_mean_below_optimized_bound(self):
        res = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 4, 4, 4,
                               trials=100, master_seed=2)
        bound = minimize_superposition_bound(4, 4, 4, bsc(0.2), bsc(0.1),
                                             Pmf.uniform(2))
        assert res.mean <= bound.total

    def test_larger_codebooks_do_not_hurt(self):
        small = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 4, 2, 2,
                                 trials=150, master_seed=4)
        large = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 4, 4, 4,
                                 trials=150, master_seed=4)
        assert large.mean <= small.mean + small.ci95

    def test_standard_errors_per_trial(self):
        exact = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 4, 2, 2,
                                 trials=3, master_seed=4)
        assert np.array_equal(exact.stderr, np.zeros(3))
        assert "mc_stderr" not in exact.metadata
        mc = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 24, 2, 2, trials=3,
                              master_seed=4, allow_mc=True, mc_samples=60)
        for t in range(3):
            book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 24, 2, 2,
                                           seed=trial_seed(4, t))
            want = mc_output_divergence(book, bsc(0.2), 60, np.random.SeedSequence((4, t, 1)))
            assert (mc.values[t], mc.stderr[t]) == want
        assert mc.metadata["mc_stderr"] == [float(se) for se in mc.stderr]

    def test_csv_round_trip(self, tmp_path):
        res = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 2, 2, 2,
                               trials=3, master_seed=1)
        out = tmp_path / "res.csv"
        res.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,divergence_nats"
        assert lines[-3].startswith("mean,")
        assert (tmp_path / "res.csv.meta.json").exists()


class TestBccCodebook:
    def test_shapes_and_determinism(self):
        chain = fixture_chain()
        a = generate_bcc_codebook(chain, (2, 4, 2, 4), 6, seed=11)
        b = generate_bcc_codebook(chain, (2, 4, 2, 4), 6, seed=11)
        assert a.u_words.shape == (2, 6)
        assert a.v_words.shape == (2, 4, 2, 6)
        assert a.x_words.shape == (2, 4, 2, 4, 6)
        np.testing.assert_array_equal(a.x_words, b.x_words)
        np.testing.assert_array_equal(a.encode(1, 2, 0, 3), a.x_words[1, 2, 0, 3])

    def test_layer_statistics(self):
        chain = fixture_chain()
        flips = 0
        total = 0
        for t in range(400):
            book = generate_bcc_codebook(chain, (2, 2, 2, 2), 4, seed=trial_seed(7, t))
            # satellite symbols flip their cloud symbol w.p. 0.1
            flips += int(np.count_nonzero(book.x_words != book.v_words[:, :, :, None, :]))
            total += book.x_words.size
        std = math.sqrt(total * 0.1 * 0.9)
        assert abs(flips - total * 0.1) < 4 * std

    @pytest.mark.parametrize("layer", ["u_words", "v_words", "x_words"])
    @pytest.mark.parametrize("letter", [-1, 2, 5])
    def test_letters_outside_the_alphabet_are_rejected(self, layer, letter):
        # every alphabet is binary: a letter -1 would be read as the last
        # letter, and 2 or 5 would fail deep in a fold
        book = generate_bcc_codebook(fixture_chain(), (2, 2, 2, 2), 4, seed=3)
        words = {name: getattr(book, name).copy() for name in ("u_words", "v_words", "x_words")}
        words[layer].flat[-1] = letter
        with pytest.raises(ValueError, match="outside its alphabet"):
            BccCodebook(**words, chain=book.chain)

    def test_layer_ranks_are_checked(self):
        book = generate_bcc_codebook(fixture_chain(), (2, 2, 2, 2), 4, seed=3)
        layers = {"u_words": book.u_words, "v_words": book.v_words, "x_words": book.x_words}
        for name, bad in (("u_words", book.u_words[None]),
                          ("v_words", book.v_words.reshape(2, 4, 4)),
                          ("x_words", book.x_words[..., 0, :])):
            with pytest.raises(ValueError):
                BccCodebook(**{**layers, name: bad}, chain=book.chain)


class TestDecoders:
    @staticmethod
    def noiseless_codebook():
        # V = X, noiseless receiver channel, distinct cloud words per triple
        chain = BccChain(Pmf.uniform(2), bsc(0.3), Dmc.identity(2),
                         Dmc.identity(2), bsc(0.2))
        n = 3
        v_words = np.stack(np.unravel_index(np.arange(8), (2,) * n),
                           axis=1).reshape(2, 2, 2, n)
        u_words = np.array([[0, 0, 0], [1, 1, 1]])
        return BccCodebook(u_words=u_words, v_words=v_words,
                           x_words=v_words[:, :, :, None, :], chain=chain, seed=None)

    def test_noiseless_decoding(self):
        book = self.noiseless_codebook()
        for k in range(2):
            for l in range(2):
                for s in range(2):
                    y = book.x_words[k, l, s, 0]
                    assert decode_bob(y, book, (0.0, 0.0, 0.0)) == (k, l, s)

    def test_infinite_threshold_erases(self):
        book = self.noiseless_codebook()
        y = book.x_words[0, 0, 0, 0]
        assert decode_bob(y, book, (math.inf, math.inf, math.inf)) is None
        assert decode_eve(np.array([0, 0, 0]), book, math.inf) is None

    @pytest.mark.parametrize("n", [1000, 1500, 6000])
    def test_long_block_decoding(self, n):
        # likelihood products underflow from n = 1500 and e^{alpha} overflows
        # by n = 6000; log-likelihood sums do neither
        chain = BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2))
        book = generate_bcc_codebook(chain, (2, 2, 2, 2), n, seed=3)
        alphas = decoding_thresholds(chain, n, delta=0.05)
        y = book.x_words[1, 0, 1, 0]
        assert decode_bob(y, book, alphas) == (1, 0, 1)
        assert decode_eve(y, book, alphas[0]) == 1

    def test_zero_probability_ties(self):
        # output letter 2 has probability 0 under every input, so at y = (2, 2)
        # the word, common-layer and prior likelihoods are all 0:
        # 0 >= e^{alpha} * 0 passes for finite alpha and fails for alpha = inf
        w = Dmc(np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]]))
        chain = BccChain(Pmf.uniform(2), Dmc.identity(2), Dmc.identity(2), w, w)
        words = np.array([[0, 1]])
        book = BccCodebook(u_words=words, v_words=words[:, None, None, :],
                           x_words=words[:, None, None, None, :], chain=chain, seed=None)
        y = np.array([2, 2])
        assert decode_bob(y, book, (0.0, 0.0, 0.0)) == (0, 0, 0)
        assert decode_bob(y, book, (0.0, math.inf, 0.0)) is None
        assert decode_eve(y, book, 0.0) == 0
        assert decode_eve(y, book, math.inf) is None

    @pytest.mark.parametrize("alpha", [800.0, math.inf])
    def test_exact_errors_under_unpassable_threshold(self, alpha):
        # e^{800} overflows a float, so the exact paths must compare logs as
        # decode_bob/decode_eve do; no candidate passes, every sequence is
        # erased and decodes to the first message, so the error is exactly
        # the share of the other messages
        book = generate_bcc_codebook(fixture_chain(), (2, 2, 2, 2), 4, seed=7)
        assert exact_bob_error(book, (0.0, alpha, 0.0)) == pytest.approx(7 / 8, abs=1e-12)
        assert exact_bob_error(book, (0.0, 0.0, alpha)) == pytest.approx(7 / 8, abs=1e-12)
        assert exact_eve_error(book, alpha) == pytest.approx(1 / 2, abs=1e-12)

    def test_bob_error_matches_brute_force(self):
        chain = fixture_chain()
        n = 4
        book = generate_bcc_codebook(chain, (2, 2, 1, 2), n, seed=21)
        alphas = decoding_thresholds(chain, n, delta=0.05)
        fast = exact_bob_error(book, alphas)
        # independent re-derivation: loop every output sequence and message
        w = chain.w_y.matrix
        total_err = 0.0
        count = 0
        for k in range(2):
            for l in range(2):
                for s in range(1):
                    for a in range(2):
                        word = book.x_words[k, l, s, a]
                        count += 1
                        for y_flat in range(2**n):
                            y = np.array([(y_flat >> (n - 1 - t)) & 1 for t in range(n)])
                            prob = float(np.prod(w[word, y]))
                            decoded = decode_bob(y, book, alphas)
                            if decoded is None:
                                decoded = (0, 0, 0)
                            if decoded != (k, l, s):
                                total_err += prob
        assert fast == pytest.approx(total_err / count, abs=1e-12)

    def test_eve_error_matches_brute_force(self):
        chain = fixture_chain()
        n = 4
        book = generate_bcc_codebook(chain, (2, 2, 1, 1), n, seed=22)
        alpha0 = decoding_thresholds(chain, n, delta=0.05)[0]
        fast = exact_eve_error(book, alpha0)
        w = chain.w_z.matrix
        total_err = 0.0
        count = 0
        for k in range(2):
            for l in range(2):
                for a in range(1):
                    word = book.x_words[k, l, 0, a]
                    count += 1
                    for z_flat in range(2**n):
                        z = np.array([(z_flat >> (n - 1 - t)) & 1 for t in range(n)])
                        prob = float(np.prod(w[word, z]))
                        decoded = decode_eve(z, book, alpha0)
                        if decoded is None:
                            decoded = 0
                        if decoded != k:
                            total_err += prob
        assert fast == pytest.approx(total_err / count, abs=1e-12)


def _brute_force_error(book, w, decode, width):
    """Error of ``decode`` summed over every message and output sequence, with
    erasures decoded to the first message, as the exact paths define it."""
    total = 0.0
    for msg in itertools.product(*map(range, book.sizes)):
        word = book.x_words[msg]
        for seq in itertools.product(range(w.shape[1]), repeat=book.n):
            decoded = decode(np.array(seq))
            if decoded is None:
                decoded = (0,) * width
            if decoded != msg[:width]:
                total += float(np.prod(w[word, np.array(seq)]))
    return total / int(np.prod(book.sizes))


def _tied_alpha(log_p, log_q, rng):
    """A threshold at one of a table's own log-ratios, so some test is a near tie."""
    i, j = int(rng.integers(log_p.shape[0])), int(rng.integers(log_p.shape[1]))
    with np.errstate(invalid="ignore"):
        alpha = float(log_p[i, j] - log_q[i % log_q.shape[0], j])
    return alpha if math.isfinite(alpha) else 0.0


class TestOneDecisionRule:
    """The exact error tables and the sequence decoders add the same log
    letter probabilities in the same order, so they decide alike even at a
    threshold tie."""

    def test_exact_bob_error_scores_decode_bob_at_a_tie(self):
        # alpha1 is a near tie for some sequences, so the last bit of each
        # log-likelihood sum decides them: taking the log of a likelihood
        # product instead gives 0.9041905 here, not the decoder's 0.7464313605
        chain = BccChain(Pmf.uniform(2), bsc(0.207), bsc(0.406), bsc(0.141), bsc(0.299))
        book = generate_bcc_codebook(chain, (2, 2, 1, 1), 3, seed=8)
        alphas = (0.0, float.fromhex("0x1.3a65766fb46c0p-5"), -1e300)
        brute = _brute_force_error(book, chain.w_y.matrix,
                                   lambda y: decode_bob(y, book, alphas), 3)
        assert exact_bob_error(book, alphas) == pytest.approx(brute, abs=1e-12)

    def test_exact_eve_error_scores_decode_eve_at_a_tie(self):
        chain = BccChain(Pmf.uniform(2), bsc(0.075), bsc(0.307), bsc(0.391), bsc(0.287))
        book = generate_bcc_codebook(chain, (2, 1, 1, 1), 5, seed=7)
        alpha0 = float.fromhex("0x1.763f014958900p-4")

        def decode(z):
            k = decode_eve(z, book, alpha0)
            return None if k is None else (k,)
        brute = _brute_force_error(book, chain.w_z.matrix, decode, 1)
        assert exact_eve_error(book, alpha0) == pytest.approx(brute, abs=1e-12)

    def test_underflowing_product_decides_as_the_sequence(self):
        # at y = (1, 1) the word (0, 0) has likelihood 1e-400, which a product
        # flushes to 0 (log -inf, failing every test) while the log sum keeps
        # -921; both words then pass, every sequence is erased, and the error
        # is the share of the second message
        w = Dmc([[1.0, 1e-200], [1e-200, 1.0]])
        words = np.array([[0, 0], [1, 1]])
        alphas = (0.0, -2000.0, -2000.0)
        bob_chain = BccChain(Pmf.uniform(1), Dmc([[0.5, 0.5]]), Dmc.identity(2), w, w)
        book = BccCodebook(u_words=np.zeros((1, 2), dtype=np.int64),
                           v_words=words[None, None], x_words=words[None, None, :, None],
                           chain=bob_chain)
        eve_chain = BccChain(Pmf.uniform(2), Dmc.identity(2), Dmc.identity(2), w, w)
        eve_book = BccCodebook(u_words=words, v_words=words[:, None, None],
                               x_words=words[:, None, None, None], chain=eve_chain)
        for seq in itertools.product(range(2), repeat=2):
            assert decode_bob(np.array(seq), book, alphas) is None
            assert decode_eve(np.array(seq), eve_book, -2000.0) is None
        assert exact_bob_error(book, alphas) == 0.5
        assert exact_eve_error(eve_book, -2000.0) == 0.5

    def test_tables_match_sequence_decoders(self):
        # every table entry, at thresholds set to the tables' own log-ratios,
        # over BSC/BEC and random chains
        rng = np.random.default_rng(2026)
        for c in range(400):
            if c % 3 == 2:
                chain = random_chain(rng, 3)
            else:
                def pick():
                    if rng.random() < 0.5:
                        return bsc(float(rng.uniform(0.01, 0.49)))
                    return bec(float(rng.uniform(0.05, 0.6)))
                chain = BccChain(Pmf.uniform(2), bsc(float(rng.uniform(0.01, 0.49))),
                                 bsc(float(rng.uniform(0.01, 0.49))), pick(), pick())
            sizes = tuple(int(v) for v in rng.integers(1, 4, size=4))
            n = int(rng.integers(1, 5))
            book = generate_bcc_codebook(chain, sizes, n, seed=c)
            log_v = simulate._log_likelihoods(book.v_words.reshape(-1, n),
                                              chain.p_y_given_v.matrix)
            log_u = np.repeat(
                simulate._log_likelihoods(book.u_words, chain.p_y_given_u.matrix),
                sizes[1] * sizes[2], axis=0)
            log_pu = simulate._log_likelihoods(book.u_words, chain.p_z_given_u.matrix)
            alphas = (0.0, _tied_alpha(log_v, log_u, rng),
                      _tied_alpha(log_v, simulate._prior_log_likelihoods(chain.p_y, n), rng))
            alpha0 = _tied_alpha(log_pu, simulate._prior_log_likelihoods(chain.p_z, n), rng)
            bob = simulate._decode_table(
                simulate._Block([book]).bob_passing(alphas)[0])
            for j, y in enumerate(itertools.product(range(chain.w_y.output_size), repeat=n)):
                decoded = decode_bob(np.array(y), book, alphas)
                flat = 0 if decoded is None else np.ravel_multi_index(decoded, sizes[:3])
                assert bob[j] == flat, (c, y)
            eve = simulate._decode_table(
                simulate._Block([book]).eve_passing(alpha0)[0])
            for j, z in enumerate(itertools.product(range(chain.w_z.output_size), repeat=n)):
                decoded = decode_eve(np.array(z), book, alpha0)
                assert eve[j] == (0 if decoded is None else decoded), (c, z)

    def test_mc_estimates_keep_their_draw_order(self):
        # golden values pin the order in which the estimates draw messages
        # and noise
        chain = BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bec(0.2))
        book = generate_bcc_codebook(chain, (2, 2, 2, 2), 6, seed=14)
        alphas = decoding_thresholds(chain, 6, delta=0.05)
        assert mc_bob_error(book, alphas, samples=500, seed=1) \
            == float.fromhex("0x1.2c083126e978dp-1")
        assert mc_eve_error(book, alphas[0], samples=500, seed=2) \
            == float.fromhex("0x1.c49ba5e353f7dp-2")


class TestLeakage:
    def test_single_confidential_message_leaks_nothing(self):
        book = generate_bcc_codebook(fixture_chain(), (2, 4, 1, 4), 6, seed=9)
        assert exact_leakage(book) == 0.0

    def test_input_independent_eavesdropper(self):
        chain = BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1),
                         Dmc([[0.5, 0.5], [0.5, 0.5]]))
        book = generate_bcc_codebook(chain, (2, 2, 2, 2), 4, seed=10)
        assert exact_leakage(book) == pytest.approx(0.0, abs=1e-14)

    def test_confidential_relabeling_invariance(self):
        book = generate_bcc_codebook(fixture_chain(), (2, 4, 2, 4), 6, seed=42)
        swapped = BccCodebook(u_words=book.u_words, v_words=book.v_words[:, :, ::-1],
                              x_words=book.x_words[:, :, ::-1], chain=book.chain)
        assert exact_leakage(book) == pytest.approx(exact_leakage(swapped), abs=1e-14)

    def test_mixture_agrees_with_conditional_average(self):
        book = generate_bcc_codebook(fixture_chain(), (2, 4, 2, 4), 6, seed=42)
        cond = conditional_output_distributions(book)
        direct = codeword_channel_rows(book.x_words.reshape(-1, 6),
                                       book.chain.w_z.matrix).mean(axis=0)
        np.testing.assert_allclose(cond.mean(axis=0), direct, atol=1e-10)

    def test_leakage_guard(self):
        chain = fixture_chain()
        book = generate_bcc_codebook(chain, (1, 1, 2, 1), 22, seed=0)
        with pytest.raises(GuardExceeded):
            exact_leakage(book)


class TestSimulateBcc:
    def test_report_and_determinism(self, tmp_path):
        chain = fixture_chain()
        rep1 = simulate_bcc(chain, (2, 4, 2, 4), 6, trials=10, master_seed=3)
        rep2 = simulate_bcc(chain, (2, 4, 2, 4), 6, trials=10, master_seed=3)
        np.testing.assert_array_equal(rep1.leakages, rep2.leakages)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rep1.write_csv(out1)
        rep2.write_csv(out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert 0.0 <= rep1.mean_bob_error <= 1.0
        assert 0.0 <= rep1.mean_eve_error <= 1.0
        assert rep1.mean_leakage >= 0.0
        assert rep1.metadata["bob_method"] == "exact"

    def test_one_candidate_error_rates_are_not_negative(self):
        # every sequence decodes to the one candidate; the correct mass sums to
        # 1 up to rounding, which once read as an error rate of -2.2e-16
        rep = simulate_bcc(fixture_chain(), (1, 1, 1, 1), 4, trials=4, master_seed=0)
        assert np.array_equal(rep.bob_errors, np.zeros(4))
        assert np.array_equal(rep.eve_errors, np.zeros(4))
        rng = np.random.default_rng(5)
        for seed in range(20):
            book = generate_bcc_codebook(random_chain(rng, 3), (1, 1, 1, 2), 3, seed=seed)
            assert exact_bob_error(book, (0.0, -math.inf, -math.inf)) >= 0.0
            assert exact_eve_error(book, -math.inf) >= 0.0

    def test_trials_are_order_free(self):
        chain = fixture_chain()
        rep = simulate_bcc(chain, (2, 2, 2, 2), 4, trials=3, master_seed=8)
        # trial 2 recomputed in isolation matches the batch entry
        book = generate_bcc_codebook(chain, (2, 2, 2, 2), 4, seed=trial_seed(8, 2))
        assert exact_leakage(book) == rep.leakages[2]
        assert exact_bob_error(book, rep.alphas) == rep.bob_errors[2]
        assert exact_eve_error(book, rep.alphas[0]) == rep.eve_errors[2]

    def test_error_rate_decreases_with_blocklength(self):
        chain = fixture_chain()
        means = []
        for n in (2, 4, 6, 8):
            rep = simulate_bcc(chain, (2, 2, 2, 2), n, trials=40, master_seed=5)
            means.append(rep.mean_bob_error)
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_guard_without_mc_flag(self):
        chain = fixture_chain()
        with pytest.raises(GuardExceeded):
            simulate_bcc(chain, (8, 8, 2, 2), 16, trials=1, master_seed=0)

    def test_mc_fallback_for_error_rates(self):
        chain = fixture_chain()
        rep = simulate_bcc(chain, (8, 8, 2, 2), 16, trials=2, master_seed=0,
                           allow_mc=True, mc_samples=50)
        assert rep.metadata["bob_method"] == "monte_carlo"
        assert rep.metadata["leakage_method"] == "exact"
        assert 0.0 <= rep.mean_bob_error <= 1.0

    def test_mc_estimators_match_exact_on_small_config(self):
        chain = fixture_chain()
        book = generate_bcc_codebook(chain, (2, 2, 2, 2), 4, seed=14)
        alphas = decoding_thresholds(chain, 4, delta=0.05)
        exact = exact_bob_error(book, alphas)
        est = mc_bob_error(book, alphas, samples=4000, seed=1)
        assert est == pytest.approx(exact, abs=5 * math.sqrt(0.25 / 4000))

    def test_mc_error_needs_a_sample(self):
        # an estimate over zero samples would divide by zero
        book = generate_bcc_codebook(fixture_chain(), (2, 2, 2, 2), 4, seed=14)
        with pytest.raises(ValueError):
            mc_bob_error(book, (0.0, 0.0, 0.0), samples=0, seed=1)
        with pytest.raises(ValueError):
            mc_eve_error(book, 0.0, samples=0, seed=1)
        with pytest.raises(ValueError):
            simulate_bcc(fixture_chain(), (8, 8, 2, 2), 16, trials=1, master_seed=0,
                         allow_mc=True, mc_samples=0)

    def test_mc_divergence_tracks_exact(self):
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 6, 4, 4, seed=6)
        exact = exact_output_divergence(book, bsc(0.2))
        est, stderr = mc_output_divergence(book, bsc(0.2), samples=4000, seed=2)
        assert est == pytest.approx(exact, abs=5 * stderr)

    @pytest.mark.parametrize("w_z", [bsc(0.2), bec(0.3)], ids=["bsc", "bec"])
    def test_mc_divergence_long_block_in_bracket(self, w_z):
        # 1200 letter probabilities multiply to far below the smallest double.
        # The divergence lies between the mean per-codeword divergence minus
        # ln M and that mean, each a sum of letter divergences.
        n, m1, m2 = 1200, 4, 4
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), n, m1, m2, seed=5)
        p_z = book.p_v.probs @ book.p_x_given_v.matrix @ w_z.matrix
        rows = w_z.matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(rows > 0.0, rows * np.log(rows / p_z), 0.0)
        letter = terms.sum(axis=1)
        hi = float(letter[book.x_words.reshape(-1, n)].sum(axis=1).mean())
        lo = hi - math.log(m1 * m2)
        est, stderr = mc_output_divergence(book, w_z, samples=400, seed=3)
        assert math.isfinite(est) and math.isfinite(stderr)
        assert lo - 5 * stderr <= est <= hi + 5 * stderr


def _oracle_inverse_cdf_sample(uniforms, cdf_rows):
    """The gathered form: every column of each drawn CDF row compared at once."""
    return (cdf_rows <= uniforms[..., None]).sum(axis=-1)


def _oracle_mc_output_divergence(codebook, w_z, samples, seed):
    """The per-sample loop: one (samples, n) noise draw, then for each sample a
    gather-and-sum of log W over every word and a log-sum-exp."""
    rng = np.random.default_rng(seed)
    n = codebook.n
    words = codebook.x_words.reshape(-1, n)
    p_x = Pmf(codebook.p_v.probs @ codebook.p_x_given_v.matrix)
    p_z = w_z.output(p_x).probs
    picks = rng.integers(0, words.shape[0], size=samples)
    noise = rng.random((samples, n))
    z = _oracle_inverse_cdf_sample(noise, simulate._cdf(w_z.matrix)[words[picks]])
    log_w, log_p_z = simulate._log(w_z.matrix), simulate._log(p_z)
    log_m = math.log(words.shape[0])
    log_ratios = np.empty(samples)
    for i in range(samples):
        per_word = log_w[words, z[i][None, :]].sum(axis=1)
        top = per_word.max()
        log_mix = top + math.log(np.exp(per_word - top).sum()) - log_m
        log_ratios[i] = log_mix - log_p_z[z[i]].sum()
    return float(log_ratios.mean()), float(log_ratios.std(ddof=1) / math.sqrt(samples))


def _mc_layers(kind):
    """(satellite layer, eavesdropper channel) for one kind of eavesdropper."""
    rng = np.random.default_rng([len(kind), ord(kind[0])])
    if kind == "bsc":
        return bsc(0.1), bsc(0.2)
    if kind == "bec":
        return bsc(0.1), bec(0.3)
    if kind == "ternary":
        return random_dmc(rng, 2, 3), random_dmc(rng, 3, 3)
    return bsc(0.1), Dmc(np.ones((2, 1)))


class TestMcDivergenceBlocks:
    """The blocked joint-type estimator against the per-sample loop."""

    @pytest.mark.parametrize("kind", ["bsc", "bec", "ternary", "one_output"])
    @pytest.mark.parametrize("n", [1, 8, 400, 1200])
    @pytest.mark.parametrize("size", ["two", "block", "ragged"])
    def test_matches_per_sample_loop(self, kind, n, size):
        layer, w_z = _mc_layers(kind)
        book = generate_super_codebook(Pmf.uniform(2), layer, n, 4, 4, seed=[n, len(kind)])
        rows = simulate._mc_block_rows(16 * w_z.input_size * w_z.output_size)
        samples = {"two": 2, "block": rows, "ragged": 2 * rows + 3}[size]
        est, stderr = mc_output_divergence(book, w_z, samples, seed=n + samples)
        want, want_se = _oracle_mc_output_divergence(book, w_z, samples, seed=n + samples)
        assert abs(est - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(stderr - want_se) <= 1e-12
        if kind == "one_output":
            assert (est, stderr) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", ["bsc", "bec"])
    @pytest.mark.parametrize("n", [8, 400, 1200])
    def test_block_size_does_not_change_the_estimate(self, monkeypatch, kind, n):
        # each sample's log ratio is the same float at every block size, so
        # the estimate and its standard error are too
        layer, w_z = _mc_layers(kind)
        book = generate_super_codebook(Pmf.uniform(2), layer, n, 4, 4, seed=[n, 5])
        results = []
        for block in (1, 401, 15_000, 1 << 15):
            monkeypatch.setattr(simulate, "_MC_BLOCK", block)
            results.append(mc_output_divergence(book, w_z, 437, seed=n))
        assert results[1:] == results[:-1]

    def test_needs_two_samples(self):
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 8, 2, 2, seed=1)
        with pytest.raises(ValueError):
            mc_output_divergence(book, bsc(0.2), samples=1, seed=0)

    def test_memory_is_one_block_not_all_samples(self):
        book = generate_super_codebook(Pmf.uniform(2), bsc(0.1), 400, 4, 4, seed=1)
        peaks = []
        for samples in (2000, 8000):
            tracemalloc.start()
            try:
                mc_output_divergence(book, bsc(0.2), samples, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 6,000 more samples add their picks and log ratios, not 6,000 rows of noise
        assert peaks[1] - peaks[0] < 1 << 20
        assert peaks[1] < 4 << 20

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_sampler_matches_gathered_rows(self, m):
        rng = np.random.default_rng(m)
        matrix = rng.dirichlet(np.ones(m), size=3)
        if m > 1:
            matrix[0, rng.integers(m)] = 0.0        # a letter that is never drawn
            matrix /= matrix.sum(axis=1, keepdims=True)
        cdf = simulate._cdf(matrix)
        symbols = rng.integers(0, 3, size=(5, 1, 40))
        uniforms = rng.random((5, 7, 40))
        # some uniforms exactly on a CDF step: a tie counts the step as passed
        ties = rng.random(uniforms.shape) < 0.3
        steps = np.take_along_axis(cdf[symbols], rng.integers(0, m, uniforms.shape + (1,)),
                                   axis=-1)[..., 0]
        uniforms = np.where(ties & (steps < 1.0), steps, uniforms)
        got = simulate._inverse_cdf_sample(uniforms, cdf, symbols)
        want = _oracle_inverse_cdf_sample(uniforms, cdf[symbols])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


# The per-trial evaluation that blocks of trials replaced: each codebook's
# rows folded word by word, one confidential index at a time for the leakage.

def _oracle_log_rows(words, matrix):
    return simulate._letter_fold(words, simulate._log(matrix), np.add, 0.0)


def _oracle_exact_error(book, matrix, passing):
    rows_x = simulate._letter_fold(book.x_words.reshape(-1, book.n), matrix, np.multiply, 1.0)
    sent = np.repeat(np.arange(passing.shape[0]), rows_x.shape[0] // passing.shape[0])
    decoded = np.where(passing.sum(axis=0) == 1, passing.argmax(axis=0), 0)
    rows_x *= decoded[None, :] == sent[:, None]
    return float(1.0 - rows_x.sum(axis=1).mean())


def _oracle_bob_error(book, alphas):
    chain, n = book.chain, book.n
    _, size_l, size_s, _ = book.sizes
    log_v = _oracle_log_rows(book.v_words.reshape(-1, n), chain.p_y_given_v.matrix)
    log_u = np.repeat(_oracle_log_rows(book.u_words, chain.p_y_given_u.matrix),
                      size_l * size_s, axis=0)
    log_prior = _oracle_log_rows(np.zeros((1, n), dtype=np.int64), chain.p_y.probs[None, :])
    passing = (simulate._passes(log_v, alphas[1], log_u)
               & simulate._passes(log_v, alphas[2], log_prior))
    return _oracle_exact_error(book, chain.w_y.matrix, passing)


def _oracle_eve_error(book, alpha0):
    chain, n = book.chain, book.n
    log_u = _oracle_log_rows(book.u_words, chain.p_z_given_u.matrix)
    log_prior = _oracle_log_rows(np.zeros((1, n), dtype=np.int64), chain.p_z.probs[None, :])
    return _oracle_exact_error(book, chain.w_z.matrix,
                               simulate._passes(log_u, alpha0, log_prior))


def _oracle_conditional_laws(book):
    size_s = book.sizes[2]
    words = np.moveaxis(book.x_words, 2, 0).reshape(size_s, -1, book.n)
    return np.array([simulate._letter_fold(words[s], book.chain.w_z.matrix, np.multiply,
                                           1.0).mean(axis=0) for s in range(size_s)])


def _oracle_leakage(book):
    cond = _oracle_conditional_laws(book)
    mix = cond.mean(axis=0)
    return sum(kl_divergence(row, mix) for row in cond) / cond.shape[0]


def _oracle_simulate_bcc(chain, sizes, n, trials, master_seed, mc_samples):
    """(bob errors, eve errors, leakages) of ``simulate_bcc``, one trial at a time."""
    alphas = decoding_thresholds(chain, n, 0.05)
    size_k, size_l, size_s, _ = sizes
    exact_bob = simulate._decode_enumerable(chain.w_y.output_size, n, size_k * size_l * size_s)
    exact_eve = simulate._decode_enumerable(chain.w_z.output_size, n, size_k)
    bob, eve, leak = np.empty(trials), np.empty(trials), np.empty(trials)
    for t in range(trials):
        book = generate_bcc_codebook(chain, sizes, n, seed=trial_seed(master_seed, t))
        if exact_bob:
            bob[t] = _oracle_bob_error(book, alphas)
        else:
            bob[t] = mc_bob_error(book, alphas, mc_samples,
                                  np.random.SeedSequence((master_seed, t, 1)))
        if exact_eve:
            eve[t] = _oracle_eve_error(book, alphas[0])
        else:
            eve[t] = mc_eve_error(book, alphas[0], mc_samples,
                                  np.random.SeedSequence((master_seed, t, 2)))
        leak[t] = _oracle_leakage(book)
    return bob, eve, leak


def _oracle_mc_resolvability(p_v, layer, w_z, n, m, trials, master_seed):
    """Exact divergences of ``mc_resolvability``, one trial at a time."""
    p_x = Pmf(p_v.probs @ layer.matrix)
    ref = simulate._letter_fold(np.zeros((1, n), dtype=np.int64),
                                w_z.output(p_x).probs[None, :], np.multiply, 1.0)[0]
    values = np.empty(trials)
    for t in range(trials):
        book = generate_super_codebook(p_v, layer, n, m, m, seed=trial_seed(master_seed, t))
        rows = simulate._letter_fold(book.x_words.reshape(-1, n), w_z.matrix, np.multiply, 1.0)
        values[t] = kl_divergence(rows.mean(axis=0), ref)
    return values


def _block_chain(kind):
    """A chain whose eavesdropper is of one kind; the one-output kinds are run at
    n = 40, where the receiver's error needs the Monte Carlo fallback."""
    rng = np.random.default_rng([len(kind), ord(kind[-1])])
    if kind == "bsc":
        return BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2))
    if kind == "bec":
        return BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bec(0.3), bec(0.45))
    if kind == "ternary":
        return BccChain(random_pmf(rng, 2), random_dmc(rng, 2, 3), random_dmc(rng, 3, 3),
                        random_dmc(rng, 3, 2), random_dmc(rng, 3, 3))
    if kind == "one_output":
        return BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), Dmc(np.ones((2, 1))))
    # 3^40 words overflow an int64 key
    return BccChain(Pmf.uniform(2), bsc(0.25), random_dmc(rng, 2, 3), random_dmc(rng, 3, 2),
                    Dmc(np.ones((3, 1))))


BLOCK_CASES = ([(kind, n) for kind in ("bsc", "bec", "ternary") for n in (1, 4, 6)]
               + [("one_output", 40), ("one_output_ternary", 40)])
BLOCK_SIZES = (2, 3, 2, 3)      # 18 codewords a confidential message


class TestTrialBlocks:
    """Blocks of trials against the per-trial loop: every value bit for bit."""

    @staticmethod
    def _three_trial_blocks(monkeypatch, codewords, outputs):
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 3 * codewords * outputs)

    @pytest.mark.parametrize("kind, n", BLOCK_CASES)
    @pytest.mark.parametrize("trials", [1, 3, 7], ids=["one", "block", "ragged"])
    def test_simulate_bcc_matches_per_trial_loop(self, monkeypatch, kind, n, trials):
        chain = _block_chain(kind)
        exact_bob = simulate._decode_enumerable(chain.w_y.output_size, n, 12)
        outputs = max(chain.w_y.output_size**n if exact_bob else 1, chain.w_z.output_size**n)
        self._three_trial_blocks(monkeypatch, math.prod(BLOCK_SIZES), outputs)
        rep = simulate_bcc(chain, BLOCK_SIZES, n, trials=trials, master_seed=n,
                           allow_mc=True, mc_samples=20)
        bob, eve, leak = _oracle_simulate_bcc(chain, BLOCK_SIZES, n, trials, n, 20)
        assert rep.metadata["bob_method"] == ("exact" if exact_bob else "monte_carlo")
        assert np.array_equal(rep.bob_errors, bob)
        assert np.array_equal(rep.eve_errors, eve)
        assert np.array_equal(rep.leakages, leak)

    @pytest.mark.parametrize("kind, n", BLOCK_CASES)
    @pytest.mark.parametrize("trials", [1, 3, 7], ids=["one", "block", "ragged"])
    def test_mc_resolvability_matches_per_trial_loop(self, monkeypatch, kind, n, trials):
        chain = _block_chain(kind)
        p_v, layer = chain.p_v_given_u.output(chain.p_u), chain.p_x_given_v
        self._three_trial_blocks(monkeypatch, 16, chain.w_z.output_size**n)
        res = mc_resolvability(p_v, layer, chain.w_z, n, 4, 4, trials, master_seed=n + 1)
        want = _oracle_mc_resolvability(p_v, layer, chain.w_z, n, 4, trials, n + 1)
        assert np.array_equal(res.values, want)

    @pytest.mark.parametrize("trials", [1, 16, 23], ids=["one", "block", "ragged"])
    def test_default_block(self, trials):
        # 64 codewords by 2^6 outputs: 16 trials fill a block of the default size
        assert simulate._TRIAL_BLOCK // (64 * 2**6) == 16
        rep = simulate_bcc(fixture_chain(), (2, 4, 2, 4), 6, trials=trials, master_seed=11)
        bob, eve, leak = _oracle_simulate_bcc(fixture_chain(), (2, 4, 2, 4), 6, trials, 11, 0)
        assert np.array_equal(rep.bob_errors, bob)
        assert np.array_equal(rep.eve_errors, eve)
        assert np.array_equal(rep.leakages, leak)
        res = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 6, 8, 8, trials, 12)
        want = _oracle_mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), 6, 8, trials, 12)
        assert np.array_equal(res.values, want)

    @pytest.mark.parametrize("kind, n", BLOCK_CASES)
    def test_one_codebook_case(self, kind, n):
        chain = _block_chain(kind)
        book = generate_bcc_codebook(chain, BLOCK_SIZES, n, seed=[n, 5])
        assert np.array_equal(conditional_output_distributions(book),
                              _oracle_conditional_laws(book))
        assert exact_leakage(book) == _oracle_leakage(book)
        alphas = decoding_thresholds(chain, n, 0.05)
        assert exact_eve_error(book, alphas[0]) == _oracle_eve_error(book, alphas[0])
        if simulate._decode_enumerable(chain.w_y.output_size, n, 12):
            assert exact_bob_error(book, alphas) == _oracle_bob_error(book, alphas)
        super_book = generate_super_codebook(chain.p_v_given_u.output(chain.p_u),
                                             chain.p_x_given_v, n, 3, 4, seed=[n, 6])
        rows = simulate._letter_fold(super_book.x_words.reshape(-1, n), chain.w_z.matrix,
                                     np.multiply, 1.0)
        assert np.array_equal(output_distribution(super_book, chain.w_z), rows.mean(axis=0))

    def test_mc_fallback_peak_not_above_per_trial_loop(self):
        tracemalloc.start()
        try:
            simulate_bcc(fixture_chain(), (8, 8, 2, 2), 16, trials=2, master_seed=0,
                         allow_mc=True, mc_samples=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the per-trial loop peaked at 193 MiB on this call
        assert peak <= 193 << 20

    def test_peak_is_one_block_not_all_trials(self):
        peaks = []
        for trials in (10, 200):
            tracemalloc.start()
            try:
                simulate_bcc(fixture_chain(), (2, 4, 2, 4), 6, trials=trials, master_seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_sidecar_records_mc_samples(self, tmp_path):
        chain = _block_chain("one_output")
        rep = simulate_bcc(chain, (2, 2, 2, 2), 40, trials=2, master_seed=3, allow_mc=True,
                           mc_samples=7)
        assert (rep.metadata["bob_method"], rep.metadata["eve_method"]) == \
            ("monte_carlo", "exact")
        assert rep.metadata["mc_samples"] == 7
        rep.write_csv(tmp_path / "bcc.csv")
        assert '"mc_samples": 7' in (tmp_path / "bcc.csv.meta.json").read_text()
        exact = simulate_bcc(fixture_chain(), (2, 2, 2, 2), 4, trials=2, master_seed=3,
                             mc_samples=7)
        assert "mc_samples" not in exact.metadata


# The per-sample Monte Carlo error loop that blocks of samples replaced: each
# sample's threshold tests from the chain's laws composed again for it.

def _oracle_log_sums(words, matrix, seq):
    return np.cumsum(simulate._log(matrix)[words, seq[None, :]], axis=1)[:, -1]


def _oracle_bob_passing(book, alphas, y):
    chain, n = book.chain, book.n
    _, size_l, size_s, _ = book.sizes
    log_v = _oracle_log_sums(book.v_words.reshape(-1, n), chain.p_y_given_v.matrix, y)
    log_u = np.repeat(_oracle_log_sums(book.u_words, chain.p_y_given_u.matrix, y),
                      size_l * size_s, axis=0)
    log_prior = _oracle_log_sums(np.zeros((1, n), dtype=np.int64), chain.p_y.probs[None, :], y)
    return (simulate._passes(log_v, alphas[1], log_u)
            & simulate._passes(log_v, alphas[2], log_prior))


def _oracle_eve_passing(book, alpha0, z):
    chain, n = book.chain, book.n
    log_u = _oracle_log_sums(book.u_words, chain.p_z_given_u.matrix, z)
    log_prior = _oracle_log_sums(np.zeros((1, n), dtype=np.int64), chain.p_z.probs[None, :], z)
    return simulate._passes(log_u, alpha0, log_prior)


def _oracle_mc_error(book, matrix, passing, samples, seed):
    rng = np.random.default_rng(seed)
    cdf = simulate._cdf(matrix)
    codewords = math.prod(book.sizes)
    errors = 0
    for _ in range(samples):
        msg = tuple(int(rng.integers(size)) for size in book.sizes)
        out = simulate._inverse_cdf_sample(rng.random(book.n), cdf, book.x_words[msg])
        tests = passing(out)
        sent = int(np.ravel_multi_index(msg, book.sizes)) // (codewords // tests.size)
        errors += int(simulate._decode_table(tests)) != sent
    return errors / samples


def _oracle_mc_errors(book, alphas, samples, seed):
    chain = book.chain
    return (_oracle_mc_error(book, chain.w_y.matrix,
                             lambda y: _oracle_bob_passing(book, alphas, y), samples, seed),
            _oracle_mc_error(book, chain.w_z.matrix,
                             lambda z: _oracle_eve_passing(book, alphas[0], z), samples, seed))


def _mc_errors(book, alphas, samples, seed):
    return (mc_bob_error(book, alphas, samples, seed=seed),
            mc_eve_error(book, alphas[0], samples, seed=seed))


MC_ERROR_CASES = [(kind, n) for kind in ("bsc", "bec", "ternary") for n in (1, 6, 20)] \
    + [("one_output", 6), ("one_output_ternary", 40)]


class TestMcErrorBlocks:
    """Blocks of Monte Carlo error samples against the per-sample loop."""

    @staticmethod
    def _rows(book):
        return max(1, simulate._MC_BLOCK // book.v_words.size)

    @pytest.mark.parametrize("kind, n", MC_ERROR_CASES)
    @pytest.mark.parametrize("size", ["one", "block", "ragged"])
    def test_matches_per_sample_loop(self, kind, n, size):
        chain = _block_chain(kind)
        book = generate_bcc_codebook(chain, BLOCK_SIZES, n, seed=[n, 7])
        alphas = decoding_thresholds(chain, n, 0.05)
        samples = {"one": 1, "block": self._rows(book), "ragged": 2 * self._rows(book) + 3}[size]
        assert _mc_errors(book, alphas, samples, n) == _oracle_mc_errors(book, alphas, samples, n)

    @pytest.mark.parametrize("kind, n", MC_ERROR_CASES)
    def test_one_sample_blocks_match_per_sample_loop(self, monkeypatch, kind, n):
        chain = _block_chain(kind)
        book = generate_bcc_codebook(chain, BLOCK_SIZES, n, seed=[n, 8])
        alphas = decoding_thresholds(chain, n, 0.05)
        want = _oracle_mc_errors(book, alphas, 41, n + 1)
        for block in (1, book.v_words.size):
            monkeypatch.setattr(simulate, "_MC_BLOCK", block)
            assert self._rows(book) == 1
            assert _mc_errors(book, alphas, 41, n + 1) == want

    def test_tied_thresholds_match_per_sample_loop(self):
        # thresholds at the tests' own log-ratios at one output, so the samples
        # that draw it meet a tie
        rng = np.random.default_rng(9)
        for c in range(20):
            chain = random_chain(rng, 3) if c % 2 else _block_chain("bec")
            n = int(rng.integers(1, 5))
            book = generate_bcc_codebook(chain, BLOCK_SIZES, n, seed=c)
            y, z = (rng.integers(0, m, size=n) for m in chain.sizes[3:])
            one = np.zeros((1, n), dtype=np.int64)
            log_v = _oracle_log_sums(book.v_words.reshape(-1, n), chain.p_y_given_v.matrix, y)
            log_u = _oracle_log_sums(book.u_words, chain.p_y_given_u.matrix, y)
            log_z = _oracle_log_sums(book.u_words, chain.p_z_given_u.matrix, z)
            with np.errstate(invalid="ignore"):
                alphas = (log_z[0] - _oracle_log_sums(one, chain.p_z.probs[None, :], z)[0],
                          log_v[-1] - log_u[-1],
                          log_v[0] - _oracle_log_sums(one, chain.p_y.probs[None, :], y)[0])
            alphas = tuple(float(a) if math.isfinite(a) else 0.0 for a in alphas)
            assert _mc_errors(book, alphas, 150, c) == _oracle_mc_errors(book, alphas, 150, c), c

    @pytest.mark.parametrize("kind", ["bsc", "bec", "ternary"])
    @pytest.mark.parametrize("n", [5, 37])
    def test_stacked_tests_match_one_sequence_tests(self, kind, n):
        # each row's thresholds tie one of its own log-ratios, so a sum added
        # in another order would flip a test
        chain = _block_chain(kind)
        book = generate_bcc_codebook(chain, BLOCK_SIZES, n, seed=3)
        block = simulate._Block([book])
        rng = np.random.default_rng(4)
        ys = rng.integers(0, chain.w_y.output_size, size=(30, n))
        zs = rng.integers(0, chain.w_z.output_size, size=(30, n))
        one = np.zeros((1, n), dtype=np.int64)
        for i in range(30):
            j = i % 12
            log_v = _oracle_log_sums(book.v_words.reshape(-1, n), chain.p_y_given_v.matrix, ys[i])
            log_u = _oracle_log_sums(book.u_words, chain.p_y_given_u.matrix, ys[i])
            log_z = _oracle_log_sums(book.u_words, chain.p_z_given_u.matrix, zs[i])
            with np.errstate(invalid="ignore"):
                alphas = (log_z[j % 2] - _oracle_log_sums(one, chain.p_z.probs[None, :], zs[i])[0],
                          log_v[j] - log_u[j // 6],
                          log_v[j] - _oracle_log_sums(one, chain.p_y.probs[None, :], ys[i])[0])
            alphas = tuple(float(a) if math.isfinite(a) else 0.0 for a in alphas)
            bob = block.bob_passing(alphas, ys)
            eve = block.eve_passing(alphas[0], zs)
            assert bob.shape == (30, 12) and eve.shape == (30, 2)
            assert np.array_equal(bob[i], _oracle_bob_passing(book, alphas, ys[i]))
            assert np.array_equal(block.bob_passing(alphas, ys[i]), bob[i][None])
            assert np.array_equal(eve[i], _oracle_eve_passing(book, alphas[0], zs[i]))
            assert np.array_equal(block.eve_passing(alphas[0], zs[i]), eve[i][None])


class TestDistinctWords:
    @pytest.mark.parametrize("letters, n", [(1, 100), (2, 62), (2, 63), (2, 65), (3, 39),
                                            (3, 40), (4, 31), (4, 33)])
    def test_keys_keep_words_apart(self, letters, n):
        # words that differ only in their first (most significant) letter: at
        # 2^65 and 4^33 an int64 key would wrap and merge them
        rng = np.random.default_rng([letters, n])
        base = rng.integers(0, letters, size=(4, n))
        base[1] = base[0]
        base[1, 0] = (base[0, 0] + 1) % letters
        base[0, 1:] = letters - 1
        base[1, 1:] = letters - 1
        words = base[rng.integers(0, 4, size=(3, 5))]
        distinct = simulate._DistinctWords(words)
        flat = words.reshape(-1, n)
        want = np.unique(flat, axis=0).shape[0]
        assert distinct.first.size == want
        assert np.array_equal(distinct.words[distinct.first][distinct.inverse], flat)

    @pytest.mark.parametrize("repeats", [True, False], ids=["gathered", "in_place"])
    def test_fold_in_chunks_matches_one_fold(self, monkeypatch, repeats):
        rng = np.random.default_rng(7)
        words = rng.integers(0, 3, size=(40, 5))
        if repeats:
            words = words[rng.integers(0, 6, size=40)]
        matrix = random_dmc(rng, 3, 2).matrix
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 3 * 2**5)     # three words a chunk
        distinct = simulate._DistinctWords(words.reshape(4, 10, 5))
        assert (distinct.inverse is not None) == repeats
        for rows, combine, start in ((matrix, np.multiply, 1.0),
                                     (simulate._log(matrix), np.add, 0.0)):
            want = simulate._letter_fold(words, rows, combine, start)
            got = distinct.fold(rows, combine, start)
            assert got.shape == (4, 10, 2**5)
            assert np.array_equal(got.reshape(40, -1), want)

    def test_one_word_folds_without_unique(self, monkeypatch):
        # the prior row of a table is the fold of one all-zero word
        probs = np.array([0.2, 0.5, 0.3])
        want = simulate._letter_fold(np.zeros((1, 6), dtype=np.int64),
                                     simulate._log(probs[None, :]), np.add, 0.0)

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique ran on one word")

        monkeypatch.setattr(simulate.np, "unique", no_unique)
        distinct = simulate._DistinctWords(np.zeros((1, 6), dtype=np.int64))
        assert distinct.first is None and distinct.inverse is None
        assert np.array_equal(simulate._prior_log_likelihoods(Pmf(probs), 6), want)

    def test_tables_share_each_layers_distinct_words(self, monkeypatch):
        # both tables of a block read the u layer: its distinct words are
        # found once, and the values are those of one table at a time
        chain = _block_chain("bsc")
        books = [generate_bcc_codebook(chain, BLOCK_SIZES, 5, seed=s) for s in range(3)]
        alphas = decoding_thresholds(chain, 5)
        apart = simulate._Block(books).evaluate(bob=alphas)[0], \
            simulate._Block(books).evaluate(eve=alphas[0])[1]
        stacks, plain = [], simulate._DistinctWords.__init__

        def counting(self, words):
            stacks.append(words.shape)
            plain(self, words)

        monkeypatch.setattr(simulate._DistinctWords, "__init__", counting)
        bob, eve, _ = simulate._Block(books).evaluate(bob=alphas, eve=alphas[0])
        assert stacks.count((3, BLOCK_SIZES[0], 5)) == 1
        assert len(stacks) == 3         # the u, v and x layers
        assert bob.tobytes() == apart[0].tobytes() and eve.tobytes() == apart[1].tobytes()


def _sparse_prior(rng, letters):
    """A Dirichlet law on ``letters`` letters, about a third of them zero (never all)."""
    probs = rng.dirichlet(np.ones(letters))
    probs[rng.random(letters) < 1 / 3] = 0.0
    if not probs.any():
        probs[rng.integers(letters)] = 1.0
    return Pmf(probs / probs.sum())


class _FixedUniforms:
    """A stand-in generator whose ``random`` returns given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, shape):
        return self.uniforms.reshape(shape)


def _oracle_super_codebook(p_v, layer, n, m1, m2, seed):
    """The cloud layer through ``Generator.choice``, then the satellites."""
    rng = np.random.default_rng(seed)
    v_words = rng.choice(p_v.size, size=(m2, n), p=p_v.probs)
    x_words = simulate._inverse_cdf_sample(rng.random((m2, m1, n)),
                                           simulate._cdf(layer.matrix), v_words[:, None, :])
    return v_words, x_words


def _oracle_bcc_codebook(chain, sizes, n, seed):
    """The common layer through ``Generator.choice``, then the V and X layers."""
    size_k, size_l, size_s, size_a = sizes
    rng = np.random.default_rng(seed)
    u_words = rng.choice(chain.p_u.size, size=(size_k, n), p=chain.p_u.probs)
    v_words = simulate._inverse_cdf_sample(rng.random((size_k, size_l, size_s, n)),
                                           simulate._cdf(chain.p_v_given_u.matrix),
                                           u_words[:, None, None, :])
    x_words = simulate._inverse_cdf_sample(rng.random((size_k, size_l, size_s, size_a, n)),
                                           simulate._cdf(chain.p_x_given_v.matrix),
                                           v_words[:, :, :, None, :])
    return u_words, v_words, x_words


class TestBlockDraws:
    """Codebooks of a block of trials share their checks and CDFs: every word
    is the one its trial's stream gives alone, and the prior is drawn as
    ``Generator.choice`` draws it."""

    def test_prior_draw_is_generator_choice(self):
        rng = np.random.default_rng(30)
        for seed in range(2000):
            p = _sparse_prior(rng, int(rng.integers(1, 9)))
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 7)))
            ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = simulate._prior_draw(ours, simulate._prior_cdf(p), shape)
            want = numpy_rng.choice(p.size, shape, p=p.probs)
            assert got.dtype == want.dtype and np.array_equal(got, want), (seed, p)
            # the same number of uniforms was taken: the streams go on alike
            assert ours.random() == numpy_rng.random()

    def test_a_uniform_on_a_cdf_step_takes_the_next_letter(self):
        # a letter is the count of CDF entries at most the uniform, so a
        # zero-probability letter is never drawn, not even at u = 0
        p = Pmf([0.0, 0.25, 0.0, 0.25, 0.5])
        cdf = simulate._prior_cdf(p)
        uniforms = np.concatenate([[0.0], cdf[:-1], [np.nextafter(1.0, 0.0)]])
        got = simulate._prior_draw(_FixedUniforms(uniforms), cdf, uniforms.shape)
        assert got.tolist() == [1, 1, 3, 3, 4, 4]
        assert np.all(p.probs[got] > 0.0)

    def test_prior_cdf_ends_at_one(self):
        # some validated laws add up to just below 1: the scaled CDF still
        # ends at 1, so the largest uniform below 1 draws a letter of the law
        rng = np.random.default_rng(31)
        short = 0
        top = np.nextafter(1.0, 0.0)
        for _ in range(2000):
            p = _sparse_prior(rng, int(rng.integers(1, 9)))
            short += p.probs.cumsum()[-1] < top
            cdf = simulate._prior_cdf(p)
            assert cdf[-1] == 1.0
            letter = simulate._prior_draw(_FixedUniforms([top]), cdf, (1,))[0]
            assert letter < p.size and p.probs[letter] > 0.0
        assert short > 0

    @pytest.mark.parametrize("letters", [1, 2, 3])
    def test_super_block_matches_public_generator(self, letters):
        rng = np.random.default_rng(letters)
        p_v, layer = _sparse_prior(rng, letters), random_dmc(rng, letters, 3)
        seeds = [trial_seed(letters, t) for t in range(12)]
        books = simulate._super_codebooks(p_v, layer, 5, 3, 4, seeds)
        for seed, book in zip(seeds, books):
            alone = generate_super_codebook(p_v, layer, 5, 3, 4, seed=seed)
            v_words, x_words = _oracle_super_codebook(p_v, layer, 5, 3, 4, seed)
            for got in (book, alone):
                assert np.array_equal(got.v_words, v_words)
                assert np.array_equal(got.x_words, x_words)
                assert got.v_words.dtype == x_words.dtype == np.int64
                assert got.seed is seed

    @pytest.mark.parametrize("kind", ["bsc", "bec", "ternary", "sparse"])
    def test_bcc_block_matches_public_generator(self, kind):
        rng = np.random.default_rng(len(kind))
        chain = _block_chain(kind) if kind != "sparse" else BccChain(
            _sparse_prior(rng, 4), random_dmc(rng, 4, 3), random_dmc(rng, 3, 2),
            random_dmc(rng, 2, 2), random_dmc(rng, 2, 3))
        seeds = [trial_seed(7, t) for t in range(9)]
        books = simulate._bcc_codebooks(chain, BLOCK_SIZES, 4, seeds)
        for seed, book in zip(seeds, books):
            alone = generate_bcc_codebook(chain, BLOCK_SIZES, 4, seed=seed)
            want = _oracle_bcc_codebook(chain, BLOCK_SIZES, 4, seed)
            for got in (book, alone):
                for name, words in zip(("u_words", "v_words", "x_words"), want):
                    assert np.array_equal(getattr(got, name), words), name
                assert got.seed is seed

    def test_block_checks_keep_their_messages(self):
        chain = fixture_chain()
        for seeds in ([], [0, 1]):
            with pytest.raises(ValueError, match="at least 1"):
                simulate._super_codebooks(Pmf.uniform(2), bsc(0.1), 0, 2, 2, seeds)
            with pytest.raises(GuardExceeded, match="exceeds guard"):
                simulate._super_codebooks(Pmf.uniform(2), bsc(0.1), 2**12, 2**11, 2, seeds)
            with pytest.raises(ValueError, match="does not match"):
                simulate._super_codebooks(Pmf.uniform(3), bsc(0.1), 2, 2, 2, seeds)
            with pytest.raises(ValueError, match="at least 1"):
                simulate._bcc_codebooks(chain, (2, 0, 2, 2), 3, seeds)
            with pytest.raises(GuardExceeded, match="exceeds guard"):
                simulate._bcc_codebooks(chain, (2**10, 2**10, 2, 2), 3, seeds)
        assert simulate._super_codebooks(Pmf.uniform(2), bsc(0.1), 2, 2, 2, []) == []


# sha256 of the float64 values (little-endian), computed before trial blocks
# drew their codebooks through shared CDFs; the configurations are the
# benchmark's, 30 trials each
RESOLVABILITY_DIGESTS = {
    (4, 4): "ef4d8e6cd380c5c3cc530812783df40b3aa4b613eb0feadd980290df3b50581a",
    (6, 4): "b47f5ab93fd31eb67091b5f1a82263535c8f8386d3d4394be4d2060c8b41d1cf",
    (2, 2): "9697ba45f4c473fd4bdacd523a615fe4cc8e33e5deb7f211c483adf77823e391",
    (6, 8): "2f6ce4db588cec425a3a796e7613a600c616d2258b1fb00ca5ae6e51fb180500",
}


def _digest(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.asarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestGoldenTrials:
    @pytest.mark.parametrize("n, m", list(RESOLVABILITY_DIGESTS))
    def test_resolvability_values(self, n, m):
        res = mc_resolvability(Pmf.uniform(2), bsc(0.1), bsc(0.2), n, m, m, 30, 5)
        assert _digest(res.values) == RESOLVABILITY_DIGESTS[(n, m)]

    def test_simulate_bcc_values(self):
        rep = simulate_bcc(fixture_chain(), (2, 4, 2, 4), 6, trials=30, master_seed=11)
        assert _digest(rep.bob_errors, rep.eve_errors, rep.leakages) == \
            "56a96e652d859937b50ab959870637dfeb3a66563a31e159dc1cf3408eb205bf"

    def test_sparse_ternary_values(self):
        # a prior with a zero letter and a cumulative sum that is not 1 at its end
        p_v = Pmf([0.15, 0.0, 0.35, 0.5])
        layer = Dmc([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4], [0.05, 0.05, 0.9]])
        w_z = Dmc([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
        assert _digest(mc_resolvability(p_v, layer, w_z, 5, 3, 4, 30, 21).values) == \
            "c067ee1de958c41306500598d405c1a6b305ceef41c64599a5a821f66d3ef501"
        chain = BccChain(Pmf([0.3, 0.0, 0.7]), Dmc([[0.6, 0.4], [0.0, 1.0], [0.25, 0.75]]),
                         Dmc([[0.8, 0.1, 0.1], [0.2, 0.5, 0.3]]),
                         Dmc([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]),
                         Dmc([[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]]))
        rep = simulate_bcc(chain, (3, 2, 2, 3), 4, trials=30, master_seed=23)
        assert _digest(rep.bob_errors, rep.eve_errors, rep.leakages) == \
            "6b72d7cf5cf2c13c3fe7758bca9c2de0568ee4bd71055eed346fc548869bc1fd"


def _layers(book):
    names = ("v_words", "x_words") if isinstance(book, SuperCodebook) \
        else ("u_words", "v_words", "x_words")
    return {name: getattr(book, name) for name in names}


def _rebuild(book, **words):
    if isinstance(book, SuperCodebook):
        return SuperCodebook(**{**_layers(book), **words}, p_v=book.p_v,
                             p_x_given_v=book.p_x_given_v)
    return BccCodebook(**{**_layers(book), **words}, chain=book.chain)


CODEBOOKS = {
    "super": lambda: generate_super_codebook(Pmf.uniform(2), bsc(0.1), 3, 2, 2, seed=4),
    "bcc": lambda: generate_bcc_codebook(fixture_chain(), (2, 2, 2, 2), 3, seed=4),
}


class TestIntegerLetters:
    """Every layer of both codebook kinds holds integer letters in its alphabet."""

    @pytest.mark.parametrize("kind", list(CODEBOOKS))
    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64, np.int8])
    def test_any_integer_width_is_accepted(self, kind, dtype):
        book = CODEBOOKS[kind]()
        for name, words in _layers(book).items():
            assert _rebuild(book, **{name: words.astype(dtype)}).n == 3

    @pytest.mark.parametrize("kind", list(CODEBOOKS))
    @pytest.mark.parametrize("dtype", [bool, np.float64, np.float32, object])
    def test_other_kinds_are_rejected(self, kind, dtype):
        # a bool index array is read as a mask, so the divergence comes out
        # wrong; float letters would fail later, at the first fold
        book = CODEBOOKS[kind]()
        for name, words in _layers(book).items():
            with pytest.raises(ValueError, match="must be integers"):
                _rebuild(book, **{name: words.astype(dtype)})

    @pytest.mark.parametrize("kind", list(CODEBOOKS))
    @pytest.mark.parametrize("dtype, letter", [
        *((dtype, letter) for dtype in (np.int64, np.int32, np.int8, ">i4")
          for letter in (-1, -128, 2, 3, 127)),
        *((np.uint8, letter) for letter in (2, 3, 255))])
    def test_letters_outside_the_alphabet_are_rejected(self, kind, dtype, letter):
        book = CODEBOOKS[kind]()
        for name, words in _layers(book).items():
            bad = words.astype(dtype)
            bad.flat[0] = letter
            with pytest.raises(ValueError, match="outside its alphabet"):
                _rebuild(book, **{name: bad})
            # one letter in range at the same place is fine
            bad.flat[0] = 1
            _rebuild(book, **{name: bad})
