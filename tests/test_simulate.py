import math

import numpy as np
import pytest

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
    mc_resolvability,
    minimize_superposition_bound,
    output_distribution,
    simulate_bcc,
    trial_seed,
)
from bccrates.channels import bec, bsc
from bccrates.simulate import (
    codeword_channel_rows,
    conditional_output_distributions,
    mc_bob_error,
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

    def test_trials_are_order_free(self):
        chain = fixture_chain()
        rep = simulate_bcc(chain, (2, 2, 2, 2), 4, trials=3, master_seed=8)
        # trial 2 recomputed in isolation matches the batch entry
        book = generate_bcc_codebook(chain, (2, 2, 2, 2), 4, seed=trial_seed(8, 2))
        assert exact_leakage(book) == rep.leakages[2]

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
