"""The benchmark's workloads: seeded inputs, one round of operations, checks.

Every workload runs every kind of operation, so that every end-to-end
metric is measured on every workload; what tells the workloads apart is how
many operations of each kind a round holds (``MIX``) and at what size
(``SIZES``), and so where the round's time goes.  A round is the same list
of operations whatever the seed; the seed chooses the channels, chains,
rates and codebook seeds.
The operations of one kind are spread evenly through the round, between
those of the other kinds, so that each metric samples the whole round
rather than one stretch of it.  Every output is checked against
``reference`` or against a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import defaultdict

import numpy as np

import reference as ref

WORKLOADS = ("frontiers", "queries", "codes")

# metric -> (operation kind, "per_op": seconds per unit | "rate": units per
# second).  Units are operations, or codebook trials for the two simulators.
METRICS = {
    "frontier_binary_s": ("binary_frontier", "per_op"),
    "frontier_general_s": ("general_frontier", "per_op"),
    "region_cli_s": ("region_cli", "per_op"),
    "checks_per_s": ("checks", "rate"),
    "ordering_s": ("ordering", "per_op"),
    "min_dummy_s": ("min_dummy", "per_op"),
    "min_dummy_common_s": ("min_dummy_common", "per_op"),
    "resolvability_trials_per_s": ("resolvability", "rate"),
    "bcc_trials_per_s": ("bcc", "rate"),
    "theta_bound_s": ("theta_bound", "per_op"),
    "decoder_bound_s": ("decoder_bound", "per_op"),
    "mc_divergence_s": ("mc_divergence", "per_op"),
}

# Operations of each kind per round: (frontiers, queries, codes).  A
# workload runs the kinds it is named for (NAMED) often and at full size.
# Every other kind it runs only as often as its metric needs, since each run
# reports every metric, and at the small size in SIZES.  The counts follow
# the per-kind time shares that the result files report (summary.share).
MIX = {
    "binary_frontier": (20, 24, 24),  # cycles through BINARY_COMBOS
    "general_frontier": (4, 24, 24),  # ternary ds and sim, free prefix
    "region_cli": (4, 12, 12),        # `bccrates region`, --ds and --sim
    "checks": (64, 900, 64),          # chains; each gives a membership and a split
    "ordering": (6, 6, 6),            # pairs; each is one `check ordering`
    "min_dummy": (24, 3, 24),         # r_s values at r_0 = 0
    "min_dummy_common": (1, 1, 1),    # r_0 > 0; rounds alternate two r_0 values
    "resolvability": (8, 8, 144),     # mc_resolvability calls of RES_TRIALS
    "bcc": (8, 8, 96),                # simulate_bcc calls of BCC_TRIALS
    "theta_bound": (2, 2, 15),        # sets: one bound per RES_CONFIGS in use + leakage
    "decoder_bound": (6, 6, 36),
    "mc_divergence": (10, 10, 12),
}
NAMED = {
    "frontiers": ("binary_frontier", "general_frontier", "region_cli"),
    "queries": ("checks", "ordering", "min_dummy", "min_dummy_common"),
    "codes": ("resolvability", "bcc", "theta_bound", "decoder_bound", "mc_divergence"),
}
# Size of one operation: (where the kind is named, elsewhere).
SIZES = {
    "binary_frontier": (0.01, 0.05),   # prob step: 101^3 or 21^3 cells
    "general_frontier": (0.25, 0.5),   # prob step: 15 * 15^3 or 6 * 6^3 cells
    "region_cli": (0.01, 0.05),        # --grid-step
    "min_dummy": (0.01, 0.05),         # prob step of the r_0 = 0 inverse
    "mc_divergence": (2000, 200),      # samples at n = MC_N
}
CHAIN_POOL = 64           # most distinct chains; each is checked 4+ times a round
RES_CONFIGS = ((4, 4), (6, 4), (2, 2), (6, 8))   # (n, m1 = m2); elsewhere the first two
RES_TRIALS = 30
BCC_SIZES = (2, 4, 2, 4)
BCC_N = 6
BCC_TRIALS = 10
DECODER_N = 7             # largest n the exact-tail guard allows for this chain
MC_N = 400
MC_CHECK_N = 8            # both MC and exact enumeration run here
MC_CHECK_SAMPLES = 2000
MC_FAULT_N = 1200         # the product of letter probabilities underflows

PAPER_PAIRS = (("bsc:0.1", "bsc:0.2"), ("bsc:0.11", "bec:0.45"))
# (pair, mode, hull); two probes get the pair where the prefix matters
BINARY_COMBOS = ((1, "ds", True), (1, "sim", True), (0, "ds", True), (0, "sim", True),
                 (1, "ds", False), (1, "sim", False), (0, "ds", False), (0, "sim", False))
CHAIN_SIZES = ((1, 2, 2, 2, 2), (2, 2, 2, 2, 3), (2, 3, 2, 3, 2), (1, 3, 3, 2, 2),
               (2, 2, 3, 3, 3), (3, 3, 2, 2, 4), (2, 4, 3, 2, 3), (3, 3, 3, 3, 3))

TERNARY_RD_STEP = 0.01
ORDERING_STEP = 0.001     # input grid of is_more_capable, as `check ordering`
# Gap between the hulled ds and sim frontiers: the grid may sit this far
# from the continuum gap.  At step 0.005 the acceptance test allows 2.5e-4;
# binning a frontier one budget step up shifts it by slope * rd_step, so the
# 0.01 grid gets twice that.  Coarser grids are not gap-checked.
GAP_STEP = 0.01
GAP_TOL = 5e-4
EXCESS_TOL = 1e-9         # grid frontier above the continuum frontier
ORDER_TOL = 1e-12         # pointwise orderings between frontiers on one axis
SLACK_TOL = 1e-9          # the region checks' own tolerance
SLACK_MARGIN = 1e-10      # inputs keep their slacks this far from SLACK_TOL
TAIL_TOL = 1e-12
MC_SIGMAS = 5.0
# The host's speed swings by up to 2x within seconds, and the operations of
# a run slow or speed up with it.  A fixed kernel is timed CALIBRATION_SAMPLES
# times a round between the operations, and each operation's time is scaled
# to the speed at which the kernel takes CAL_REF_MS, judged from the kernel
# samples nearest to it in time.  Over ten seeded runs per workload this
# took the mean spread of the operation metrics from 0.17-0.23 raw to
# 0.07-0.09, and the largest from 0.19-0.30 to 0.10-0.15; scaling whole
# rounds by their median kernel left 0.07-0.12 and 0.15-0.17.  Raw figures
# stay in the result file.
CALIBRATION_SAMPLES = 60
CAL_REF_MS = 3.0
CAL_NEIGHBOURS = 15       # kernel samples nearest in time to an operation
_CAL_X = np.random.default_rng(1).random((101, 101, 2)) + 0.01
_CAL_M = np.random.default_rng(2).random((3, 2))


def _calibration() -> float:
    """About 3 ms of vectorised logs and small-array calls, like the operations."""
    s = 0.0
    for _ in range(10):
        s += float((_CAL_X * np.log(_CAL_X)).sum())
    for i in range(200):
        s += float(np.max(np.abs(_CAL_M @ _CAL_M.T - i)))
    return s


def _scale(cal: np.ndarray, at: float) -> float:
    """CAL_REF_MS over the local kernel time: the median of the CAL_NEIGHBOURS
    kernel samples (start, seconds) nearest in time to ``at``."""
    near = np.argsort(np.abs(cal[:, 0] - at))[:CAL_NEIGHBOURS]
    return CAL_REF_MS / (1e3 * float(np.median(cal[near, 1])))


class Failed:
    """Result of an operation that raised."""


FAILED = Failed()


class Bench:
    """Times operations, counts attempts and failures, and collects checks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.op_failures: list[str] = []
        self.check_failures: list[str] = []
        self.checks = 0
        self.rounds: list[dict] = []
        self._round = None

    def begin_round(self, traced: bool) -> None:
        self._round = {"traced": traced, "counts": defaultdict(float), "samples": [],
                       "calibration": [], "start": time.perf_counter()}

    def end_round(self) -> None:
        self._round["wall_s"] = time.perf_counter() - self._round.pop("start")
        self.rounds.append(self._round)
        self._round = None

    def calibrate(self) -> None:
        start = time.perf_counter()
        _calibration()
        self._round["calibration"].append((start, time.perf_counter() - start))

    def count(self, name: str, amount: float) -> None:
        self._round["counts"][name] += amount

    def op(self, group, label, fn, *args, units=1, **kwargs):
        """Run one operation; time it under ``group`` (None: no metric)."""
        self.attempted += 1
        traced = self.tracer.installed
        if traced:
            self.tracer.begin(group or label)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is counted as failed
            self.failed += 1
            self.op_failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return FAILED
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.end()
        if group is not None:
            self._round["samples"].append((group, start, elapsed, units))
        return result

    def check(self, ok, what: str) -> bool:
        self.checks += 1
        if not ok:
            self.check_failures.append(what)
        return bool(ok)

    def metrics(self, scaled: bool = True) -> dict[str, float]:
        """Each metric over the untraced rounds: total units against total time,
        each operation's time scaled by the kernel timed around it."""
        seconds, units = defaultdict(float), defaultdict(float)
        for r in self.rounds:
            if r["traced"]:
                continue
            cal = np.asarray(r["calibration"])
            for group, start, elapsed, n in r["samples"]:
                seconds[group] += elapsed * (_scale(cal, start + elapsed / 2) if scaled else 1.0)
                units[group] += n
        return {name: seconds[group] / units[group] if kind == "per_op"
                else units[group] / seconds[group]
                for name, (group, kind) in METRICS.items() if units[group]}

    def summary(self) -> dict:
        """Per kind: samples, the median and 90th percentile of seconds per unit,
        and the kind's share of the untraced rounds' wall time."""
        per, spent = defaultdict(list), defaultdict(float)
        wall = sum(r["wall_s"] for r in self.rounds if not r["traced"])
        for r in self.rounds:
            if not r["traced"]:
                for group, _, elapsed, n in r["samples"]:
                    per[group].append(elapsed / n)
                    spent[group] += elapsed
        out = {g: {"samples": len(v), "median_s": float(np.median(v)),
                   "p90_s": float(np.quantile(v, 0.9)), "share": spent[g] / wall}
               for g, v in per.items()}
        out["calibration_ms"] = 1e3 * float(np.median(
            [t for r in self.rounds for _, t in r["calibration"]]))
        return out


def _concave(r_s: np.ndarray) -> bool:
    return bool(np.all(np.diff(r_s, 2) <= ORDER_TOL))


def _nondecreasing(r_s: np.ndarray) -> bool:
    return bool(np.all(np.diff(r_s) >= -ORDER_TOL))


def _frontier_arrays(front):
    return np.asarray(front.r_d, dtype=float), np.asarray(front.r_s, dtype=float)


class Workload:
    """Seeded inputs and the round of one workload."""

    def __init__(self, name: str, bc, seed: int, out_dir):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.mix = {kind: counts[WORKLOADS.index(name)] for kind, counts in MIX.items()}
        self.size = {kind: sizes[0] if kind in NAMED[name] else sizes[1]
                     for kind, sizes in SIZES.items()}
        self.bc = bc
        self.seed = seed
        self.out_dir = out_dir
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        self._frontier_inputs()
        self._query_inputs()
        self._code_inputs()

    def round_seed(self, r: int, k: int) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.seed, 2, r, k))

    # ------------------------------------------------------------ inputs

    def _frontier_inputs(self) -> None:
        pkg, parse = self.bc.pkg, self.bc.channels.parse_channel
        rng = self.rng
        self.paper_pairs = [(parse(y), parse(z)) for y, z in PAPER_PAIRS]
        e1 = round(float(rng.uniform(0.05, 0.2)), 4)
        e2 = round(float(rng.uniform(0.1, 0.3)), 4)
        t_y = ref.ternary_symmetric(e1)
        self.ternary = (pkg.Dmc(t_y), pkg.Dmc(t_y @ ref.ternary_symmetric(e2)))
        eps = round(float(rng.uniform(0.05, 0.15)), 4)
        delta = round(float(rng.uniform(0.3, 0.6)), 4)
        self.cli_specs = (f"bsc:{eps}", f"bec:{delta}")

    def _random_chain(self, sizes):
        pkg, rng = self.bc.pkg, self.rng
        mu, mv, mx, my, mz = sizes
        rows = lambda m_in, m_out: pkg.Dmc(rng.dirichlet(np.ones(m_out), size=m_in))
        return pkg.BccChain(pkg.Pmf(rng.dirichlet(np.ones(mu))), rows(mu, mv),
                            rows(mv, mx), rows(mx, my), rows(mx, mz))

    @staticmethod
    def _chain_arrays(chain):
        return (chain.p_u.probs, chain.p_v_given_u.matrix, chain.p_x_given_v.matrix,
                chain.w_y.matrix, chain.w_z.matrix)

    @staticmethod
    def _clear(slacks: dict) -> bool:
        return all(abs(s + SLACK_TOL) > SLACK_MARGIN for s in slacks.values())

    def _member_quad(self, info):
        rng = self.rng
        common = min(info["i_uy"], info["i_uz"])
        r_0 = float(rng.uniform(0.0, 0.9)) * max(common, 0.0)
        budget = info["i_vy_given_u"] + common - r_0
        r_s = float(rng.uniform(0.05, 0.9)) * min(
            info["i_vy_given_u"] - info["i_vz_given_u"], budget)
        r_1 = float(rng.uniform(0.05, 0.9)) * (budget - r_s)
        r_d = (max(info["i_xz_given_v"], info["i_xz_given_u"] - r_1)
               + float(rng.uniform(0.01, 0.5)))
        return (r_d, r_0, r_1, r_s)

    def _query_inputs(self) -> None:
        """Chains with a membership quad (every other one outside the region)
        and a member quad to split; all slacks clear of the tolerance."""
        pkg, rng, parse = self.bc.pkg, self.rng, self.bc.channels.parse_channel
        self.chains = []
        for i in range(min(self.mix["checks"] // 4, CHAIN_POOL)):
            sizes = CHAIN_SIZES[i % len(CHAIN_SIZES)]
            while True:
                chain = self._random_chain(sizes)
                info = ref.chain_informations(*self._chain_arrays(chain))
                if info["i_vy_given_u"] - info["i_vz_given_u"] < 1e-3:
                    continue
                split = self._member_quad(info)
                _, _, r_1, r_s = split
                case_margin = min(abs(r_1 + r_s - info["i_vy_given_u"]),
                                  abs(r_1 - info["i_vz_given_u"]))
                quad = self._member_quad(info)
                if i % 4 == 1:
                    excess = float(rng.uniform(0.01, 0.1))
                    quad = quad[:3] + (info["i_vy_given_u"] - info["i_vz_given_u"] + excess,)
                elif i % 4 == 3:
                    excess = float(rng.uniform(0.01, 0.1))
                    quad = (quad[0], min(info["i_uy"], info["i_uz"]) + excess) + quad[2:]
                slacks = ref.region_slacks(info, *quad)
                if (case_margin > SLACK_MARGIN and self._clear(slacks)
                        and self._clear(ref.region_slacks(info, *split))):
                    break
            self.chains.append({"chain": chain, "info": info, "quad": quad,
                                "slacks": slacks, "split": split})

        self.orderings = []
        for i in range(self.mix["ordering"]):
            while True:
                delta = round(float(rng.uniform(0.2, 0.7)), 4)
                if i % 2 == 0:
                    eps = round(float(rng.uniform(delta / 2 + 0.01, 0.45)), 4)
                else:
                    eps = round(float(rng.uniform(0.02, delta / 2 - 0.06)), 4)
                # both informations vanish at the two point-mass inputs, so
                # the verdicts turn on the interior of the input grid
                gap = ref.bec_bsc_information_gap(delta, eps, ORDERING_STEP)[1:-1]
                if min(abs(gap.min() + SLACK_TOL), abs(-gap.max() + SLACK_TOL)) > 1e-7:
                    break
            self.orderings.append({
                "pair": (parse(f"bec:{delta}"), parse(f"bsc:{eps}")),
                "want": (ref.bec_bsc_degraded(delta, eps), bool(gap.min() >= -SLACK_TOL),
                         bool(-gap.max() >= -SLACK_TOL)),
            })

        e1 = round(float(rng.uniform(0.05, 0.15)), 4)
        e2 = round(e1 + float(rng.uniform(0.05, 0.15)), 4)
        self.dummy_pair = (parse(f"bsc:{e1}"), parse(f"bsc:{e2}"))
        capacity = float(ref.binary_entropy(e2) - ref.binary_entropy(e1))
        self.dummy_rates = sorted(float(v) * capacity
                                  for v in rng.uniform(0.05, 0.9, self.mix["min_dummy"]))
        self.common_rs = float(rng.uniform(0.1, 0.3)) * capacity
        self.common_r0 = np.cumsum(rng.uniform(0.005, 0.015, 2))
        self.dummy_grid = pkg.GridSpec(prob_step=self.size["min_dummy"])

    def _code_inputs(self) -> None:
        pkg, parse, pmf = self.bc.pkg, self.bc.channels.parse_channel, self.bc.channels.parse_pmf
        sim = self.bc.simulate
        rng = self.rng
        self.prior, self.layer, self.w_z = pmf("uniform:2"), parse("bsc:0.1"), parse("bsc:0.2")
        self.p_x = self.prior.probs @ self.layer.matrix
        self.bcc_chain = pkg.BccChain(pmf("uniform:2"), parse("bsc:0.25"), parse("bsc:0.1"),
                                      parse("bsc:0.1"), parse("bsc:0.2"))
        self.res_configs = RES_CONFIGS if self.name == "codes" else RES_CONFIGS[:2]
        self.decoder_alphas = pkg.decoding_thresholds(self.bcc_chain, DECODER_N)
        book_seed = int(rng.integers(2**31))
        self.mc_book = sim.generate_super_codebook(self.prior, self.layer, MC_N, 4, 4,
                                                   seed=book_seed)
        self.mc_check_book = sim.generate_super_codebook(self.prior, self.layer, MC_CHECK_N,
                                                         4, 4, seed=book_seed + 1)
        # seed-independent: this call fails the same way every time
        self.mc_fault_book = sim.generate_super_codebook(self.prior, self.layer, MC_FAULT_N,
                                                         4, 4, seed=0)
        counts = rng.multinomial(8, [1 / 3] * 3)
        self.tie_values = (-1.0, 0.5, 2.0)
        self.tie_probs = rng.dirichlet(np.ones(3))
        self.tie_threshold = float(np.dot(counts, self.tie_values))

    # -------------------------------------------------- set-up and references

    def warm_up(self) -> None:
        """One small call of each kind, so lazy set-up is done before timing."""
        pkg, sim = self.bc.pkg, self.bc.simulate
        w_y, w_z = self.paper_pairs[0]
        pkg.secrecy_frontier(w_y, w_z, pkg.GridSpec(prob_step=0.1))
        pkg.secrecy_frontier(*self.ternary, pkg.GridSpec(prob_step=0.5))
        self._cli_region("--ds", "0.1")
        item = self.chains[0]
        pkg.check_rate_quad(item["chain"], pkg.RateQuad(*item["split"]))
        pkg.split_rates(item["chain"], pkg.RateQuad(*item["split"]))
        pkg.is_more_capable(*self.orderings[0]["pair"], 0.1)
        pkg.is_degraded(*self.orderings[0]["pair"], grid_step=0.5)
        pkg.min_dummy_rate(*self.dummy_pair, 0.0, 0.0, pkg.GridSpec(prob_step=0.1))
        pkg.mc_resolvability(self.prior, self.layer, self.w_z, 2, 2, 2, 2, 0)
        pkg.simulate_bcc(self.bcc_chain, (1, 2, 1, 2), 2, trials=1, master_seed=0)
        pkg.minimize_superposition_bound(2, 2, 2, self.w_z, self.layer, self.prior)
        pkg.decoder_error_bounds(2, self.bcc_chain, (2, 4, 2), self.decoder_alphas)
        sim.mc_output_divergence(self.mc_check_book, self.w_z, 10, 0)

    def prepare_references(self) -> None:
        """Reference values the checks compare against (not timed)."""
        self.ref_pairs = []
        for w_y, w_z in self.paper_pairs:
            ds = ref.ds_frontier(w_y.matrix, w_z.matrix, 20_001)
            self.ref_pairs.append({"ds": ds})
            if self.size["binary_frontier"] == GAP_STEP:
                slope = (ds.rates[1] - ds.rates[0]) / (ds.costs[1] - ds.costs[0])
                sim = ref.SimBracket(w_y.matrix, w_z.matrix, slope)
                self.ref_pairs[-1]["gap"] = ref.continuum_gap(ds, sim)
        cli_y, cli_z = (self.bc.channels.parse_channel(s) for s in self.cli_specs)
        self.ref_cli = ref.ds_frontier(cli_y.matrix, cli_z.matrix, 20_001)
        t_y, t_z = (w.matrix for w in self.ternary)
        self.ref_ternary_cap = ref.symmetric_capacity_gap(t_y, t_z)
        self.ref_ternary_grid = ref.grid_secrecy_max(t_y, t_z,
                                                     round(1.0 / self.size["general_frontier"]))
        w_y, w_z = self.dummy_pair
        self.ref_dummy = ref.ds_frontier(w_y.matrix, w_z.matrix, 20_001)
        atoms = ref.decoder_atoms(*self._chain_arrays(self.bcc_chain))
        alpha0, alpha1, alpha2 = self.decoder_alphas
        self.ref_decoder_tails = {
            key: ref.iid_tail_dp(*atoms[key], DECODER_N, alpha)
            for key, alpha in (("layer", alpha1), ("base", alpha2), ("common", alpha0))}
        self.ref_tie_tail = ref.iid_tail_dp(self.tie_probs, self.tie_values, 8,
                                            self.tie_threshold)
        self.ref_mc_check = ref.output_divergence(self.mc_check_book.x_words, self.w_z.matrix,
                                                  self.p_x)
        self.ref_mc_bracket = ref.output_divergence_bracket(self.mc_book.x_words,
                                                            self.w_z.matrix, self.p_x)
        self.ref_fault_bracket = ref.output_divergence_bracket(self.mc_fault_book.x_words,
                                                               self.w_z.matrix, self.p_x)
        self.pooled = defaultdict(lambda: [0.0, 0])   # figure -> [sum, count]
        self.common_values = (set(), set())           # min_dummy_rate per r_0 > 0
        self.bounds = {}
        self.mc_estimates = []                        # (value, se) at n = MC_N

    # ------------------------------------------------------------ rounds

    def round(self, b: Bench, r: int) -> None:
        """Run every operation of the round, interleaving the kinds evenly."""
        seen: dict = {}
        tasks = {
            "binary_frontier": [lambda k=k: self._binary_frontier(b, k, seen)
                                for k in range(self.mix["binary_frontier"])],
            "general_frontier": [lambda k=k: self._general_frontier(b, k, seen)
                                 for k in range(self.mix["general_frontier"])],
            "region_cli": [lambda k=k: self._region_cli(b, k)
                           for k in range(self.mix["region_cli"])],
            "checks": [lambda k=k: self._checks(b, self.chains[k % len(self.chains)])
                       for k in range(self.mix["checks"])],
            "ordering": [lambda pair=pair: self._ordering(b, pair) for pair in self.orderings],
            "min_dummy": [lambda k=k: self._min_dummy(b, k, seen)
                          for k in range(self.mix["min_dummy"])],
            "min_dummy_common": [lambda k=k: self._min_dummy_common(b, r + k)
                                 for k in range(self.mix["min_dummy_common"])],
            "resolvability": [lambda k=k: self._resolvability(b, r, k)
                              for k in range(self.mix["resolvability"])],
            "theta_bound": [lambda k=k: self._theta_bound(b, k % (len(self.res_configs) + 1))
                            for k in range(self.mix["theta_bound"]
                                           * (len(self.res_configs) + 1))],
            "bcc": [lambda k=k: self._bcc(b, r, k) for k in range(self.mix["bcc"])],
            "decoder_bound": [lambda: self._decoder(b)] * self.mix["decoder_bound"],
            "mc_divergence": [lambda k=k: self._mc_divergence(b, r, k)
                              for k in range(self.mix["mc_divergence"])],
            "ternary_fixed": [lambda: self._ternary_fixed(b, seen)],
        }
        if self.name == "codes":
            tasks["code_extras"] = [lambda: self._code_extras(b, r)]
        tasks["calibration"] = [b.calibrate] * CALIBRATION_SAMPLES
        order = sorted(((k + 0.5) / len(group), g, k)
                       for g, group in enumerate(tasks.values()) for k in range(len(group)))
        groups = list(tasks.values())
        for _, g, k in order:
            groups[g][k]()
        self._round_checks(b, seen)

    # frontiers ---------------------------------------------------------

    def _binary_frontier(self, b: Bench, k: int, seen: dict) -> None:
        pkg = self.bc.pkg
        p, mode, hull = BINARY_COMBOS[k % len(BINARY_COMBOS)]
        w_y, w_z = self.paper_pairs[p]
        fn = pkg.secrecy_frontier if mode == "ds" else pkg.secrecy_frontier_sim
        label = f"{PAPER_PAIRS[p][0]}/{PAPER_PAIRS[p][1]} {mode} hull={hull}"
        front = b.op("binary_frontier", label, fn, w_y, w_z,
                     pkg.GridSpec(prob_step=self.size["binary_frontier"]), hull=hull)
        if front is FAILED:
            return
        r_d, r_s = seen[(p, mode, hull)] = _frontier_arrays(front)
        excess = float(np.max(r_s - self.ref_pairs[p]["ds"].value(r_d)))
        b.check(excess <= EXCESS_TOL, f"{label}: above continuum ds by {excess:.3e}")
        b.check(_nondecreasing(r_s), f"{label}: decreasing")
        if hull:
            b.check(_concave(r_s), f"{label}: hulled frontier not concave")

    def _general_frontier(self, b: Bench, k: int, seen: dict) -> None:
        pkg = self.bc.pkg
        mode = ("ds", "sim")[k % 2]
        fn = pkg.secrecy_frontier if mode == "ds" else pkg.secrecy_frontier_sim
        grid = pkg.GridSpec(prob_step=self.size["general_frontier"], rd_step=TERNARY_RD_STEP)
        front = b.op("general_frontier", f"ternary {mode}", fn, *self.ternary, grid)
        if front is FAILED:
            return
        _, r_s = seen[("ternary", mode)] = _frontier_arrays(front)
        top = float(np.max(r_s))
        b.check(top <= self.ref_ternary_cap + EXCESS_TOL,
                f"ternary {mode}: max {top:.6f} above C_Y - C_Z {self.ref_ternary_cap:.6f}")
        b.check(_concave(r_s) and _nondecreasing(r_s),
                f"ternary {mode}: hulled frontier not concave and nondecreasing")

    def _ternary_fixed(self, b: Bench, seen: dict) -> None:
        pkg = self.bc.pkg
        grid = pkg.GridSpec(prob_step=self.size["general_frontier"], rd_step=TERNARY_RD_STEP)
        front = b.op(None, "ternary ds v=x", pkg.secrecy_frontier, *self.ternary, grid,
                     v_equals_x=True)
        if front is FAILED:
            return
        _, r_s = seen[("ternary", "v=x")] = _frontier_arrays(front)
        top = float(np.max(r_s))
        b.check(abs(top - self.ref_ternary_grid) <= EXCESS_TOL,
                f"ternary V = X: max {top:.9f} vs grid reference {self.ref_ternary_grid:.9f}")

    def _cli_path(self, mode: str):
        return self.out_dir / f"region-{mode[2:]}.csv"

    def _cli_region(self, mode: str, step: str):
        argv = ["region", mode, "--py", self.cli_specs[0], "--pz", self.cli_specs[1],
                "--grid-step", step, "--out", str(self._cli_path(mode))]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.bc.cli.main(argv)

    def _region_cli(self, b: Bench, k: int) -> None:
        mode = ("--ds", "--sim")[k % 2]
        rc = b.op("region_cli", f"bccrates region {mode}", self._cli_region, mode,
                  f"{self.size['region_cli']}")
        if rc is FAILED or not b.check(rc == 0, f"bccrates region {mode}: exit code {rc}"):
            return
        path = self._cli_path(mode)
        sidecar = path.with_name(path.name + ".meta.json")
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        with open(sidecar, encoding="utf-8") as fh:
            meta = json.load(fh)
        b.count("cli.bytes_written", path.stat().st_size + sidecar.stat().st_size)
        excess = float(np.max(data[:, 1] - self.ref_cli.value(data[:, 0])))
        b.check(header == "r_d_nats,r_s_nats", f"region CSV header {header!r}")
        b.check(excess <= EXCESS_TOL, f"region {mode} CSV above continuum ds by {excess:.3e}")
        b.check(_concave(data[:, 1]) and _nondecreasing(data[:, 1]),
                f"region {mode} CSV: frontier not concave and nondecreasing")
        b.check(meta.get("mode") == mode[2:], f"region sidecar mode {meta.get('mode')!r}")

    # queries -----------------------------------------------------------

    def _checks(self, b: Bench, item: dict) -> None:
        pkg = self.bc.pkg
        chain = item["chain"]
        verdict = b.op("checks", "check_rate_quad", pkg.check_rate_quad, chain,
                       pkg.RateQuad(*item["quad"]))
        b.count("checks", 1)
        if verdict is not FAILED:
            member = all(s >= -SLACK_TOL for s in item["slacks"].values())
            worst = max(abs(verdict.slack(k) - s) for k, s in item["slacks"].items())
            b.check(bool(verdict.is_member) == member and worst <= SLACK_TOL,
                    f"membership {item['quad']}: verdict {verdict.is_member}, "
                    f"reference {member}, slack difference {worst:.2e}")
        split = b.op("checks", "split_rates", pkg.split_rates, chain,
                     pkg.RateQuad(*item["split"]))
        b.count("checks", 1)
        if split is FAILED:
            return
        info = item["info"]
        _, _, r_1, r_s = item["split"]
        s = split.shifted
        worst = min(ref.inner_slacks(info, s.r_d, s.r_0, s.r_1, s.r_s).values())
        b.check(worst >= -SLACK_TOL, f"split {item['split']}: shifted quad outside the "
                                     f"inner region (slack {worst:.2e})")
        in_layer = r_1 + r_s <= info["i_vy_given_u"]
        expected = ("none" if in_layer and r_1 >= info["i_vz_given_u"]
                    else "dummy_to_private" if in_layer else "private_to_common")
        b.check(split.case == expected, f"split case {split.case!r}, expected {expected!r}")

    def _ordering_check(self, w_y, w_z):
        pkg = self.bc.pkg
        return (bool(pkg.is_degraded(w_y, w_z)),
                bool(pkg.is_more_capable(w_y, w_z, ORDERING_STEP)),
                bool(pkg.is_more_capable(w_z, w_y, ORDERING_STEP)))

    def _ordering(self, b: Bench, pair: dict) -> None:
        got = b.op("ordering", "ordering", self._ordering_check, *pair["pair"])
        if got is not FAILED:
            b.check(got == pair["want"], f"ordering {pair['pair']}: (degraded, "
                                         f"more capable, reverse) {got}, "
                                         f"reference {pair['want']}")

    def _min_dummy_value(self, b: Bench, value, r_s: float, label: str) -> float:
        v = math.inf if value is self.bc.pkg.INFEASIBLE else float(value)
        floor = self.ref_dummy.inverse(r_s)
        b.check(math.isfinite(v), f"min_dummy_rate {label} r_s={r_s:.4f}: infeasible")
        b.check(v >= floor - EXCESS_TOL,
                f"min_dummy_rate {label} r_s={r_s:.4f}: {v:.6f} below continuum {floor:.6f}")
        return v

    def _min_dummy(self, b: Bench, k: int, seen: dict) -> None:
        r_s = self.dummy_rates[k]
        v = b.op("min_dummy", "min_dummy_rate r0=0", self.bc.pkg.min_dummy_rate,
                 *self.dummy_pair, 0.0, r_s, self.dummy_grid)
        if v is not FAILED:
            seen[("min_dummy", k)] = self._min_dummy_value(b, v, r_s, "r0=0")

    def _min_dummy_common(self, b: Bench, k: int) -> None:
        k %= len(self.common_r0)
        r_0 = float(self.common_r0[k])
        v = b.op("min_dummy_common", "min_dummy_rate r0>0", self.bc.pkg.min_dummy_rate,
                 *self.dummy_pair, r_0, self.common_rs, self.dummy_grid)
        if v is not FAILED:
            self.common_values[k].add(self._min_dummy_value(b, v, self.common_rs,
                                                            f"r0={r_0:.4f}"))

    # codes -------------------------------------------------------------

    def _resolvability(self, b: Bench, r: int, k: int) -> None:
        pkg, sim = self.bc.pkg, self.bc.simulate
        n, m = self.res_configs[k % len(self.res_configs)]
        master = int(self.round_seed(r, k).generate_state(1)[0])
        res = b.op("resolvability", f"mc_resolvability n={n} m={m}", pkg.mc_resolvability,
                   self.prior, self.layer, self.w_z, n, m, m, RES_TRIALS, master,
                   units=RES_TRIALS)
        if res is FAILED:
            return
        values = np.asarray(res.values, dtype=float)
        b.count("trials", values.size)
        b.count("trials_exact", int(np.asarray(res.exact, dtype=bool).sum()))
        pooled = self.pooled[("res", n, m)]
        pooled[0] += float(values.sum())
        pooled[1] += values.size
        worst = 0.0
        for t, value in enumerate(values):
            book = sim.generate_super_codebook(self.prior, self.layer, n, m, m,
                                               seed=pkg.trial_seed(master, t))
            want = ref.output_divergence(book.x_words, self.w_z.matrix, self.p_x)
            worst = max(worst, abs(value - want) / max(1.0, want))
        b.check(worst <= 1e-9, f"mc_resolvability n={n} m={m}: divergence off the "
                               f"enumeration by {worst:.2e}")

    def _theta_bound(self, b: Bench, k: int) -> None:
        pkg = self.bc.pkg
        if k == len(self.res_configs):
            bound = b.op("theta_bound", "minimize_leakage_bound", pkg.minimize_leakage_bound,
                         BCC_N, BCC_SIZES[3], BCC_SIZES[1], self.bcc_chain)
            if bound is not FAILED:
                self.bounds["leakage"] = bound.total
            return
        n, m = self.res_configs[k]
        bound = b.op("theta_bound", "minimize_superposition_bound",
                     pkg.minimize_superposition_bound, n, m, m, self.w_z, self.layer,
                     self.prior)
        if bound is FAILED:
            return
        at_one = pkg.superposition_resolvability_bound(n, m, m, 1.0, 1.0, self.w_z,
                                                       self.layer, self.prior)
        b.check(bound.total <= at_one.total,
                f"optimised bound {bound.total} above its value at theta = 1")
        self.bounds[("res", n, m)] = bound.total

    def _bcc(self, b: Bench, r: int, k: int) -> None:
        pkg, sim = self.bc.pkg, self.bc.simulate
        master = int(self.round_seed(r, 100 + k).generate_state(1)[0])
        rep = b.op("bcc", "simulate_bcc", pkg.simulate_bcc, self.bcc_chain, BCC_SIZES, BCC_N,
                   trials=BCC_TRIALS, master_seed=master, units=BCC_TRIALS)
        if rep is FAILED:
            return
        leaks = np.asarray(rep.leakages, dtype=float)
        exact = all(rep.metadata.get(key) == "exact"
                    for key in ("bob_method", "eve_method", "leakage_method"))
        b.count("trials", leaks.size)
        b.count("trials_exact", leaks.size if exact else 0)
        pooled = self.pooled["leakage"]
        pooled[0] += float(leaks.sum())
        pooled[1] += leaks.size
        worst = 0.0
        for t, value in enumerate(leaks):
            book = sim.generate_bcc_codebook(self.bcc_chain, BCC_SIZES, BCC_N,
                                             seed=pkg.trial_seed(master, t))
            want = ref.leakage(book.x_words, self.w_z.matrix)
            worst = max(worst, abs(value - want) / max(1.0, want))
        b.check(worst <= 1e-9, f"simulate_bcc: leakage off the enumeration by {worst:.2e}")
        errors = np.concatenate([rep.bob_errors, rep.eve_errors])
        b.check(np.all((errors >= -1e-12) & (errors <= 1.0 + 1e-12)),
                "simulate_bcc: error rate outside [0, 1]")

    def _decoder(self, b: Bench) -> None:
        dec = b.op("decoder_bound", "decoder_error_bounds", self.bc.pkg.decoder_error_bounds,
                   DECODER_N, self.bcc_chain, BCC_SIZES[:3], self.decoder_alphas)
        if dec is FAILED:
            return
        got = {"layer": dec.tail_layer, "base": dec.tail_base, "common": dec.tail_common}
        for key, want in self.ref_decoder_tails.items():
            b.check(abs(got[key] - want) <= TAIL_TOL,
                    f"decoder tail {key}: {got[key]!r}, programme over sums {want!r}")

    def _mc_divergence(self, b: Bench, r: int, k: int) -> None:
        est = b.op("mc_divergence", f"mc_output_divergence n={MC_N}",
                   self.bc.simulate.mc_output_divergence, self.mc_book, self.w_z,
                   self.size["mc_divergence"], self.round_seed(r, 200 + k))
        if est is not FAILED:
            value, se = est
            self.mc_estimates.append(est)
            lo, hi = self.ref_mc_bracket
            b.check(math.isfinite(value) and se > 0.0
                    and lo - MC_SIGMAS * se <= value <= hi + MC_SIGMAS * se,
                    f"mc_output_divergence n={MC_N}: {value:.4f} +- {se:.4f} outside "
                    f"[{lo:.4f}, {hi:.4f}]")

    def _code_extras(self, b: Bench, r: int) -> None:
        pkg, sim = self.bc.pkg, self.bc.simulate
        book = sim.generate_bcc_codebook(self.bcc_chain, BCC_SIZES[:2] + (1,) + BCC_SIZES[3:],
                                         BCC_N, seed=self.round_seed(r, 300))
        leak = b.op(None, "single-message leakage", pkg.exact_leakage, book)
        if leak is not FAILED:
            b.check(leak == 0.0, f"single-message leakage {leak!r}, not exactly 0")

        tail = b.op(None, "iid_sum_tail at a tie", pkg.iid_sum_tail, self.tie_probs,
                    np.asarray(self.tie_values), 8, self.tie_threshold)
        if tail is not FAILED:
            b.check(abs(tail[0] - self.ref_tie_tail) <= TAIL_TOL,
                    f"iid_sum_tail at threshold {self.tie_threshold}: {tail[0]!r}, "
                    f"programme over sums {self.ref_tie_tail!r}")

        est = b.op(None, f"mc_output_divergence n={MC_CHECK_N}", sim.mc_output_divergence,
                   self.mc_check_book, self.w_z, MC_CHECK_SAMPLES, self.round_seed(r, 301))
        exact = sim.exact_output_divergence(self.mc_check_book, self.w_z)
        b.check(abs(exact - self.ref_mc_check) <= 1e-9 * max(1.0, exact),
                f"exact_output_divergence n={MC_CHECK_N}: {exact!r}, "
                f"enumeration {self.ref_mc_check!r}")
        if est is not FAILED:
            value, se = est
            b.check(abs(value - exact) <= MC_SIGMAS * se,
                    f"mc_output_divergence n={MC_CHECK_N}: {value:.5f} +- {se:.5f}, "
                    f"exact {exact:.5f}")

        # Counted as failed while the letter-probability product underflows
        # (math.log(0.0) in mc_output_divergence); its time enters no metric.
        est = b.op(None, f"mc_output_divergence n={MC_FAULT_N}", sim.mc_output_divergence,
                   self.mc_fault_book, self.w_z, MC_CHECK_SAMPLES, 0)
        if est is not FAILED:
            value, se = est
            lo, hi = self.ref_fault_bracket
            b.check(math.isfinite(value) and lo - MC_SIGMAS * se <= value <= hi + MC_SIGMAS * se,
                    f"mc_output_divergence n={MC_FAULT_N}: {value:.4f} +- {se:.4f} outside "
                    f"[{lo:.4f}, {hi:.4f}]")

    # checks across operations -----------------------------------------

    def _round_checks(self, b: Bench, seen: dict) -> None:
        for p, (y, z) in enumerate(PAPER_PAIRS):
            name = f"{y}/{z}"
            for mode in ("ds", "sim"):
                if (p, mode, False) in seen and (p, mode, True) in seen:
                    raw, hulled = seen[(p, mode, False)][1], seen[(p, mode, True)][1]
                    b.check(np.all(raw <= hulled + ORDER_TOL), f"{name} {mode}: raw above hull")
            for hull in (True, False):
                if (p, "ds", hull) in seen and (p, "sim", hull) in seen:
                    ds, sim = seen[(p, "ds", hull)][1], seen[(p, "sim", hull)][1]
                    b.check(np.all(sim <= ds + ORDER_TOL), f"{name} hull={hull}: sim above ds")
            if ((p, "ds", True) in seen and (p, "sim", True) in seen
                    and self.size["binary_frontier"] == GAP_STEP):
                r_d, ds = seen[(p, "ds", True)]
                gap_curve = ds - seen[(p, "sim", True)][1]
                gap = float(np.max(gap_curve))
                at = float(r_d[int(np.argmax(gap_curve))])
                lo, hi, ref_at = self.ref_pairs[p]["gap"]
                b.check(lo - GAP_TOL <= gap <= hi + GAP_TOL,
                        f"{name}: ds - sim gap {gap:.4e} at {at:.3f}, continuum "
                        f"[{lo:.4e}, {hi:.4e}] at {ref_at:.4f}")
                if lo > GAP_TOL:
                    b.check(abs(at - ref_at) <= float(r_d[1] - r_d[0]) + 1e-12,
                            f"{name}: gap at {at:.4f}, continuum gap at {ref_at:.4f}")
        if (0, "ds", True) in seen:
            # degraded BSC pair: plateau at the secrecy capacity h(0.2) - h(0.1)
            r_d, ds = seen[(0, "ds", True)]
            target = float(ref.binary_entropy(0.2) - ref.binary_entropy(0.1))
            onset = math.log(2.0) - float(ref.binary_entropy(0.2))
            plateau = ds[r_d >= onset + (r_d[1] - r_d[0])]
            b.check(plateau.size > 0 and np.all(np.abs(plateau - target) <= EXCESS_TOL)
                    and abs(float(ds.max()) - target) <= EXCESS_TOL,
                    f"bsc pair: plateau not at h(0.2) - h(0.1) = {target:.9f}")

        fixed = seen.get(("ternary", "v=x"))
        if ("ternary", "ds") in seen and fixed is not None:
            b.check(np.all(seen[("ternary", "ds")][1] >= fixed[1] - ORDER_TOL),
                    "ternary: free-prefix frontier below its V = X frontier")
        if ("ternary", "ds") in seen and ("ternary", "sim") in seen:
            b.check(np.all(seen[("ternary", "sim")][1]
                           <= seen[("ternary", "ds")][1] + ORDER_TOL), "ternary: sim above ds")

        values = [seen[("min_dummy", k)] for k in range(len(self.dummy_rates))
                  if ("min_dummy", k) in seen]
        b.check(values == sorted(values), f"min_dummy_rate decreasing in r_s: {values}")

    def finish(self, b: Bench) -> None:
        """Checks on figures pooled over the run's rounds."""
        if self.mc_estimates:
            # independent estimates on one codebook: their mean has standard
            # error sqrt(sum se^2) / count
            values, ses = np.asarray(self.mc_estimates).T
            mean, se = float(values.mean()), float(np.sqrt(np.sum(ses**2)) / ses.size)
            lo, hi = self.ref_mc_bracket
            b.check(lo - MC_SIGMAS * se <= mean <= hi + MC_SIGMAS * se,
                    f"mc_output_divergence n={MC_N}: pooled mean {mean:.4f} +- {se:.4f} "
                    f"outside [{lo:.4f}, {hi:.4f}]")
        low, high = self.common_values
        if low and high:
            b.check(len(low) == 1 and len(high) == 1 and max(low) <= min(high),
                    f"min_dummy_rate at r_0 = {self.common_r0} gives {low}, {high}: "
                    "not one nondecreasing value per r_0")
        for key, (total, count) in self.pooled.items():
            mean, bound = total / count, self.bounds.get(key, math.nan)
            b.check(mean <= bound, f"{key}: mean {mean:.6f} above its optimised bound "
                                   f"{bound:.6f}")
