import hashlib
import json
import math

import numpy as np
import pytest

from bccrates import (
    BccChain,
    Pmf,
    exponents,
    leakage_bound,
    resolvability_bound,
    regions,
    superposition_resolvability_bound,
)
from bccrates import cli
from bccrates.channels import (
    ChannelSpec,
    bec,
    bsc,
    load_channel_file,
    parse_channel,
    parse_pmf,
)
from bccrates.cli import main

from helpers import grid_frontier
from test_chain import _oracle_informations


class TestChannelSpecs:
    def test_bsc_expansion(self):
        np.testing.assert_array_equal(bsc(0.1).matrix, [[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ValueError):
            bsc(1.5)

    def test_bec_expansion(self):
        np.testing.assert_array_equal(
            bec(0.45).matrix, [[0.55, 0.0, 0.45], [0.0, 0.55, 0.45]])

    def test_shorthand_parsing(self):
        np.testing.assert_array_equal(parse_channel("bsc:0.2").matrix,
                                      bsc(0.2).matrix)
        np.testing.assert_array_equal(parse_channel("identity:3").matrix, np.eye(3))
        np.testing.assert_array_equal(parse_channel("row:0.25,0.75").matrix,
                                      [[0.25, 0.75]])
        with pytest.raises(ValueError):
            parse_channel("nosuch:1")
        with pytest.raises(ValueError):
            parse_channel("not-a-file")

    def test_json_files(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"kind": "bec", "params": {"delta": 0.3}}))
        np.testing.assert_array_equal(parse_channel(str(path)).matrix, bec(0.3).matrix)

        explicit = tmp_path / "explicit.json"
        explicit.write_text(json.dumps(
            {"kind": "explicit", "matrix": [[0.7, 0.3], [0.4, 0.6]]}))
        spec = load_channel_file(str(explicit))
        assert isinstance(spec, ChannelSpec)
        np.testing.assert_array_equal(spec.expand().matrix, [[0.7, 0.3], [0.4, 0.6]])

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": {}}))
        with pytest.raises(ValueError):
            load_channel_file(str(bad))

    def test_pmf_parsing(self):
        np.testing.assert_array_equal(parse_pmf("uniform:4").probs, np.full(4, 0.25))
        np.testing.assert_array_equal(parse_pmf("point:3:1").probs, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(parse_pmf("0.25,0.75").probs, [0.25, 0.75])
        assert isinstance(parse_pmf("0.5,0.5"), Pmf)

    def test_nan_pmf_is_invalid_configuration(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["exponent", "--kind", "single", "--pz", "bsc:0.2", "--px", "nan,1",
                     "--n", "4", "--out", str(out)])
        assert code == 2
        assert "not a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["uniform:0", "point:2:5", "point:2:-1"])
    def test_bad_pmf_spec_is_invalid_configuration(self, spec, tmp_path, capsys):
        with pytest.raises(ValueError):
            parse_pmf(spec)
        out = tmp_path / "sweep.csv"
        code = main(["exponent", "--kind", "single", "--pz", "bsc:0.2", "--px", spec,
                     "--n", "4", "--out", str(out)])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()


class TestCliRegion:
    def test_frontier_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "front.csv"
        code = main(["region", "--ds", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--grid-step", "0.05", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r_d_nats,r_s_nats"
        meta = json.loads((tmp_path / "front.csv.meta.json").read_text())
        assert meta["mode"] == "ds"
        assert meta["argv"]["grid_step"] == 0.05

    def test_byte_stable_across_runs(self, tmp_path):
        out = tmp_path / "front.csv"
        args = ["region", "--sim", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                "--grid-step", "0.05", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_sim_matches_ds_for_degraded_pair(self, tmp_path):
        ds_out = tmp_path / "ds.csv"
        sim_out = tmp_path / "sim.csv"
        main(["region", "--ds", "--py", "bsc:0.1", "--pz", "bsc:0.2",
              "--grid-step", "0.02", "--out", str(ds_out)])
        main(["region", "--sim", "--py", "bsc:0.1", "--pz", "bsc:0.2",
              "--grid-step", "0.02", "--out", str(sim_out)])
        ds = np.loadtxt(ds_out, delimiter=",", skiprows=1)
        sim = np.loadtxt(sim_out, delimiter=",", skiprows=1)
        assert np.all(sim[:, 1] <= ds[:, 1] + 1e-12)
        np.testing.assert_allclose(sim[:, 1], ds[:, 1], atol=0.04)

    def test_sidecar_keeps_general_sweep_backend(self, tmp_path):
        paths = []
        for name, matrix in (("y", [[0.85, 0.1, 0.05], [0.1, 0.7, 0.2], [0.05, 0.15, 0.8]]),
                             ("z", [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"kind": "explicit", "matrix": matrix}))
            paths.append(str(path))
        out = tmp_path / "tern.csv"
        code = main(["region", "--ds", "--py", paths[0], "--pz", paths[1],
                     "--grid-step", "0.25", "--out", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "tern.csv.meta.json").read_text())
        assert meta["backend"] == "python"
        assert meta["input_size"] == 3
        assert meta["argv"]["grid_step"] == 0.25

    def test_invalid_channel_exit_code(self, tmp_path):
        code = main(["region", "--ds", "--py", "bsc:0.1", "--pz", "noway:9",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_guard_exit_code(self, tmp_path):
        # ternary inputs at a fine grid exceed the general-sweep guard
        chan = tmp_path / "tern.json"
        chan.write_text(json.dumps(
            {"kind": "explicit", "matrix": [[0.8, 0.1, 0.1],
                                            [0.1, 0.8, 0.1],
                                            [0.1, 0.1, 0.8]]}))
        code = main(["region", "--ds", "--py", str(chan), "--pz", str(chan),
                     "--grid-step", "0.01", "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_v_eq_x_guard_exit_code(self, tmp_path, capsys):
        # binary V = X frontiers are held to the guard as well: k = 5,000,000
        # gives 5,000,001 input laws
        out = tmp_path / "x.csv"
        code = main(["region", "--ds", "--v-eq-x", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--grid-step", "2e-7", "--rd-step", "0.1", "--out", str(out)])
        assert code == 3
        assert "envelope lattice needs 5000001 input laws" in capsys.readouterr().err
        assert not out.exists()


GRID_COMMANDS = {
    "region": ["region", "--ds", "--py", "bsc:0.1", "--pz", "bsc:0.2", "--grid-step", "0.05"],
    "min-randomness": ["check", "min-randomness", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                       "--r0", "0", "--rs", "0.1", "--grid-step", "0.05"],
}


class TestCliGridValues:
    @pytest.mark.parametrize("option", ["--rd-step", "--rd-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    def test_non_finite_budget_axis_is_invalid(self, command, option, value, tmp_path, capsys):
        out = tmp_path / "x.out"
        code = main([*GRID_COMMANDS[command], f"{option}={value}", "--out", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    def test_fine_budget_axis_trips_guard(self, command, tmp_path, capsys):
        out = tmp_path / "x.out"
        code = main([*GRID_COMMANDS[command], "--rd-step", "1e-9", "--out", str(out)])
        assert code == 3
        assert "budget axis" in capsys.readouterr().err
        assert not out.exists()


class TestCliExponent:
    def test_sweep_csv_properties(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["exponent", "--kind", "super", "--pz", "bsc:0.2",
                     "--pv", "uniform:2", "--pxv", "bsc:0.1", "--n", "4",
                     "--m1", "4", "--m2", "4", "--theta-step", "0.05",
                     "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape[1] == 4
        np.testing.assert_allclose(rows[:, 3], rows[:, 1] + rows[:, 2], atol=1e-12)
        meta = json.loads((out.parent / "sweep.csv.meta.json").read_text())
        assert "decay_certificate" in meta

    def test_no_certificate_status(self, tmp_path):
        # single-codeword rate 0 sits below the channel information
        out = tmp_path / "sweep.csv"
        code = main(["exponent", "--kind", "single", "--pz", "bsc:0.2",
                     "--px", "uniform:2", "--n", "4", "--size", "1",
                     "--out", str(out)])
        assert code == 0
        meta = json.loads((out.parent / "sweep.csv.meta.json").read_text())
        assert meta["decay_certificate"]["term1"] is False

    def test_certificate_checks_every_theta(self, tmp_path):
        # E(theta)/theta <= log(m1)/n holds at theta = 0.01 (margin -0.0098),
        # but not at theta = 0.29, where term 1 of the bound is smallest
        # (margin +0.0113); the certificate asks for some swept theta
        out = tmp_path / "sweep.csv"
        code = main(["exponent", "--kind", "super", "--pz", "bsc:0.2",
                     "--pv", "uniform:2", "--pxv", "bsc:0.1", "--n", "100",
                     "--m1", "4096", "--out", str(out)])
        assert code == 0
        meta = json.loads((out.parent / "sweep.csv.meta.json").read_text())
        assert meta["decay_certificate"] == {"term1": True, "term2": False}

    @pytest.mark.parametrize("step", ["0", "-0.1", "2"])
    def test_theta_step_outside_unit_interval_is_invalid(self, step, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["exponent", "--pz", "bsc:0.2", "--n", "4", f"--theta-step={step}",
                     "--out", str(out)])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,sizes,bound", [
        ("single", ["--size", "1000000000"],
         lambda t: resolvability_bound(100, 10**9, t, bsc(0.2), Pmf.uniform(2))),
        ("super", ["--m1", "4096", "--m2", "4"],
         lambda t: superposition_resolvability_bound(100, 4096, 4, t, t, bsc(0.2),
                                                     bsc(0.1), Pmf.uniform(2))),
        ("bcc", ["--size-a", "4096", "--size-l", "64"],
         lambda t: leakage_bound(100, 4096, 64, t, t, BccChain(
             Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2)))),
    ])
    def test_certificate_agrees_with_bound_reports(self, kind, sizes, bound, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--kind", kind, "--pz", "bsc:0.2", "--n", "100",
                     "--theta-step", "0.05", *sizes, "--out", str(out)]) == 0
        meta = json.loads((out.parent / "sweep.csv.meta.json").read_text())
        thetas = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        reports = [bound(float(t)) for t in thetas]
        want = [any(rep.decays[i] for rep in reports) for i in range(len(reports[0].sizes))]
        assert list(meta["decay_certificate"].values()) == want

    @pytest.mark.parametrize("kind,terms", [
        ("single", lambda: exponents._resolvability_terms(4, bsc(0.2), Pmf.uniform(2))),
        ("super", lambda: exponents._superposition_terms(4, 4, bsc(0.2), bsc(0.1),
                                                         Pmf.uniform(2))),
        ("bcc", lambda: exponents._leakage_terms(4, 4, BccChain(
            Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2)))),
    ])
    def test_fine_sweep_rows_match_per_theta_evaluation(self, kind, terms, tmp_path):
        # 100 rows from one exponent table per term, theta = 1 among them,
        # against the bound evaluated at one theta at a time
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--kind", kind, "--pz", "bsc:0.2", "--n", "6",
                     "--theta-step", "0.01", "--out", str(out)]) == 0
        thetas = exponents._theta_grid(0.01).tolist()
        assert len(thetas) == 100 and thetas[-1] == 1.0
        want = []
        for t in thetas:
            rep = exponents._evaluate(6, terms(), (t,) * len(terms()))
            want.append(",".join(repr(c) for c in (rep.theta, rep.term1, rep.term2, rep.total)))
        assert out.read_text().splitlines()[1:] == want

    def test_overflowing_bound_exits_ok(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["exponent", "--kind", "single", "--pz", "bsc:0.01", "--n", "5000",
                     "--size", "1", "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[-1, 1] == math.inf

    def test_bcc_kind(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["exponent", "--kind", "bcc", "--pz", "bsc:0.2",
                     "--py", "bsc:0.1", "--pu", "uniform:2", "--pvu", "bsc:0.25",
                     "--pxv", "bsc:0.1", "--n", "6", "--size-a", "8",
                     "--size-l", "8", "--out", str(out)])
        assert code == 0


class TestCliSimulate:
    def test_resolvability_run_deterministic(self, tmp_path):
        out = tmp_path / "sim.csv"
        args = ["simulate", "resolvability", "--pz", "bsc:0.2", "--pv", "uniform:2",
                "--pxv", "bsc:0.1", "--n", "4", "--m1", "4", "--m2", "4",
                "--trials", "10", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,divergence_nats"

    def test_resolvability_guard_exit(self, tmp_path):
        args = ["simulate", "resolvability", "--pz", "bsc:0.2", "--pv", "uniform:2",
                "--pxv", "bsc:0.1", "--n", "24", "--m1", "2", "--m2", "2",
                "--trials", "1", "--seed", "0", "--out", str(tmp_path / "x.csv")]
        assert main(args) == 3

    def test_resolvability_mc_escape_hatch(self, tmp_path):
        out = tmp_path / "mc.csv"
        args = ["simulate", "resolvability", "--pz", "bsc:0.2", "--pv", "uniform:2",
                "--pxv", "bsc:0.1", "--n", "24", "--m1", "2", "--m2", "2",
                "--trials", "2", "--seed", "0", "--mc", "--mc-samples", "500",
                "--out", str(out)]
        assert main(args) == 0
        meta = json.loads((tmp_path / "mc.csv.meta.json").read_text())
        assert meta["method"] == "monte_carlo_output_sampling"

    @pytest.mark.parametrize("extra", [[], ["--n", "40", "--mc", "--mc-samples", "10"]],
                             ids=["exact", "mc"])
    def test_resolvability_without_trials_is_invalid(self, extra, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["simulate", "resolvability", "--pz", "bsc:0.2", "--n", "4",
                     "--m1", "2", "--m2", "2", "--trials", "0", *extra, "--out", str(out)])
        assert code == 2
        assert "need at least one trial" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["resolvability", "--pz", "bsc:0.2", "--n", "4", "--m1", "0", "--m2", "2"],
        ["resolvability", "--pz", "bsc:0.2", "--n", "4", "--m1", "2", "--m2", "-1"],
        ["bcc", "--py", "bsc:0.1", "--pz", "bsc:0.2", "--sizes", "2,0,2,2", "--n", "4"]],
        ids=["m1", "m2", "bcc"])
    def test_empty_layer_is_invalid(self, argv, tmp_path, capsys):
        # an empty layer gives a block no table entries; the codebook draw
        # refuses it, and it is not a numerical failure
        out = tmp_path / "x.csv"
        code = main(["simulate", *argv, "--trials", "2", "--out", str(out)])
        assert code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_resolvability_sidecars_share_their_keys(self, tmp_path):
        base = ["simulate", "resolvability", "--pz", "bsc:0.2", "--m1", "2", "--m2", "2",
                "--trials", "2", "--seed", "5"]
        assert main(base + ["--n", "4", "--out", str(tmp_path / "e.csv")]) == 0
        assert main(base + ["--n", "24", "--mc", "--mc-samples", "50",
                            "--out", str(tmp_path / "m.csv")]) == 0
        exact = json.loads((tmp_path / "e.csv.meta.json").read_text())
        mc = json.loads((tmp_path / "m.csv.meta.json").read_text())
        shared = {"m1": 2, "m2": 2, "trials": 2, "master_seed": 5}
        assert {key: exact[key] for key in ("n", *shared)} == {"n": 4, **shared}
        assert {key: mc[key] for key in ("n", *shared)} == {"n": 24, **shared}
        assert exact["method"] == "exact_enumeration_per_trial"
        assert mc["method"] == "monte_carlo_output_sampling"
        assert mc["mc_samples"] == 50 and "mc_samples" not in exact
        assert len(mc["mc_stderr"]) == 2 and all(se > 0.0 for se in mc["mc_stderr"])
        assert "mc_stderr" not in exact

    def test_bcc_run_with_huge_threshold(self, tmp_path):
        # e^{800} overflows a float; the exact decoders compare logs, erase
        # every sequence and err on the 7 of 8 triples that are not the first
        out = tmp_path / "bcc.csv"
        code = main(["simulate", "bcc", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--pu", "uniform:2", "--pvu", "bsc:0.25", "--pxv", "bsc:0.1",
                     "--sizes", "2,2,2,2", "--n", "4", "--trials", "2", "--seed", "7",
                     "--alphas", "0,800,0", "--out", str(out)])
        assert code == 0
        mean = out.read_text().splitlines()[-1].split(",")
        assert float(mean[1]) == pytest.approx(0.875, abs=1e-12)

    @pytest.mark.parametrize("option", [["--delta", "nan"], ["--alphas", "nan,0,0"]])
    def test_bcc_run_with_nan_threshold_is_invalid(self, option, tmp_path, capsys):
        # a nan threshold fails every test, so every decoder would erase
        out = tmp_path / "bcc.csv"
        code = main(["simulate", "bcc", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--sizes", "2,2,2,2", "--n", "4", "--trials", "2", *option,
                     "--out", str(out)])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
    def test_bcc_run_with_non_finite_delta_is_invalid(self, delta, tmp_path, capsys):
        # given thresholds leave delta unused, but the sidecar records it, and
        # JSON has no non-finite numbers
        out = tmp_path / "bcc.csv"
        code = main(["simulate", "bcc", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--sizes", "2,2,2,2", "--n", "4", "--trials", "2",
                     "--alphas", "0,0,0", f"--delta={delta}", "--out", str(out)])
        assert code == 2
        assert "delta must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bcc_sidecar_is_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-finite JSON number {constant}")

        out = tmp_path / "bcc.csv"
        assert main(["simulate", "bcc", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--sizes", "2,2,2,2", "--n", "4", "--trials", "2",
                     "--alphas", "0,0,0", "--delta", "0.1", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "bcc.csv.meta.json").read_text(), parse_constant=reject)
        assert meta["delta"] == 0.1 and meta["alphas"] == [0.0, 0.0, 0.0]

    def test_bcc_run(self, tmp_path):
        out = tmp_path / "bcc.csv"
        code = main(["simulate", "bcc", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--pu", "uniform:2", "--pvu", "bsc:0.25", "--pxv", "bsc:0.1",
                     "--sizes", "2,4,2,4", "--n", "6", "--trials", "5",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,bob_error,eve_error,leakage_nats"
        assert lines[-1].startswith("mean,")


class TestCliCheck:
    def test_membership_with_nan_layer_is_invalid(self, capsys):
        code = main(["check", "membership", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--pvu", "row:nan,1", "--quad", "0,0,0,0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not a number" in captured.err

    @pytest.mark.parametrize("quad", ["inf,0,0,0", "0,0,inf,0", "0,0,0,nan"])
    def test_membership_with_non_finite_rate_is_invalid(self, quad, capsys):
        # an infinite rate would print Infinity slacks, which JSON does not have
        code = main(["check", "membership", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--quad", quad])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err

    def test_membership(self, capsys):
        code = main(["check", "membership", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--quad", "0.192745,0,0,0.175319"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["member"] is True
        assert payload["violated"] == []

    def test_ordering_verdicts(self, capsys):
        code = main(["check", "ordering", "--py", "bsc:0.11", "--pz", "bec:0.45",
                     "--grid-step", "0.01"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["more_capable_receiver_over_eavesdropper"] is False
        assert payload["more_capable_eavesdropper_over_receiver"] is True
        degraded = payload["eavesdropper_degraded_from_receiver"]
        assert degraded["verdict"] is False
        assert degraded["method"] == "exact"
        assert degraded["residual"] > 1e-9
        assert degraded["intermediate"] is None

    def test_ordering_with_three_outputs_each(self, capsys):
        # both channels ternary: a grid over intermediates at step 0.05 needs 231^3 candidates
        code = main(["check", "ordering", "--py", "bec:0.2", "--pz", "bec:0.5"])
        assert code == 0
        degraded = json.loads(capsys.readouterr().out)["eavesdropper_degraded_from_receiver"]
        assert degraded["verdict"] is True
        assert degraded["residual"] <= 1e-9
        np.testing.assert_allclose(bec(0.2).matrix @ np.array(degraded["intermediate"]),
                                   bec(0.5).matrix, rtol=0.0, atol=1e-9)
        code = main(["check", "ordering", "--py", "bec:0.5", "--pz", "bec:0.2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)[
            "eavesdropper_degraded_from_receiver"]["verdict"] is False

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def fail(a, b):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(regions, "_nnls", fail)
        code = main(["check", "ordering", "--py", "bec:0.2", "--pz", "bec:0.5"])
        assert code == 5
        captured = capsys.readouterr()
        assert "numerical failure: did not converge" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("step", ["0", "-0.5", "2", "nan"])
    def test_ordering_grid_step_outside_half_unit_is_invalid(self, step, capsys):
        code = main(["check", "ordering", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     f"--grid-step={step}"])
        assert code == 2
        captured = capsys.readouterr()
        assert "invalid configuration" in captured.err
        assert captured.out == ""

    def test_split(self, capsys):
        code = main(["check", "split", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--quad", "0.2,0,0,0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "dummy_to_private"
        assert payload["shift"]["r_d"] == pytest.approx(
            math.log(2) - (-0.2 * math.log(0.2) - 0.8 * math.log(0.8)), abs=1e-9)

    @pytest.mark.parametrize("what", ["membership", "split"])
    @pytest.mark.parametrize("quad", ["0.2,0,0", "0.2,0,0,0.1,0", "0.2,x,0,0.1"])
    def test_malformed_quad_is_invalid_configuration(self, what, quad, capsys):
        code = main(["check", what, "--py", "bsc:0.1", "--pz", "bsc:0.2", "--quad", quad])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_min_randomness_infeasible_exit(self, capsys):
        code = main(["check", "min-randomness", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--r0", "0", "--rs", "0.5", "--grid-step", "0.02"])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False

    @pytest.mark.parametrize("r0,rs", [("0", "nan"), ("nan", "0.1")])
    def test_min_randomness_nan_rate_is_invalid(self, r0, rs, capsys):
        code = main(["check", "min-randomness", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--r0", r0, "--rs", rs, "--grid-step", "0.02"])
        assert code == 2
        captured = capsys.readouterr()
        assert "invalid configuration" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("r0, rs, code, method", [
        ("0", "0.1", 0, "envelope_inverse"), ("0", "0.5", 4, "envelope_inverse"),
        ("0.05", "0.02", 0, "pair_search"), ("0.3", "0", 4, "pair_search")])
    def test_min_randomness_reports_method(self, r0, rs, code, method, capsys):
        # r_0 = 0 inverts the envelope frontier of the binary pair; r_0 > 0
        # searches mixtures
        assert main(["check", "min-randomness", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--r0", r0, "--rs", rs, "--grid-step", "0.02"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == method
        assert payload["feasible"] is (code == 0)
        # the envelope reports its input laws m / k^2, k = 1 / 0.02
        assert payload.get("x_points") == (2501 if method == "envelope_inverse" else None)

    @pytest.mark.parametrize("rs, code", [("0", 0), ("0.5", 4)])
    def test_min_randomness_reports_grid_inverse_for_ternary(self, rs, code, capsys):
        assert main(["check", "min-randomness", "--py", "identity:3", "--pz", "identity:3",
                     "--r0", "0", "--rs", rs, "--grid-step", "0.5"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "frontier_inverse" and "x_points" not in payload
        assert payload["feasible"] is (code == 0)

    def test_min_randomness_envelope_guard_exit(self, capsys):
        # k = 2,500 gives 6,250,001 input laws, above the cell guard
        assert main(["check", "min-randomness", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--r0", "0", "--rs", "0.1", "--grid-step", "0.0004"]) == 3
        assert "envelope lattice" in capsys.readouterr().err

    def test_min_randomness_feasible(self, capsys):
        code = main(["check", "min-randomness", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                     "--r0", "0", "--rs", "0.1", "--grid-step", "0.02"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["min_r_d_nats"] >= 0.0


@pytest.mark.parametrize("name,argv,digest", [
    ("front", ["region", "--ds", "--py", "bsc:0.1", "--pz", "bsc:0.2",
               "--grid-step", "0.05"],
     "8c5e522622f23cf5ef88026cc40362c33b9c821aec3ba5ef0a879d95d0c91eb7"),
    ("exp", ["exponent", "--kind", "super", "--pz", "bsc:0.2", "--n", "6",
             "--theta-step", "0.05"],
     "d93a2294b8378f2b1ccd9b1e0830028e45d4b103cf300cff6f2518e36f67fd42"),
    ("res", ["simulate", "resolvability", "--pz", "bsc:0.2", "--n", "4",
             "--m1", "4", "--m2", "4", "--trials", "6", "--seed", "3"],
     "35331db3b04a963e6c0c113b8a0fd8aed2416459c8b3cad590c66c44be772733"),
    ("bcc", ["simulate", "bcc", "--py", "bsc:0.1", "--pz", "bsc:0.2", "--pu", "uniform:2",
             "--pvu", "bsc:0.25", "--pxv", "bsc:0.1", "--sizes", "2,4,2,4", "--n", "6",
             "--trials", "4", "--seed", "1"],
     "959b4f1d40410bf96f04c0976c6c75829e572bafd8a138fcdc87593b3e25978a"),
    ("exp_single", ["exponent", "--kind", "single", "--pz", "bsc:0.2", "--px", "0.3,0.7",
                    "--n", "6", "--size", "8", "--theta-step", "0.05"],
     "1f3038caf97005d97f4018340eb907bf00e216ed4e5928020fe2445f9c7df62f"),
    ("exp_bcc", ["exponent", "--kind", "bcc", "--pz", "bsc:0.2", "--py", "bsc:0.1",
                 "--pu", "0.4,0.6", "--pvu", "bsc:0.25", "--pxv", "bsc:0.1", "--n", "6",
                 "--size-a", "8", "--size-l", "4", "--theta-step", "0.05"],
     "296c3441d3b0f4dbb4c217e2c9c5d37027c35d5ec110b93771181a70cbca4eab"),
    # the lattice frontiers of binary inputs with a free prefix
    ("front_lattice", ["region", "--ds", "--py", "bsc:0.1", "--pz", "bsc:0.2",
                       "--grid-step", "0.05"],
     "12e84afe8191e3b6bf7401714f6300759d6d79dc50949218c1740c045de9952c"),
    ("front_sim", ["region", "--sim", "--py", "bsc:0.11", "--pz", "bec:0.45",
                   "--grid-step", "0.05"],
     "8c1b23ece3f00d9a6a650f5f7e9db9048cd83506bcd5753999735ffcddbe05a0"),
])
def test_csv_and_sidecar_bytes_golden(name, argv, digest, tmp_path, monkeypatch):
    # SHA-256 of the CSV bytes followed by the sidecar bytes; the sidecar
    # echoes argv, so --out is relative to a fixed working directory.  The
    # "front" digest is the grid sweep's, which stays the lattice's oracle
    monkeypatch.chdir(tmp_path)
    if name == "front":
        monkeypatch.setattr(cli, "secrecy_frontier",
                            lambda w_y, w_z, grid, v_equals_x, hull:
                            grid_frontier(w_y, w_z, grid, "ds", v_equals_x, hull))
    assert main(argv + ["--out", f"{name}.csv"]) == 0
    data = (tmp_path / f"{name}.csv").read_bytes() \
        + (tmp_path / f"{name}.csv.meta.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_bcc_csv_bytes_and_sidecar_alphas(tmp_path, monkeypatch):
    # the golden "bcc" case: its CSV bytes alone, and the thresholds its
    # sidecar echoes, n * (I - delta), against the joint-law informations
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "bcc", "--py", "bsc:0.1", "--pz", "bsc:0.2", "--pu", "uniform:2",
            "--pvu", "bsc:0.25", "--pxv", "bsc:0.1", "--sizes", "2,4,2,4", "--n", "6",
            "--trials", "4", "--seed", "1", "--out", "bcc.csv"]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "bcc.csv").read_bytes()).hexdigest() == \
        "3976478603dbcf2a69bf50c860001fbbdeae6b1862f0e65d8b0883949152a8af"
    meta = json.loads((tmp_path / "bcc.csv.meta.json").read_text())
    chain = BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2))
    info = _oracle_informations(chain)
    expected = [6 * (term - 0.05) for term in (info.i_uz, info.i_vy_given_u, info.i_vy)]
    assert meta["alphas"] == pytest.approx(expected, rel=0.0, abs=1e-14)
