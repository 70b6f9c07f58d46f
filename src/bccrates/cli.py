"""Command-line surface.

Subcommands: ``region`` (frontier CSV), ``exponent`` (bound sweep CSV),
``simulate`` (codebook simulations), ``check`` (membership, orderings,
rate splitting, minimum randomness).  Every output file gets a
``.meta.json`` sidecar echoing the configuration so runs are reproducible
byte for byte.  Exit codes: 0 success, 2 invalid configuration, 3 size
guard exceeded, 4 infeasible query.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .chain import BccChain
from .channels import parse_channel, parse_pmf
from .exponents import (
    leakage_bound,
    resolvability_bound,
    resolvability_exponent,
    superposition_exponent,
    superposition_resolvability_bound,
)
from .frontier import GridSpec, secrecy_frontier, secrecy_frontier_sim
from .probability import GuardExceeded
from .regions import (
    INFEASIBLE,
    RateQuad,
    check_rate_quad,
    is_degraded,
    is_more_capable,
    min_dummy_rate,
    split_rates,
)
from .simulate import (
    OUTPUT_ENUM_GUARD,
    SimResult,
    generate_super_codebook,
    mc_output_divergence,
    mc_resolvability,
    simulate_bcc,
    trial_seed,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_GUARD = 3
EXIT_INFEASIBLE = 4


class InfeasibleQuery(RuntimeError):
    pass


def _grid_from_args(args) -> GridSpec:
    return GridSpec(prob_step=args.grid_step, rd_step=args.rd_step, rd_max=args.rd_max)


def _chain_from_args(args) -> BccChain:
    return BccChain(
        p_u=parse_pmf(args.pu),
        p_v_given_u=parse_channel(args.pvu),
        p_x_given_v=parse_channel(args.pxv),
        w_y=parse_channel(args.py),
        w_z=parse_channel(args.pz),
    )


def _add_chain_args(parser) -> None:
    parser.add_argument("--pu", default="uniform:1", help="common-layer prior (pmf)")
    parser.add_argument("--pvu", default="row:0.5,0.5", help="V|U layer (channel spec)")
    parser.add_argument("--pxv", default="identity:2", help="X|V layer (channel spec)")
    parser.add_argument("--py", required=True, help="receiver channel")
    parser.add_argument("--pz", required=True, help="eavesdropper channel")


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta(args, extra: dict) -> dict:
    payload = {"tool": "bccrates", "version": __version__, "argv": vars(args).copy()}
    payload["argv"].pop("func", None)
    payload.update(extra)
    return payload


def _cmd_region(args) -> int:
    w_y = parse_channel(args.py)
    w_z = parse_channel(args.pz)
    grid = _grid_from_args(args)
    fn = secrecy_frontier_sim if args.sim else secrecy_frontier
    frontier = fn(w_y, w_z, grid, v_equals_x=args.v_eq_x, hull=not args.no_hull)
    frontier = dataclasses.replace(frontier,
                                   provenance={**_meta(args, {}), **frontier.provenance})
    frontier.write_csv(args.out)
    print(f"wrote {len(frontier.points)} frontier points to {args.out} "
          f"(max r_s = {float(frontier.r_s[-1]):.6f} nats)")
    return EXIT_OK


def _cmd_exponent(args) -> int:
    thetas = np.round(np.arange(1, int(round(1.0 / args.theta_step)) + 1)
                      * args.theta_step, 12)
    thetas = thetas[thetas <= 1.0 + 1e-12]
    w_z = parse_channel(args.pz)
    rows = []
    if args.kind == "single":
        p_x = parse_pmf(args.px)
        for t in thetas:
            rep = resolvability_bound(args.n, args.size, float(t), w_z, p_x)
            rows.append((float(t), rep.term1, rep.term2, rep.total))
        rate = np.log(args.size) / args.n
        certs = {"term1": bool(any(
            resolvability_exponent(float(t), w_z, p_x) / float(t) <= rate + 1e-12
            for t in thetas))}
    elif args.kind == "super":
        p_v = parse_pmf(args.pv)
        p_x_given_v = parse_channel(args.pxv)
        for t in thetas:
            rep = superposition_resolvability_bound(
                args.n, args.m1, args.m2, float(t), float(t), w_z, p_x_given_v, p_v)
            rows.append((float(t), rep.term1, rep.term2, rep.total))
        cascade = p_x_given_v.compose(w_z)
        r1, r2 = np.log(args.m1) / args.n, np.log(args.m2) / args.n
        certs = {
            "term1": bool(any(
                superposition_exponent(float(t), w_z, p_x_given_v, p_v) / float(t)
                <= r1 + 1e-12 for t in thetas)),
            "term2": bool(any(
                resolvability_exponent(float(t), cascade, p_v) / float(t)
                <= r2 + 1e-12 for t in thetas)),
        }
    else:  # bcc
        chain = _chain_from_args(args)
        for t in thetas:
            rep = leakage_bound(args.n, args.size_a, args.size_l, float(t), float(t), chain)
            rows.append((float(t), rep.term1, rep.term2, rep.total))
        ra = np.log(args.size_a) / args.n
        rl = np.log(args.size_l) / args.n
        certs = {
            "term1": bool(any(
                superposition_exponent(float(t), chain.w_z, chain.p_x_given_v, chain.p_v)
                / float(t) <= ra + 1e-12 for t in thetas)),
            "term2": bool(any(
                superposition_exponent(float(t), chain.p_z_given_v, chain.p_v_given_u,
                                       chain.p_u) / float(t) <= rl + 1e-12
                for t in thetas)),
        }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta,term1,term2,total\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    with open(f"{args.out}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(_meta(args, {"decay_certificate": certs}), fh, indent=2,
                  sort_keys=True, default=str)
        fh.write("\n")
    status = "certified" if all(certs.values()) else "no decay certificate"
    print(f"wrote {len(rows)} theta rows to {args.out} ({status})")
    return EXIT_OK


def _cmd_simulate_resolvability(args) -> int:
    p_v = parse_pmf(args.pv)
    p_x_given_v = parse_channel(args.pxv)
    w_z = parse_channel(args.pz)
    if args.mc and w_z.output_size**args.n > OUTPUT_ENUM_GUARD:
        values = np.empty(args.trials)
        for t in range(args.trials):
            book = generate_super_codebook(p_v, p_x_given_v, args.n, args.m1, args.m2,
                                           seed=trial_seed(args.seed, t))
            values[t], _ = mc_output_divergence(
                book, w_z, samples=args.mc_samples,
                seed=np.random.SeedSequence((args.seed, t, 1)))
        result = SimResult(values=values, exact=np.zeros(args.trials, dtype=bool),
                           metadata={"method": "monte_carlo_output_sampling",
                                     "mc_samples": args.mc_samples})
    else:
        result = mc_resolvability(p_v, p_x_given_v, w_z,
                                  args.n, args.m1, args.m2, args.trials, args.seed)
    result.metadata.update(_meta(args, {}))
    result.write_csv(args.out)
    print(f"mean divergence {result.mean:.6f} nats over {result.trials} trials "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_simulate_bcc(args) -> int:
    chain = _chain_from_args(args)
    sizes = tuple(int(v) for v in args.sizes.split(","))
    if len(sizes) != 4:
        raise ValueError("--sizes expects K,L,S,A")
    alphas = None
    if args.alphas:
        alphas = tuple(float(v) for v in args.alphas.split(","))
        if len(alphas) != 3:
            raise ValueError("--alphas expects a0,a1,a2")
    report = simulate_bcc(chain, sizes, args.n, alphas=alphas, delta=args.delta,
                          trials=args.trials, master_seed=args.seed,
                          allow_mc=args.mc)
    report.metadata.update(_meta(args, {}))
    report.write_csv(args.out)
    print(f"bob_err {report.mean_bob_error:.4f}  eve_err {report.mean_eve_error:.4f}  "
          f"leakage {report.mean_leakage:.6f} nats -> {args.out}")
    return EXIT_OK


def _cmd_check_membership(args) -> int:
    chain = _chain_from_args(args)
    quad = tuple(float(v) for v in args.quad.split(","))
    if len(quad) != 4:
        raise ValueError("--quad expects r_d,r_0,r_1,r_s")
    verdict = check_rate_quad(chain, RateQuad(*quad))
    _write_json({
        "member": verdict.is_member,
        "slacks": {c.name: c.slack for c in verdict.constraints},
        "violated": list(verdict.violated()),
    }, args.out)
    return EXIT_OK


def _cmd_check_ordering(args) -> int:
    w_y = parse_channel(args.py)
    w_z = parse_channel(args.pz)
    degraded = is_degraded(w_y, w_z)
    payload = {
        "more_capable_receiver_over_eavesdropper": is_more_capable(w_y, w_z, args.grid_step),
        "more_capable_eavesdropper_over_receiver": is_more_capable(w_z, w_y, args.grid_step),
        "eavesdropper_degraded_from_receiver": {
            "verdict": degraded.degraded,
            "method": degraded.method,
            "intermediate": degraded.intermediate.matrix.tolist()
            if degraded.intermediate is not None else None,
        },
    }
    _write_json(payload, args.out)
    return EXIT_OK


def _cmd_check_split(args) -> int:
    chain = _chain_from_args(args)
    quad = tuple(float(v) for v in args.quad.split(","))
    split = split_rates(chain, RateQuad(*quad))
    _write_json({
        "case": split.case,
        "shift": {"r_d": split.r_d, "r_0": split.r_0, "r_s": split.r_s},
        "shifted_quad": {
            "r_d": split.shifted.r_d, "r_0": split.shifted.r_0,
            "r_1": split.shifted.r_1, "r_s": split.shifted.r_s,
        },
    }, args.out)
    return EXIT_OK


def _cmd_check_min_randomness(args) -> int:
    value = min_dummy_rate(parse_channel(args.py), parse_channel(args.pz),
                           args.r0, args.rs, _grid_from_args(args))
    if value is INFEASIBLE:
        _write_json({"feasible": False, "min_r_d_nats": None}, args.out)
        raise InfeasibleQuery("requested rates are infeasible on the search grid")
    _write_json({"feasible": True, "min_r_d_nats": value}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bccrates",
        description="Rate regions and finite-blocklength bounds for broadcast "
                    "channels with confidential messages under a randomness budget. "
                    "All rates are in nats.",
    )
    parser.add_argument("--version", action="version", version=f"bccrates {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="compute a (r_d, r_s) frontier CSV")
    mode = region.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ds", action="store_true",
                      help="frontier with the channel-input randomness cost")
    mode.add_argument("--sim", action="store_true",
                      help="inner-bound frontier with the prefix-simulation cost")
    region.add_argument("--py", required=True)
    region.add_argument("--pz", required=True)
    region.add_argument("--grid-step", type=float, default=0.005)
    region.add_argument("--rd-step", type=float, default=None)
    region.add_argument("--rd-max", type=float, default=None)
    region.add_argument("--v-eq-x", action="store_true",
                        help="restrict the search to chains with no prefix layer")
    region.add_argument("--no-hull", action="store_true",
                        help="skip the time-sharing hull step")
    region.add_argument("--out", required=True)
    region.set_defaults(func=_cmd_region)

    exponent = sub.add_parser("exponent", help="theta sweep of a divergence bound")
    exponent.add_argument("--kind", choices=("single", "super", "bcc"), default="super")
    exponent.add_argument("--pz", required=True)
    exponent.add_argument("--px", default="uniform:2", help="input pmf (kind=single)")
    exponent.add_argument("--pv", default="uniform:2", help="cloud prior (kind=super)")
    exponent.add_argument("--pxv", default="bsc:0.1", help="X|V layer")
    exponent.add_argument("--pvu", default="bsc:0.25", help="V|U layer (kind=bcc)")
    exponent.add_argument("--pu", default="uniform:2", help="common prior (kind=bcc)")
    exponent.add_argument("--py", default="bsc:0.1", help="receiver channel (kind=bcc)")
    exponent.add_argument("--n", type=int, required=True)
    exponent.add_argument("--size", type=int, default=4, help="codebook size (single)")
    exponent.add_argument("--m1", type=int, default=4)
    exponent.add_argument("--m2", type=int, default=4)
    exponent.add_argument("--size-a", type=int, default=4, help="dummy alphabet (bcc)")
    exponent.add_argument("--size-l", type=int, default=4, help="private alphabet (bcc)")
    exponent.add_argument("--theta-step", type=float, default=0.01)
    exponent.add_argument("--out", required=True)
    exponent.set_defaults(func=_cmd_exponent)

    simulate = sub.add_parser("simulate", help="codebook simulations")
    sim_sub = simulate.add_subparsers(dest="what", required=True)

    res = sim_sub.add_parser("resolvability", help="two-layer output-approximation runs")
    res.add_argument("--pz", required=True)
    res.add_argument("--pv", default="uniform:2")
    res.add_argument("--pxv", default="bsc:0.1")
    res.add_argument("--n", type=int, required=True)
    res.add_argument("--m1", type=int, required=True)
    res.add_argument("--m2", type=int, required=True)
    res.add_argument("--trials", type=int, default=200)
    res.add_argument("--seed", type=int, default=0)
    res.add_argument("--mc", action="store_true",
                     help="allow Monte Carlo divergence estimates past the guards")
    res.add_argument("--mc-samples", type=int, default=20000)
    res.add_argument("--out", required=True)
    res.set_defaults(func=_cmd_simulate_resolvability)

    bcc_run = sim_sub.add_parser("bcc", help="three-layer code runs")
    _add_chain_args(bcc_run)
    bcc_run.add_argument("--sizes", required=True, help="K,L,S,A")
    bcc_run.add_argument("--n", type=int, required=True)
    bcc_run.add_argument("--delta", type=float, default=0.05,
                         help="threshold backoff in nats")
    bcc_run.add_argument("--alphas", default=None, help="a0,a1,a2 (overrides --delta)")
    bcc_run.add_argument("--trials", type=int, default=200)
    bcc_run.add_argument("--seed", type=int, default=0)
    bcc_run.add_argument("--mc", action="store_true",
                         help="allow Monte Carlo error rates past the guards")
    bcc_run.add_argument("--out", required=True)
    bcc_run.set_defaults(func=_cmd_simulate_bcc)

    check = sub.add_parser("check", help="verdicts: membership, orderings, splitting")
    check_sub = check.add_subparsers(dest="what", required=True)

    member = check_sub.add_parser("membership", help="rate-quadruple membership")
    _add_chain_args(member)
    member.add_argument("--quad", required=True, help="r_d,r_0,r_1,r_s in nats")
    member.add_argument("--out", default=None)
    member.set_defaults(func=_cmd_check_membership)

    ordering = check_sub.add_parser("ordering", help="more-capable / degraded verdicts")
    ordering.add_argument("--py", required=True)
    ordering.add_argument("--pz", required=True)
    ordering.add_argument("--grid-step", type=float, default=0.001)
    ordering.add_argument("--out", default=None)
    ordering.set_defaults(func=_cmd_check_ordering)

    split = check_sub.add_parser("split", help="rate-splitting into the inner region")
    _add_chain_args(split)
    split.add_argument("--quad", required=True, help="r_d,r_0,r_1,r_s in nats")
    split.add_argument("--out", default=None)
    split.set_defaults(func=_cmd_check_split)

    minr = check_sub.add_parser("min-randomness",
                                help="smallest dummy rate for (r_0, r_s)")
    minr.add_argument("--py", required=True)
    minr.add_argument("--pz", required=True)
    minr.add_argument("--r0", type=float, required=True)
    minr.add_argument("--rs", type=float, required=True)
    r0_note = "; ignored when --r0 > 0 (fixed 1,331-cell cloud, 11 mixing weights)"
    minr.add_argument("--grid-step", type=float, default=0.005,
                      help="probability grid step of the r_0 = 0 frontier" + r0_note)
    minr.add_argument("--rd-step", type=float, default=None,
                      help="dummy-rate bin width of the r_0 = 0 frontier" + r0_note)
    minr.add_argument("--rd-max", type=float, default=None,
                      help="largest dummy rate of the r_0 = 0 frontier" + r0_note)
    minr.add_argument("--out", default=None)
    minr.set_defaults(func=_cmd_check_min_randomness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleQuery as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError, KeyError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
