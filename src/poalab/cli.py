"""Command-line surface tying the library into reproducible experiments.

Subcommands: solve, poa, dist, sweep, holder-fit, converge, check.  Results
go to stdout as JSON (or to CSV files for sweeps and rate runs); errors are
emitted as machine-readable JSON on stderr.  Exit codes: 0 ok, 2 input
error, 3 solver unconverged, 4 invariant violation; a missing ``--out`` directory exits 2 at once.

``check`` runs ``sensitivity.check_game``: it solves the game once (its SO from its WE),
and then confirms the PoA on its six cost- and demand-normalized copies, their WEs and SOs
one lockstep batch from the game's WE and SO flows mapped onto the copies' demands.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import shlex
import sys

from . import __version__
from .convergence import DemandSchedule, converge_down, converge_up
from .games import GameValidationError
from .io import (
    RunManifest,
    load_game,
    read_sweep_csv,
    write_rate_csv,
    write_sweep_csv,
)
from .metric import dist
from .sensitivity import check_game, fit_hoelder, sweep
from .solvers import TOL, InvariantError, UnconvergedError, _solve_poa, solve_so, solve_we

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNCONVERGED = 3
EXIT_INVARIANT = 4


def _emit_error(code: str, message: str) -> None:
    json.dump({"error": {"code": code, "message": message}}, sys.stderr)
    sys.stderr.write("\n")


def _print_json(doc, indent: int | None = 2) -> None:
    print(json.dumps(doc, indent=indent))


def _write_manifest(args, seed: int | None, tolerances: dict) -> None:
    """The run manifest of a command that wrote args.out from the game file args.game."""
    RunManifest.create(command=args.invocation, seed=seed, tolerances=tolerances,
                       input_path=args.game).write(str(args.out) + ".manifest.json")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    solver = solve_so if args.so else solve_we
    report = solver(game, tol=args.tol)
    _print_json(report.to_dict())
    return EXIT_OK if report.converged else EXIT_UNCONVERGED


def _cmd_poa(args) -> int:
    value, we, so = _solve_poa(load_game(args.game), tol=args.tol)
    _print_json({"poa": value, "we": we.to_dict(), "so": so.to_dict()})
    return EXIT_OK


def _cmd_dist(args) -> int:
    g1 = load_game(args.game_a)
    g2 = load_game(args.game_b)
    mv = dist(g1, g2)
    _print_json({"dist": mv.value, "demand_part": mv.demand_part,
                 "cost_part": mv.cost_part, "error_bound": mv.error_bound})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    radii = _parse_floats(args.radii)
    if args.samples < 1 or not radii:
        raise ValueError(f"--samples must be >= 1 and --radii non-empty: {args.samples}, {radii}")
    game = load_game(args.game)
    records = sweep(game, kind=args.kind, radii=radii,
                    samples_per_radius=args.samples, seed=args.seed)
    write_sweep_csv(records, args.out)
    _write_manifest(args, args.seed, {"sweep_radii": radii})
    _print_json({"records": len(records), "out": str(args.out)}, indent=None)
    return EXIT_OK


def _cmd_holder_fit(args) -> int:
    rows = read_sweep_csv(args.infile)
    fit = fit_hoelder(rows, min_delta=args.min_delta)
    _print_json({"gamma": fit.gamma, "H": fit.constant,
                 "r_squared": fit.r_squared, "n_used": fit.n_used})
    return EXIT_OK


def _cmd_converge(args) -> int:
    game = load_game(args.game)
    totals = _parse_floats(args.totals)
    schedule = DemandSchedule(tuple(game.demands), tuple(totals))
    runner = converge_up if args.direction == "up" else converge_down
    points = runner(game, schedule)
    write_rate_csv(points, args.out)
    _write_manifest(args, None, {"totals": totals})
    _print_json({"points": len(points), "out": str(args.out)}, indent=None)
    return EXIT_OK


def _cmd_check(args) -> int:
    base, failures = check_game(load_game(args.game), args.tol)
    _print_json({"ok": not failures, "poa": base, "failures": failures})
    if failures:
        _emit_error("invariant", "; ".join(failures))
        return EXIT_INVARIANT
    return EXIT_OK


@functools.cache  # built once per process: in-process callers run one command after another
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poalab",
        description="Non-atomic congestion games: equilibria, PoA, sensitivity.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve for a Wardrop equilibrium (or --so)")
    p.add_argument("--game", required=True)
    p.add_argument("--so", action="store_true", help="solve the social optimum instead")
    p.add_argument("--tol", type=float, default=TOL)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("poa", help="price of anarchy with both solve reports")
    p.add_argument("--game", required=True)
    p.add_argument("--tol", type=float, default=TOL)
    p.set_defaults(func=_cmd_poa)

    p = sub.add_parser("dist", help="metric distance between two games")
    p.add_argument("--game-a", required=True)
    p.add_argument("--game-b", required=True)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("sweep", help="perturbation sweep to CSV")
    p.add_argument("--game", required=True)
    p.add_argument("--kind", choices=("demand", "cost", "joint"), required=True)
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("holder-fit", help="empirical exponent fit from a sweep CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--min-delta", type=float, default=None)
    p.set_defaults(func=_cmd_holder_fit)

    p = sub.add_parser("converge", help="demand-scaling experiment to CSV")
    p.add_argument("--game", required=True)
    p.add_argument("--direction", choices=("up", "down"), required=True)
    p.add_argument("--totals", required=True, help="comma-separated totals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("check", help="run the invariant suite on a game")
    p.add_argument("--game", required=True)
    p.add_argument("--tol", type=float, default=TOL)
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.invocation = "poalab " + shlex.join(argv)  # the command a run manifest records
    try:  # a command that writes --out fails before its run where opening it would
        if "out" in args and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        return args.func(args)
    except GameValidationError as exc:
        _emit_error(exc.code, str(exc))
        return EXIT_INPUT
    except (ValueError, OSError) as exc:  # StructureMismatchError, an unreadable path
        _emit_error("input", str(exc))
        return EXIT_INPUT
    except UnconvergedError as exc:
        _emit_error("unconverged", str(exc))
        return EXIT_UNCONVERGED
    except InvariantError as exc:
        _emit_error("invariant", str(exc))
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
