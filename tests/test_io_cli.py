"""Game-spec files, CSV round trips, and the command-line surface."""

import dataclasses
import json
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    MonomialLog,
    TangentCost,
    check_game,
    fit_hoelder,
    games_equivalent,
    poa,
    sweep,
)
from poalab import cli, sensitivity, solvers
from poalab.io import (
    InputError,
    cost_to_dict,
    game_from_dict,
    game_to_dict,
    load_game,
    read_rate_csv,
    read_sweep_csv,
    save_game,
    write_rate_csv,
    write_sweep_csv,
)
from poalab.convergence import RatePoint
from poalab.sensitivity import SweepRecord

from conftest import child_env, random_game


def pigou_doc():
    return {
        "schema": 1,
        "structure": {
            "arcs": ["u", "l"],
            "od_pairs": [
                {"id": "od0", "demand": 1.0, "paths": [["u"], ["l"]]},
            ],
        },
        "costs": {
            "u": {"family": "bpr", "params": {"q": 1.0, "beta": 1.0, "p": 0.0}},
            "l": {"family": "constant", "params": {"c": 1.0}},
        },
    }


class TestLoadGame:
    def test_pigou_fixture(self, tmp_path):
        path = tmp_path / "pigou.json"
        path.write_text(json.dumps(pigou_doc()))
        g = load_game(path)
        assert g.total_demand == 1.0
        assert g.costs[0](0.7) == pytest.approx(0.7)

    def test_single_path_rejected_with_path_coverage(self, tmp_path):
        doc = pigou_doc()
        doc["structure"]["od_pairs"][0]["paths"] = [["u", "l"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as err:
            load_game(path)
        assert err.value.code == "path_coverage"

    def test_zero_demands_rejected_with_positivity(self, tmp_path):
        doc = pigou_doc()
        doc["structure"]["od_pairs"][0]["demand"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as err:
            load_game(path)
        assert err.value.code == "positivity"

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"schema\": 1,\n  oops\n}")
        with pytest.raises(InputError) as err:
            load_game(path)
        assert "line 3" in str(err.value)

    def test_wrong_schema_version(self):
        doc = pigou_doc()
        doc["schema"] = 99
        with pytest.raises(InputError) as err:
            game_from_dict(doc)
        assert err.value.code == "schema"


class TestRoundTrip:
    def test_save_load_equivalent(self, tmp_path, shared_arc):
        rng = np.random.default_rng(71)
        for i in range(5):
            g = random_game(shared_arc, rng)
            path = tmp_path / f"g{i}.json"
            save_game(g, path)
            g2 = load_game(path)
            assert games_equivalent(g, g2)

    def test_wrapped_costs_roundtrip(self, tmp_path, two_link):
        from poalab.transforms import demand_normalize, truncate_extend
        g = Game(two_link, (MonomialLog(1.0, 1.0, 1.0), Constant(1.0)),
                 np.array([1.0]))
        for variant in (demand_normalize(g, 2.0),
                        truncate_extend(g, 2.0, mode="constant"),
                        truncate_extend(g, 2.0, mode="tangent")):
            path = tmp_path / "wrapped.json"
            save_game(variant, path)
            assert games_equivalent(variant, load_game(path))


class TestCsv:
    def test_sweep_round_trip_and_determinism(self, tmp_path, pigou):
        records = sweep(pigou, "cost", [1e-2, 1e-3], 8, seed=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(records, p1)
        write_sweep_csv(sweep(pigou, "cost", [1e-2, 1e-3], 8, seed=3), p2)
        assert p1.read_bytes() == p2.read_bytes()
        rows = read_sweep_csv(p1)
        assert len(rows) == len(records)
        assert rows[0].dist.value == records[0].dist.value

    def test_sweep_csv_fits_as_its_records(self, tmp_path, pigou):
        records = sweep(pigou, "cost", [1e-1, 1e-2, 1e-3], 8, seed=3)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        rows = read_sweep_csv(path)
        assert all(isinstance(row, SweepRecord) for row in rows)
        for min_delta in (1e-12, 1e-9):
            assert (fit_hoelder(rows, min_delta=min_delta)
                    == fit_hoelder(records, min_delta=min_delta))

    def test_rate_round_trip(self, tmp_path):
        pts = [RatePoint(1.0, 0.1, 0.5), RatePoint(0.1, 0.01, None)]
        path = tmp_path / "rate.csv"
        write_rate_csv(pts, path)
        back = read_rate_csv(path)
        assert back[0].poa_minus_one == 0.1
        assert back[1].bound is None


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "poalab.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=child_env())


@pytest.fixture()
def game_files(tmp_path, two_link):
    pigou = tmp_path / "pigou.json"
    pigou.write_text(json.dumps(pigou_doc()))
    near = Game(two_link, (BPR(1.0, 1.0, 0.0), Affine(1.0, 0.01)), np.array([1.0]))
    tie = Game(two_link, (BPR(1.0, 1.0, 0.0), BPR(1.0, 1.0, 0.0)), np.array([1.0]))
    near_path, tie_path = tmp_path / "near.json", tmp_path / "tie.json"
    save_game(near, near_path)
    save_game(tie, tie_path)
    return {"pigou": pigou, "near": near_path, "tie": tie_path, "dir": tmp_path}


class TestCli:
    def test_poa_pigou(self, game_files):
        res = run_cli(["poa", "--game", str(game_files["pigou"])], game_files["dir"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["poa"] == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_solve_so(self, game_files):
        res = run_cli(["solve", "--game", str(game_files["pigou"]), "--so"],
                      game_files["dir"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["total_cost"] == pytest.approx(0.75, abs=1e-8)
        assert doc["optimality_certified"]

    def test_dist_near_tie_pair(self, game_files):
        res = run_cli(["dist", "--game-a", str(game_files["near"]),
                       "--game-b", str(game_files["tie"])], game_files["dir"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["dist"] == pytest.approx(0.01, abs=1e-12)

    def test_input_error_exit_code(self, game_files):
        bad = game_files["dir"] / "bad.json"
        bad.write_text("{}")
        res = run_cli(["poa", "--game", str(bad)], game_files["dir"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"]["code"] == "schema"

    def test_sweep_then_holder_fit(self, game_files):
        out = game_files["dir"] / "sweep.csv"
        res = run_cli(["sweep", "--game", str(game_files["tie"]), "--kind", "joint",
                       "--radii", "1e-1,1e-2,1e-3,1e-4", "--samples", "16",
                       "--seed", "5", "--out", str(out)], game_files["dir"])
        assert res.returncode == 0
        assert out.exists()
        assert (game_files["dir"] / "sweep.csv.manifest.json").exists()
        res2 = run_cli(["holder-fit", "--in", str(out)], game_files["dir"])
        assert res2.returncode == 0
        fit = json.loads(res2.stdout)
        assert fit["gamma"] >= 0.9

    def test_manifests_record_the_parsed_command(self, game_files, capsys):
        # the argv main parsed, not the host process's (pytest's command line here)
        pigou, tmp = str(game_files["pigou"]), game_files["dir"]
        for argv in (["sweep", "--game", pigou, "--kind", "cost", "--radii", "1e-2",
                      "--samples", "2", "--out", str(tmp / "sweep.csv")],
                     ["converge", "--game", str(DATA / "two_link_affine_eps.json"),
                      "--direction", "up", "--totals", "10", "--out", str(tmp / "rate.csv")]):
            assert cli.main(argv) == 0
            manifest = json.loads(pathlib.Path(argv[-1] + ".manifest.json").read_text())
            assert manifest["command"] == "poalab " + shlex.join(argv)

    @pytest.mark.parametrize("flag, value, named", [
        ("--samples", "0", "--samples"), ("--samples", "-3", "--samples"),
        ("--radii", ",", "--radii"), ("--radii", "nan", "radius"),
        ("--radii", "1e-2,inf", "radius"),
        ("--min-delta", "nan", "min_delta"), ("--min-delta", "inf", "min_delta")])
    def test_sweep_rejects_empty_or_non_finite_input(self, game_files, capsys, flag, value,
                                                      named):
        out = game_files["dir"] / "sweep.csv"
        opts = {"--radii": "1e-2", "--samples": "4", flag: value}
        argv = ["sweep", "--game", str(game_files["pigou"]), "--kind", "cost", "--out", str(out)]
        if flag == "--min-delta":  # holder-fit's censoring floor, over a sweep's records
            records = game_files["dir"] / "records.csv"
            rows = sweep(load_game(game_files["pigou"]), "cost", [1e-1, 1e-2], 8, seed=3)
            write_sweep_csv(rows, records)
            argv, opts = ["holder-fit", "--in", str(records)], {flag: value}
        assert cli.main(argv + [tok for opt in opts.items() for tok in opt]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "input" and named in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_an_input_error(self, game_files, capsys, tol):
        # an infinite tol would stop every solve at once as converged (Pigou's PoA read 1.0),
        # and a NaN one would never converge
        assert cli.main(["poa", "--game", str(game_files["pigou"]), "--tol", tol]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "input" and "tol" in err["message"]

    @pytest.mark.parametrize("command", ["poa", "check"])
    def test_nan_cost_parameter_is_an_input_error(self, game_files, capsys, command):
        # Python's json reads NaN, and a NaN passes a comparison such as factor <= 0
        doc = pigou_doc()
        doc["costs"]["l"] = {"family": "scaled",
                             "params": {"inner": doc["costs"]["l"], "factor": float("nan")}}
        path = game_files["dir"] / "nan_factor.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--game", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "schema" and "factor" in err["message"]

    def test_converge_down(self, game_files, two_link):
        g = Game(two_link, (Affine(1.0, 1.0), Constant(2.0)), np.array([1.0]))
        gpath = game_files["dir"] / "down.json"
        save_game(g, gpath)
        out = game_files["dir"] / "rate.csv"
        res = run_cli(["converge", "--game", str(gpath), "--direction", "down",
                       "--totals", "1e-1,1e-2,1e-3", "--out", str(out)],
                      game_files["dir"])
        assert res.returncode == 0
        pts = read_rate_csv(out)
        assert len(pts) == 3
        assert all(p.poa_minus_one <= p.bound for p in pts)

    def test_converge_up(self, game_files, two_link):
        g = Game(two_link, (MonomialLog(1.0, 1.0, 1.0), MonomialLog(2.0, 1.0, 1.0)),
                 np.array([1.0]))
        gpath = game_files["dir"] / "up.json"
        save_game(g, gpath)
        out = game_files["dir"] / "up.csv"
        res = run_cli(["converge", "--game", str(gpath), "--direction", "up",
                       "--totals", "10,100,1000", "--out", str(out)],
                      game_files["dir"])
        assert res.returncode == 0
        pts = read_rate_csv(out)
        gaps = [p.poa_minus_one for p in pts]
        assert gaps == sorted(gaps, reverse=True)

    def test_check_passes_on_pigou(self, game_files):
        res = run_cli(["check", "--game", str(game_files["pigou"])], game_files["dir"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["ok"]

    def test_invariant_error_exit_code(self, game_files, monkeypatch, capsys):
        from poalab import InvariantError

        checked = solvers._checked_poa
        calls = []

        def broken_checked_poa(game, rho, tol):
            calls.append(game)
            if len(calls) > 1:  # the base solve passes; its normalized copies do not
                raise InvariantError("PoA 0.5 fell below 1")
            return checked(game, rho, tol)

        monkeypatch.setattr(solvers, "_checked_poa", broken_checked_poa)
        assert cli.main(["check", "--game", str(game_files["pigou"])]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "invariant"
        assert len(calls) == 2


DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


class TestCheckGame:
    """``check_game`` solves a game once and its six normalized copies from its flows."""

    @pytest.mark.parametrize("path", [*sorted(DATA.glob("*.json")), None],
                             ids=lambda p: "pigou" if p is None else p.stem)
    def test_warm_copies_match_cold_solves(self, path, pigou, monkeypatch):
        game = pigou if path is None else load_game(path)
        solved = []  # (game, starts, PoA) of each _solve_poa call

        def recording(copy, tol, max_iter=100_000, starts=(None, None)):
            out = solvers._solve_poa(copy, tol, max_iter, starts)
            solved.append((copy, starts, out[0]))
            return out

        monkeypatch.setattr(sensitivity, "_solve_poa", recording)
        assert check_game(game)[1] == []
        (base, cold, _), copies = solved[0], solved[1:]
        assert base is game and cold == (None, None) and len(copies) == 6
        for copy, _, rho in copies:
            assert rho == pytest.approx(poa(copy), abs=1e-9)

    def test_each_copy_solve_starts_from_the_mapped_flows(self, pigou, monkeypatch):
        calls = {"we": [], "so": []}  # (game, start, report) of each solve
        for kind, log in calls.items():
            def recording(game, tol, max_iter, start, real=getattr(solvers, f"solve_{kind}"),
                          log=log):
                report = real(game, tol=tol, max_iter=max_iter, start=start)
                log.append((game, start, report))
                return report
            monkeypatch.setattr(solvers, f"solve_{kind}", recording)

        check_game(pigou)
        for log in calls.values():
            (base, start, report), copies = log[0], log[1:]
            assert base is pigou and start is None and len(copies) == 6
            for copy, start, _ in copies:
                assert start is not None
                np.testing.assert_array_equal(
                    start, sensitivity._warm_start(pigou, report.flow, copy))

    def test_unconverged_copy_exits_3(self, game_files, monkeypatch, capsys):
        real = solvers.solve_so

        def stalled_on_copies(game, tol, max_iter, start):
            report = real(game, tol=tol, max_iter=max_iter, start=start)
            return report if start is None else dataclasses.replace(report, converged=False)

        monkeypatch.setattr(solvers, "solve_so", stalled_on_copies)
        assert cli.main(["check", "--game", str(game_files["pigou"])]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "unconverged"

    def test_truncated_arc_game_passes(self, capsys):
        assert cli.main(["check", "--game", str(DATA / "shared_arc_truncated.json")]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_tangent_arc_game_is_an_input_error(self, tmp_path, capsys):
        """The metric-axiom triples perturb every arc, and a tangent cost has no rule."""
        doc = json.loads((DATA / "shared_arc_mixed.json").read_text())
        doc["costs"]["d"] = cost_to_dict(TangentCost(BPR(1.0, 2.0, 0.1), 1.0))
        path = tmp_path / "tangent.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", "--game", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "input" and "tangent" in err["message"]
