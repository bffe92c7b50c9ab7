"""Game-spec files, CSV round trips, and the command-line surface."""

import json
import math
import pathlib
import re
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
    UnconvergedError,
    check_game,
    fit_hoelder,
    games_equivalent,
    poa,
    sample_ball,
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
from poalab.metric import MetricValue
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

    @pytest.mark.parametrize("kind", ["cost", "joint"])
    def test_sweep_csv_fits_as_its_records_at_the_solver_floor(self, tmp_path, kind):
        # each CSV row reads the loosest solve_tol a sweep uses, so at radii >= 1e-4 (all solved
        # at that tol) fit_hoelder's own floor censors the same records in both
        game = load_game(DATA / "two_link_identical.json")
        records = sweep(game, kind, [1e-1, 1e-2, 1e-3, 1e-4], 6, seed=2)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        fit = fit_hoelder(read_sweep_csv(path))
        assert fit == fit_hoelder(records) and fit.n_used == 18

    def test_empty_sweep_cells_read_back_as_nan_or_none(self, tmp_path):
        record = SweepRecord(seed=7, kind="cost", radius=0.1,
                             dist=MetricValue(0.05, 0.0, 0.05, 0.0), base_poa=1.25,
                             pert_poa=math.nan, delta=math.nan, certificate_bound=None,
                             solve_tol=1e-10)
        path = tmp_path / "sweep.csv"
        write_sweep_csv([record], path)
        assert path.read_text().splitlines()[1] == "7,cost,0.05,0.0,1.25,,,"
        (row,) = read_sweep_csv(path)
        assert math.isnan(row.pert_poa) and math.isnan(row.delta)
        assert row.certificate_bound is None and (row.seed, row.kind) == (7, "cost")

    def test_rate_round_trip(self, tmp_path):
        pts = [RatePoint(1.0, 0.1, 0.5), RatePoint(0.1, 0.01, None)]
        path = tmp_path / "rate.csv"
        write_rate_csv(pts, path)
        assert path.read_text().splitlines() == ["T,poa_minus_one,bound", "1.0,0.1,0.5", "0.1,0.01,"]
        back = read_rate_csv(path)
        assert back[0].poa_minus_one == 0.1
        assert back[1].bound is None

    @pytest.mark.parametrize("table", ["sweep", "rate"])
    def test_every_row_written_reads_back(self, tmp_path, table):
        # None and NaN in each float column: a bound column's empty cell reads back as None,
        # every other one's as NaN, and the writer refuses the other value before it opens the file
        def sweep_row(dist=0.05, dist_err=0.0, base_poa=1.25, pert_poa=1.2, delta=0.05,
                      cert_bound=0.3):
            return SweepRecord(7, "cost", 0.1, MetricValue(dist, 0.0, dist, dist_err), base_poa,
                               pert_poa, delta, cert_bound, 1e-10)

        write, read, row, cells, columns = {
            "sweep": (write_sweep_csv, read_sweep_csv, sweep_row,
                      lambda r: (r.seed, r.kind, r.dist.value, r.dist.error_bound, r.base_poa,
                                 r.pert_poa, r.delta, r.certificate_bound),
                      ("dist", "dist_err", "base_poa", "pert_poa", "delta", "cert_bound")),
            "rate": (write_rate_csv, read_rate_csv,
                     lambda T=2.0, poa_minus_one=0.1, bound=0.5: RatePoint(T, poa_minus_one, bound),
                     lambda p: (p.total_demand, p.poa_minus_one, p.bound),
                     ("T", "poa_minus_one", "bound")),
        }[table]
        same = lambda a, b: a == b or (a != a and b != b)  # NaN is NaN
        for column in columns:
            for missing in (math.nan, None):
                path = tmp_path / f"{column}-{missing}.csv"
                written = row(**{column: missing})
                if (missing is None) == column.endswith("bound"):
                    write([written], path)
                    (back,) = read(path)
                    assert all(map(same, cells(back), cells(written))), (column, missing)
                else:
                    with pytest.raises(ValueError, match=f"column '{column}'"):
                        write([written], path)
                    assert not path.exists()


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

    @pytest.mark.parametrize("case", ["missing --in", "directory --game", "directory --in",
                                      "--out in a missing directory"])
    def test_an_unreadable_path_is_an_input_error(self, game_files, capsys, case):
        # exit 2 with the JSON error line, not a traceback and exit 1
        tmp, pigou = game_files["dir"], str(game_files["pigou"])
        argv = {"missing --in": ["holder-fit", "--in", str(tmp / "missing.csv")],
                "directory --game": ["poa", "--game", str(tmp)],
                "directory --in": ["holder-fit", "--in", str(tmp)],
                "--out in a missing directory": [
                    "sweep", "--game", pigou, "--kind", "cost", "--radii", "1e-2",
                    "--samples", "2", "--out", str(tmp / "missing" / "sweep.csv")]}[case]
        assert cli.main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == "input"
        assert not (tmp / "missing").exists()

    @pytest.mark.parametrize("command, runner", [("sweep", "sweep"), ("converge", "converge_up")])
    def test_out_in_a_missing_directory_fails_before_the_run(self, game_files, capsys,
                                                             monkeypatch, command, runner):
        calls = []
        monkeypatch.setattr(cli, runner, lambda *args, **kw: calls.append(args))
        out = str(game_files["dir"] / "missing" / "out.csv")
        opts = {"sweep": ["--kind", "cost", "--radii", "1e-2", "--samples", "2"],
                "converge": ["--direction", "up", "--totals", "10,100"]}[command]
        argv = [command, "--game", str(game_files["pigou"]), *opts, "--out", out]
        assert cli.main(argv) == 2
        assert calls == []
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "input", "message": f"[Errno 2] No such file or directory: {out!r}"}

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

        def broken_checked_poa(rho, tol, bound):
            calls.append(rho)
            if len(calls) > 1:  # the base solve passes; its normalized copies do not
                raise InvariantError("PoA 0.5 fell below 1")
            return checked(rho, tol, bound)

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
        calls = []  # (games, tols, PoAs) of each _solve_poas call

        def recording(copies, tols, max_iter, starts):
            out = solvers._solve_poas(copies, tols, max_iter, starts)
            calls.append((copies, tols, out[0]))
            return out

        monkeypatch.setattr(sensitivity, "_solve_poas", recording)
        assert check_game(game)[1] == []
        [(copies, tols, poas)] = calls
        assert len(copies) == 6 and tols == [1e-10] * 6
        for copy, rho in zip(copies, poas, strict=True):
            assert rho == pytest.approx(poa(copy), abs=1e-9)

    def test_each_copy_solve_starts_from_the_mapped_flows(self, pigou, monkeypatch):
        calls = {"we": [], "so": []}  # (game, start, report) of each solve_we / solve_so
        for kind, log in calls.items():
            def recording(game, tol, max_iter, start=None,
                          real=getattr(solvers, f"solve_{kind}"), log=log):
                report = real(game, tol=tol, max_iter=max_iter, start=start)
                log.append((game, start, report))
                return report
            monkeypatch.setattr(solvers, f"solve_{kind}", recording)
        batches = []  # (games, starts) of each _solve_poas call

        def batch(copies, tols, max_iter, starts):
            batches.append((copies, starts))
            return solvers._solve_poas(copies, tols, max_iter, starts)

        monkeypatch.setattr(sensitivity, "_solve_poas", batch)
        check_game(pigou)
        [(copies, starts)] = batches
        assert len(copies) == len(starts) == 6
        we = calls["we"][0][2]
        for i, log in enumerate(calls.values()):
            [(base, start, report)] = log  # the game's own solve; the copies are the batch
            # the WE starts cold and the SO at the WE flow
            assert base is pigou and start is (None, we.flow)[i]
            for copy, copy_starts in zip(copies, starts, strict=True):
                np.testing.assert_array_equal(
                    copy_starts[i], sensitivity._warm_start(pigou, report.flow, copy.demands))

    @staticmethod
    def _stall_copies(monkeypatch, stalled, we_too=False):
        """Make _solve_poas take one pass, each copy in stalled starting its SO at its WE start.

        With we_too, those copies also start their WE at their SO start.  Returns the
        list that receives the (games, tols, starts) of each call.
        """
        real, calls = solvers._solve_poas, []

        def one_pass(copies, tols, max_iter, starts):
            starts = [(so if we_too else we, we) if b in stalled else (we, so)
                      for b, (we, so) in enumerate(starts)]
            calls.append((copies, tols, starts))
            return real(copies, tols, 1, starts)

        monkeypatch.setattr(sensitivity, "_solve_poas", one_pass)
        return calls

    def test_unconverged_copy_exits_3(self, monkeypatch, capsys):
        # one pass from its WE flow leaves copy 4's SO unconverged
        self._stall_copies(monkeypatch, {4})
        assert cli.main(["check", "--game", str(DATA / "shared_arc_mixed.json")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "unconverged"

    @pytest.mark.parametrize("we_too", [False, True], ids=["so", "we-and-so"])
    def test_first_unconverged_copy_reports_its_solve_alone(self, we_too, monkeypatch):
        # copies 3 and 5 stall; copy 3 raises, with its WE's report when that stalls too
        calls = self._stall_copies(monkeypatch, {3, 5}, we_too)
        with pytest.raises(UnconvergedError) as raised:
            check_game(load_game(DATA / "shared_arc_mixed.json"))
        [(copies, tols, starts)] = calls
        solve = solvers.solve_we if we_too else solvers.solve_so
        alone = solve(copies[3], tols[3], 1, start=starts[3][not we_too])
        report = raised.value.report
        assert not alone.converged and not report.converged
        assert (report.duality_gap, report.iterations) == (alone.duality_gap, alone.iterations)
        np.testing.assert_array_equal(report.flow.values, alone.flow.values)
        assert report.total_cost == alone.total_cost

    @pytest.mark.parametrize("command", ["poa", "check"])
    def test_unconverged_exit_names_the_gap_and_the_passes(self, command, pigou, monkeypatch,
                                                             capsys):
        real = solvers._solve_games

        def stalled_so(games, so, *args):  # so: each row's kind
            f, gap, passes, certified = real(games, so, *args)
            return f, gap + 1e-3 * np.array(so), passes, certified

        monkeypatch.setattr(solvers, "_solve_games", stalled_so)
        message = str(UnconvergedError(solvers.solve_so(pigou)))
        assert re.fullmatch(r"solver stopped at duality gap 1\.000e-03 after \d+ iterations",
                            message)
        assert cli.main([command, "--game", str(DATA / "pigou.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {"code": "unconverged", "message": message}

    def test_truncated_arc_game_passes(self, capsys):
        assert cli.main(["check", "--game", str(DATA / "shared_arc_truncated.json")]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_tangent_arc_game_checks_on_demand_draws(self, tmp_path, capsys):
        """A tangent cost has no perturbation rule, so the metric-axiom triples draw demand
        balls; a cost draw or a cost sweep of the game stays an input error."""
        doc = json.loads((DATA / "pigou.json").read_text())
        doc["costs"]["u"] = {"family": "tangent",
                             "params": {"anchor": 0.5, "inner": doc["costs"]["u"]}}
        path = tmp_path / "tangent.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", "--game", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        with pytest.raises(ValueError, match="cannot perturb cost family 'tangent'"):
            sample_ball(load_game(path), 0.01, kind="cost")
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--game", str(path), "--kind", "cost", "--radii", "1e-2",
                         "--samples", "2", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "input", "message":
                       "cannot perturb cost family 'tangent': it has no sound rule"}
