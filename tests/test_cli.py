import json

import numpy as np
import pytest

from cvp import ManifoldModel, action, analysis, load_measure, measure_to_dict, optimize
from cvp.cli import build_parser, main
from cvp.exact import octahedron

LIGHT = ["--cooling", "0.88", "--steps-per-temp", "30", "--restarts", "2"]
QUICK = ["--restarts", "1", "--cooling", "0.5", "--steps-per-temp", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_rejected(code, out, err, message):
    """Exit code 2 with the message on stderr, no output and no traceback."""
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert out == ""


class TestBadInput:
    @pytest.mark.parametrize("tau", ["1e10", "1e160"])
    def test_large_tau_exit_2(self, capsys, tau):
        # beyond tau ~ 1e8 zonal_d loses the 2 in tau^2 c + 2 - tau^2 and the
        # action read 0.0; at 1e160 kernel_scale overflowed with a traceback
        code, out, err = run(
            capsys, "minimize", "--manifold", "circle", "--tau", tau, "--m", "3",
            "--restarts", "1", "--cooling", "0.5", "--steps-per-temp", "2",
        )
        assert_rejected(code, out, err, "tau must lie in [1, 1000]")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--tau", "1e160"],
        ["exact", "chain", "--tau", "1e160"],
        ["flag-check", "--f", "3", "--tau", "1e160", "--eps", "0.01"],
        ["minimize", "--manifold", "flag", "--f", "3", "--tau", "1e10", "--m", "3"],
    ], ids=["bounds", "chain", "flag-check", "flag-minimize"])
    def test_large_tau_exit_2_everywhere(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert_rejected(code, out, err, "tau must lie in")

    def test_tau_at_the_cap_runs(self, capsys):
        code, out, _ = run(
            capsys, "minimize", "--manifold", "circle", "--tau", "1000", "--m", "3",
            "--restarts", "1", "--cooling", "0.5", "--steps-per-temp", "2",
        )
        assert code == 0
        assert json.loads(out)["certificate"]["action"] > 0.0

    @pytest.mark.parametrize("option", ["--t-start", "--t-end"])
    def test_infinite_temperature_exit_2(self, capsys, option):
        # an infinite t_start kept T at inf, so cooling never ended
        code, out, err = run(
            capsys, "minimize", "--manifold", "circle", "--tau", "3.0", "--m", "3",
            option, "inf",
        )
        assert_rejected(code, out, err, "need finite t_start > t_end > 0")

    @pytest.mark.parametrize("argv", [
        ["minimize", "--manifold", "circle", "--tau", "3.0", "--m", "3"],
        ["scan", "--manifold", "circle", "--tau-min", "1.7", "--tau-max", "1.72",
         "--tau-step", "0.02", "--m", "3"],
    ], ids=["minimize", "scan"])
    @pytest.mark.parametrize("option", [["--cooling", "0.999999999"],
                                        ["--steps-per-temp", "1000000000"]])
    def test_endless_schedule_exit_2(self, capsys, monkeypatch, argv, option):
        # cooling 0.999999999 asked for about 1.4e10 temperatures and never
        # returned; the schedule is rejected before any anneal or lift starts
        def no_anneal(*args, **kwargs):
            raise AssertionError("an anneal started")

        for name in ("anneal", "_Lift"):
            monkeypatch.setattr(optimize, name, no_anneal)
        code, out, err = run(capsys, *argv, *option)
        assert_rejected(code, out, err, "Metropolis steps")

    @pytest.mark.parametrize("argv", [
        ["minimize", "--manifold", "circle", "--tau", "1.3", "--m", "3"],
        ["exact", "chain", "--tau", "3"],
    ], ids=["minimize", "exact"])
    def test_empty_test_grid_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--test-grid", "0")
        assert_rejected(code, out, err, "--test-grid must be >= 1")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("command", ["minimize", "exact", "certify"])
    def test_tolerance_that_certifies_nothing_exit_2(self, capsys, tmp_path, command, tol):
        # a NaN or negative tol failed every check and an infinite one passed
        # every check: the exact octahedron read singular_candidate at nan
        mfile = tmp_path / "octahedron.json"
        mfile.write_text(json.dumps(measure_to_dict(ManifoldModel.sphere(1.2), octahedron())))
        argv = {
            "minimize": ["minimize", "--manifold", "circle", "--tau", "1.3", "--m", "3", *QUICK],
            "exact": ["exact", "octahedron", "--tau", "1.2"],
            "certify": ["certify", "--measure", str(mfile)],
        }[command]
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert_rejected(code, out, err, "tol must be finite and >= 0")

    def test_nan_merge_radius_exit_2(self, capsys):
        # a NaN radius merged nothing and exited 0
        code, out, err = run(
            capsys, "minimize", "--manifold", "circle", "--tau", "1.3", "--m", "3", *QUICK,
            "--merge-radius", "nan",
        )
        assert_rejected(code, out, err, "radius must be >= 0")

    @pytest.mark.parametrize("command", ["minimize", "scan"])
    @pytest.mark.parametrize("model_args, message", [
        (["--manifold", "flag"], "flag manifold requires f >= 3"),
        (["--manifold", "circle", "--f", "3"], "f is only meaningful for the flag manifold"),
    ], ids=["flag-without-f", "circle-with-f"])
    def test_model_messages_shared(self, capsys, command, model_args, message):
        argv = {
            "minimize": ["minimize", "--tau", "2.0", "--m", "3", *QUICK],
            "scan": ["scan", "--tau-min", "2.0", "--tau-max", "2.0", "--tau-step", "0.1",
                     "--m", "3", *QUICK],
        }[command]
        code, out, err = run(capsys, *argv, *model_args)
        assert_rejected(code, out, err, message)


class TestMinimize:
    def test_circle_minimize(self, capsys, tmp_path):
        mfile = tmp_path / "measure.json"
        cfile = tmp_path / "cert.json"
        code, out, _ = run(
            capsys,
            "minimize", "--manifold", "circle", "--tau", "1.3", "--m", "6",
            "--seed", "7", *LIGHT,
            "--out-measure", str(mfile), "--out-certificate", str(cfile),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["measure"]["manifold"] == "circle"
        cert = json.loads(cfile.read_text())
        nu0 = 4 * 1.3**2 - 1.3**4
        assert cert["action"] <= nu0 * 1.01
        model, meas = load_measure(mfile)
        assert abs(action(model, meas) - cert["action"]) < 1e-9

    def test_byte_identical_reruns(self, capsys):
        args = [
            "minimize", "--manifold", "sphere", "--tau", "1.2", "--m", "6",
            "--seed", "3", *LIGHT,
        ]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_round_trip_action_drift(self, capsys, tmp_path):
        mfile = tmp_path / "m.json"
        code, out, _ = run(
            capsys,
            "minimize", "--manifold", "sphere", "--tau", "1.4", "--m", "6",
            "--seed", "1", *LIGHT, "--out-measure", str(mfile),
            "--out-certificate", str(tmp_path / "c.json"),
        )
        assert code == 0
        cert = json.loads((tmp_path / "c.json").read_text())
        model, meas = load_measure(mfile)
        assert abs(action(model, meas) - cert["action"]) < 1e-12

    def test_flag_minimize_gram_psd(self, capsys):
        code, out, _ = run(
            capsys,
            "minimize", "--manifold", "flag", "--f", "3", "--tau", "2", "--m", "6",
            "--seed", "0", *LIGHT,
        )
        assert code == 0
        doc = json.loads(out)
        scale = 8 * 4.0
        assert doc["certificate"]["gram_min_eig"] >= -1e-8 * scale

    def test_invalid_config_exit_2(self, capsys):
        code, _, err = run(
            capsys, "minimize", "--manifold", "sphere", "--tau", "0.5", "--m", "4"
        )
        assert code == 2
        assert "error" in err

    def test_flag_requires_f(self, capsys):
        code, _, err = run(
            capsys, "minimize", "--manifold", "flag", "--tau", "2.0", "--m", "4"
        )
        assert code == 2


class TestCertify:
    def test_round_trip(self, capsys, tmp_path):
        mfile = tmp_path / "m.json"
        run(
            capsys,
            "minimize", "--manifold", "circle", "--tau", "1.3", "--m", "4",
            "--seed", "0", *LIGHT, "--out-measure", str(mfile),
            "--out-certificate", str(tmp_path / "c.json"),
        )
        code, out, _ = run(capsys, "certify", "--measure", str(mfile), "--tol", "1e-2")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"action", "el_residual", "gram_min_eig", "classification"}

    @pytest.mark.parametrize(
        "doc",
        [
            {"manifold": "circle", "tau": 1.3, "points": [0.0, 1.0], "weights": [0.5, 0.5]},
            {"manifold": "circle", "tau": 1.3, "points": [[0.0], [1.0]]},
            [{"manifold": "circle", "tau": 1.3, "points": [[0.0]], "weights": [1.0]}],
            {"manifold": "circle", "tau": 1.3, "points": [[0.0], [1.0]],
             "weights": [float("nan"), 0.5]},
            {"manifold": "sphere", "tau": 1.2,
             "points": [[1.0, 0.0, 0.0], [0.0, float("nan"), 1.0]], "weights": [0.5, 0.5]},
            {"manifold": "circle", "tau": 1.3, "points": [[0.0], [float("inf")]],
             "weights": [0.5, 0.5]},
            {"manifold": "circle", "tau": 1.3, "f": 3, "points": [[0.0], [1.0]],
             "weights": [0.5, 0.5]},
            {"manifold": "flag", "tau": 2.0, "f": 3, "weights": [1.0],
             "points": [{"u": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                         "v": [[0.0, 0.0], [float("nan"), 0.0], [0.0, 0.0]]}]},
            {"manifold": "sphere", "tau": float("inf"), "points": [[1.0, 0.0, 0.0]],
             "weights": [1.0]},
        ],
        ids=["flat_circle_points", "missing_weights", "top_level_list", "nan_weight",
             "nan_sphere_coordinate", "infinite_angle", "f_on_circle", "nan_flag_coordinate",
             "infinite_tau"],
    )
    def test_bad_measure_exit_2(self, capsys, tmp_path, doc):
        mfile = tmp_path / "bad.json"
        mfile.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", "--measure", str(mfile))
        assert code == 2
        assert "error:" in err
        assert "action" not in out

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "certify", "--measure", "/nonexistent/m.json")
        assert code == 3
        assert "i/o" in err


class TestBounds:
    def test_sandwich(self, capsys, tmp_path):
        import importlib.resources as res

        base = res.files("cvp") / "data" / "packings"
        code, out, _ = run(
            capsys,
            "bounds", "--tau", "1.5",
            "--packing", str(base / "octahedron.txt"),
            "--packing", str(base / "icosahedron.txt"),
            "--t-count", "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["nu0"]["value"] == pytest.approx(2.25)
        assert doc["nu0"]["valid"] is True
        assert doc["volume_upper"] == pytest.approx(4 - 4 / (3 * 2.25))
        assert doc["sandwich_gap"] is None or doc["sandwich_gap"] >= -1e-9

    def test_bounds_touch_at_tau1(self, capsys):
        code, out, _ = run(capsys, "bounds", "--tau", "1.0", "--t-count", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["volume_upper"] == pytest.approx(doc["nu0"]["value"], rel=1e-12)

    def test_missing_packing_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "bounds", "--tau", "1.5", "--packing", "/nope.txt"
        )
        assert code == 3

    def test_nan_packing_coordinate_exit_2(self, capsys, tmp_path):
        # a NaN norm fails every comparison, so it must not pass the unit-norm check
        p = tmp_path / "nan.txt"
        p.write_text("nan 0 0\n1 0 0\n0 1 0\n")
        code, out, err = run(capsys, "bounds", "--tau", "1.5", "--packing", str(p))
        assert_rejected(code, out, err, "unit vectors within 1e-6")


class TestScan:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys,
            "scan", "--manifold", "circle", "--tau-min", "1.2", "--tau-max", "1.24",
            "--tau-step", "0.02", "--m", "5", "--seed", "0",
            "--steps-per-temp", "30", "--restarts", "1", "--cooling", "0.88",
            "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "tau,m,action,support_size,classification,el_residual"
        assert len(lines) == 4

    @pytest.mark.parametrize("lo, hi", [("2.0", "1.0"), ("1.7", "1.6")])
    def test_empty_grid_exit_2(self, capsys, lo, hi):
        code, out, err = run(
            capsys,
            "scan", "--manifold", "circle", "--tau-min", lo, "--tau-max", hi,
            "--tau-step", "0.02", "--m", "4",
        )
        assert_rejected(code, out, err, "the tau grid is empty")


class TestScanGrid:
    """The tau grid is checked before any row runs; these tests never build a
    large grid, because a call of ``tau_scan`` fails them."""

    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tau_scan ran")
        monkeypatch.setattr(optimize, "tau_scan", refuse)

    @staticmethod
    def scan(capsys, lo, hi, step):
        return run(
            capsys, "scan", "--manifold", "circle", f"--tau-min={lo}", f"--tau-max={hi}",
            f"--tau-step={step}", "--m", "4",
        )

    @pytest.mark.parametrize("lo, hi, step", [
        ("1", "inf", "0.1"), ("1", "2", "inf"), ("nan", "2", "0.1"), ("1", "nan", "0.1"),
        ("1", "2", "nan"), ("-inf", "2", "0.1"),
    ])
    def test_non_finite_exit_2(self, capsys, lo, hi, step):
        # inf once overflowed with a traceback, and NaN failed in int()
        assert_rejected(*self.scan(capsys, lo, hi, step), "must be finite")

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_step_positive(self, capsys, step):
        assert_rejected(*self.scan(capsys, "1", "2", step), "--tau-step must be positive")

    @pytest.mark.parametrize("lo, hi", [("0.5", "2"), ("1", "1000.5"), ("1", "1e300")])
    def test_endpoints_in_range(self, capsys, lo, hi):
        assert_rejected(*self.scan(capsys, lo, hi, "0.5"),
                        "--tau-min and --tau-max must lie in [1, 1000]")

    @pytest.mark.parametrize("step", ["1e-4", "1e-12", "1e-300", "5e-324"])
    def test_row_cap(self, capsys, step):
        # 10,001 rows, 10^12, 10^300 and an overflowing quotient
        assert_rejected(*self.scan(capsys, "1", "2", step), "more than 10000 rows")

    def test_row_cap_allows_its_count(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(optimize, "tau_scan", lambda kind, grid, *a, **k: seen.append(grid) or [])
        code, _, _ = self.scan(capsys, "1", "2", "1.0001e-4")
        assert code == 0
        assert len(seen[0]) == 10_000 and seen[0][0] == 1.0 and seen[0][-1] <= 2.0


class TestBoundsGrid:
    """The heat-time grid is checked before any work; a call of
    ``bounds_report`` fails these tests, except where one hands valid grids to
    the real report: its (4e-5, 2.0) pair builds the 938-degree table of
    `cvp bounds --t-min 4e-5` on the 10,000 check angles, about 76 MB."""

    real_report = staticmethod(analysis.bounds_report)

    @pytest.fixture(autouse=True)
    def no_bounds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bounds_report ran")
        monkeypatch.setattr(analysis, "bounds_report", refuse)

    @staticmethod
    def bounds(capsys, *argv):
        return run(capsys, "bounds", "--tau", "1.5", *argv)

    @pytest.mark.parametrize("argv", [
        ["--t-min=nan"], ["--t-max=nan"], ["--t-min=-inf"], ["--t-max=inf"],
    ])
    def test_non_finite_exit_2(self, capsys, argv):
        # NaN once gave "heat_kernel": null with exit 0
        assert_rejected(*self.bounds(capsys, *argv), "--t-min and --t-max must be finite")

    @pytest.mark.parametrize("t_min", ["0", "-1", "-1e-300"])
    def test_t_min_positive(self, capsys, t_min):
        # -1 once overflowed in the truncation degree with a traceback
        assert_rejected(*self.bounds(capsys, f"--t-min={t_min}"), "--t-min must be positive")

    def test_t_min_at_most_t_max(self, capsys):
        assert_rejected(*self.bounds(capsys, "--t-min=3"), "--t-min must not exceed --t-max")

    @pytest.mark.parametrize("count", ["0", "1", "-5", "1001"])
    def test_count_cap(self, capsys, count):
        # 0 once gave "heat_kernel": null with exit 0
        assert_rejected(*self.bounds(capsys, f"--t-count={count}"), "--t-count must lie in [2, 1000]")

    @pytest.mark.parametrize("t_min", ["1e-8", "3e-5", "5e-324"])
    def test_degree_cap(self, capsys, t_min):
        # 1e-8 would ask for a 62,748 x 10,000 table
        assert_rejected(*self.bounds(capsys, f"--t-min={t_min}"),
                        "needs more than 1000 Legendre degrees")

    @pytest.mark.parametrize("argv, grid", [
        ([], np.geomspace(0.01, 2.0, 14)),
        (["--t-count=1000", "--t-min=1", "--t-max=1"], np.ones(1000)),
        (["--t-min=4e-5", "--t-count=2"], [4e-5, 2.0]),
        (["--t-min=0.5", "--t-max=0.5", "--t-count=2"], [0.5, 0.5]),
    ])
    def test_valid_grids_reach_the_report(self, capsys, monkeypatch, argv, grid):
        seen = []

        def report(model, t_grid, **kwargs):
            seen.append(t_grid)
            return self.real_report(model, t_grid=t_grid, **kwargs)

        monkeypatch.setattr(analysis, "bounds_report", report)
        code, _, err = self.bounds(capsys, *argv)
        assert (code, err) == (0, "")
        assert np.array_equal(seen[0], grid)

    def test_cap_degree_is_the_truncation_degree(self):
        # 4e-5 sums 938 degrees and 3e-5 would need 1,085
        assert analysis._heat_lmax(4e-5) <= 1000
        with pytest.raises(ValueError, match="more than 1000 Legendre degrees"):
            analysis._heat_lmax(3e-5)


COMMANDS = "minimize,certify,bounds,scan,exact,flag-check"
# argv whose parse prints help or an error; each prints what the full parser prints
PARSE_TEXT_ARGV = {
    "help": ["--help"],
    "no-command": [],
    "bad-command": ["bogus"],
    **{f"help-{c}": [c, "--help"] for c in (
        "minimize", "certify", "bounds", "scan", "exact", "flag-check")},
    "missing-minimize": ["minimize", "--manifold", "circle", "--tau", "1.3"],
    "missing-certify": ["certify"],
    "missing-bounds": ["bounds", "--packing", "p.txt"],
    "missing-scan": ["scan", "--manifold", "circle", "--tau-min", "1", "--m", "4"],
    "missing-exact": ["exact", "chain"],
    "missing-flag-check": ["flag-check", "--f", "3", "--tau", "1.2"],
    "bad-choice-exact": ["exact", "cube", "--tau", "2"],
    "bad-value-bounds": ["bounds", "--tau", "x"],
    "unknown-minimize": ["minimize", "--manifold", "circle", "--tau", "1.3", "--m", "4",
                         "--bogus"],
    "unknown-certify": ["certify", "--measure", "m.json", "--bogus", "1"],
    "unknown-bounds": ["bounds", "--tau", "1.5", "--bogus"],
    "unknown-scan": ["scan", "--manifold", "circle", "--tau-min", "1", "--tau-max", "2",
                     "--tau-step", "0.1", "--m", "4", "--bogus"],
    "unknown-exact": ["exact", "chain", "--tau", "3", "extra"],
    "unknown-flag-check": ["flag-check", "--f", "3", "--tau", "1.2", "--eps", "0.1",
                           "--bogus"],
}


class TestParserText:
    """``main`` builds only the invoked command's subparser; every help,
    usage and error text must be the full parser's, byte for byte."""

    @staticmethod
    def parse_text(capsys, parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    @pytest.mark.parametrize("argv", PARSE_TEXT_ARGV.values(), ids=PARSE_TEXT_ARGV.keys())
    def test_text_is_the_full_parsers(self, capsys, argv):
        got = self.parse_text(capsys, lambda: main(argv))
        want = self.parse_text(capsys, lambda: build_parser().parse_args(argv))
        assert got == want
        assert got[0] in (0, 2) and got[1] + got[2]

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'minimize', "
                    "'certify', 'bounds', 'scan', 'exact', 'flag-check')"),
    ], ids=["no-command", "bad-command"])
    def test_command_errors(self, capsys, argv, message):
        # the full parser names the subcommand action "command" in these errors
        assert self.parse_text(capsys, lambda: main(argv)) == (
            2, "", f"usage: cvp [-h] {{{COMMANDS}}} ...\ncvp: error: {message}\n"
        )

    @pytest.mark.parametrize("argv", [v for k, v in PARSE_TEXT_ARGV.items()
                                      if k.startswith("unknown-")])
    def test_usage_names_all_commands(self, capsys, argv):
        _, _, err = self.parse_text(capsys, lambda: main(argv))
        assert err.startswith(f"usage: cvp [-h] {{{COMMANDS}}} ...\n")
        assert "unrecognized arguments" in err


class TestExact:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "exact", "chain", "--tau", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["m0"] == 10
        assert doc["action"] == pytest.approx(7.9686, abs=1e-3)
        assert doc["certificate"]["el_residual"] < 1e-9

    def test_chain_hypothesis_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "exact", "chain", "--tau", "2")
        assert code == 2
        assert "tau_d" in err

    def test_chain_force(self, capsys):
        code, out, _ = run(capsys, "exact", "chain", "--tau", "2", "--force")
        assert code == 0
        assert json.loads(out)["m0"] == 6

    def test_octahedron(self, capsys):
        code, out, _ = run(capsys, "exact", "octahedron", "--tau", "1.2")
        assert code == 0
        doc = json.loads(out)
        assert doc["action"] == pytest.approx(2.9952, abs=1e-10)
        assert doc["certificate"]["classification"] == "generically_timelike"

    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "exact", "uniform", "--tau", "2.0", "--m", "6")
        assert code == 0
        assert json.loads(out)["action"] == pytest.approx(16 / 3, rel=1e-10)

    def test_density(self, capsys):
        code, out, _ = run(capsys, "exact", "density", "--tau", "1.001")
        assert code == 0
        doc = json.loads(out)
        assert doc["mass"] == pytest.approx(1.0, abs=1e-10)
        assert abs(doc["moment_cos"]) < 1e-8
        assert abs(doc["moment_p2"]) < 1e-8
        assert abs(doc["action_minus_nu0"]) < 1e-6

    @pytest.mark.parametrize("construction", ["density", "octahedron"])
    @pytest.mark.parametrize("tau, valid", [("2", False), ("1.001", True)])
    def test_nu0_validity_marked(self, capsys, construction, tau, valid):
        # nu0 bounds S_min only while the kernel operator is PSD, tau <= sqrt3
        # on the sphere; the payload says so, as `bounds` does
        code, out, _ = run(capsys, "exact", construction, "--tau", tau)
        assert code == 0
        doc = json.loads(out)
        assert doc["nu0_valid"] is valid
        assert doc["nu0"] == analysis.nu0_lower_bound(ManifoldModel.sphere(float(tau))).value

    def test_density_integrals_match_band_arithmetic(self, capsys):
        # oracle: exact 1-d integrals of the piecewise-constant profile
        from cvp import ManifoldModel, density_action, three_band_density

        code, out, _ = run(capsys, "exact", "density", "--tau", "1.001")
        doc = json.loads(out)
        bands = [(0.8, 1.0, 5 / 3), (0.2, 0.4, 35 / 9), (-0.7, -0.5, 40 / 9)]
        exact = {
            "mass": sum(0.5 * v * (b - a) for a, b, v in bands),
            "moment_cos": sum(0.25 * v * (b**2 - a**2) for a, b, v in bands),
            "moment_p2": sum(0.25 * v * (b**3 - a**3) - 0.25 * v * (b - a) for a, b, v in bands),
        }
        for key, want in exact.items():
            assert abs(doc[key] - want) <= 1e-14
        dm = three_band_density()
        assert doc["action"] == density_action(ManifoldModel.sphere(1.001), dm)


class TestFlagCheck:
    def test_witness(self, capsys):
        code, out, _ = run(
            capsys, "flag-check", "--f", "3", "--tau", "2", "--eps", "0.01"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["det"] < 0
        assert doc["det_negative"] is True
        assert doc["gt_threshold"] == pytest.approx(1.9390, abs=1e-4)
        assert doc["kernel_gram_max_diff"] < 1e-10

    def test_domain_error_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "flag-check", "--f", "2", "--tau", "2", "--eps", "0.01"
        )
        assert code == 2


class TestEntryPoint:
    def test_console_script(self):
        """`python -m cvp.cli` runs in a fresh interpreter with a minimal
        environment, exits 0 and prints the octahedron's closed-form action.

        The child gets only PATH, CVP_THREADS and a PYTHONPATH pointing at
        the directory that holds the `cvp` package this run imported, so it
        also works from an uninstalled checkout. The `cvp` console script
        declared in pyproject.toml is not run by this test.
        """
        import subprocess
        import sys
        from pathlib import Path

        import cvp

        source_root = Path(cvp.__file__).resolve().parent.parent
        env = {"PATH": "/usr/bin", "CVP_THREADS": "1", "PYTHONPATH": str(source_root)}
        res = subprocess.run(
            [sys.executable, "-m", "cvp.cli", "exact", "octahedron", "--tau", "1.2"],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["action"] == pytest.approx(2.9952, abs=1e-10)

    def test_density_leaves_numpy_ma_unloaded(self):
        # np.unique loads numpy.ma, about 1.7 MB of module objects, on its
        # first call, and a Gauss-Legendre rule loads numpy.polynomial; the
        # density is its band edges and values and needs neither
        import subprocess
        import sys
        from pathlib import Path

        import cvp

        source_root = Path(cvp.__file__).resolve().parent.parent
        env = {"PATH": "/usr/bin", "CVP_THREADS": "1", "PYTHONPATH": str(source_root)}
        code = ("import contextlib, io, sys\n"
                "import cvp.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cvp.cli.main(['exact', 'density', '--tau', '1.001'])\n"
                "print(code, 'numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert (res.returncode, res.stdout) == (0, "0 False False\n")
