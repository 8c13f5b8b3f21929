import argparse
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tau34 import cli
from tau34 import param_domain as pd
from tau34.cli import build_parser, certify_point, main, parse_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_grid_linear(self):
        axes = parse_grid("0:1:3")
        assert axes == [[0.0, 0.5, 1.0]]

    def test_grid_log(self):
        axes = parse_grid("1:100:3:log")
        assert axes[0] == pytest.approx([1.0, 10.0, 100.0])

    def test_grid_multi_axis(self):
        axes = parse_grid("0:1:2,5:5:1")
        assert axes == [[0.0, 1.0], [5.0]]

    def test_grid_errors(self):
        from tau34.cli import ConfigError
        for bad in ("0:1:0", "0:1", "a:b:c", "1:2:3:cubic", "-1:1:3:log"):
            with pytest.raises(ConfigError):
                parse_grid(bad)


def _reference_parser():
    """Test-only oracle: the common flags added to each subparser in turn."""
    ap = argparse.ArgumentParser(prog="tau34")
    sub = ap.add_subparsers(dest="command", required=True)
    common = {
        "--config": dict(type=str, default=None),
        "--eta": dict(type=float, default=1.0),
        "--mu": dict(type=float, default=0.0),
        "--nu": dict(type=float, default=0.0),
        "--grid": dict(type=str, default=None),
        "--format": dict(dest="format_", choices=("csv", "json"),
                         default="csv"),
        "--out": dict(type=str, default=None),
        "--tol-scale": dict(dest="tol_scale", type=float, default=1.0),
    }
    for name in ("sigma", "certify", "surface", "tau", "parametrix",
                 "critical", "pi"):
        sp = sub.add_parser(name)
        for flag, kw in common.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(func=getattr(cli, f"cmd_{name}"))
    sub.choices["certify"].add_argument("--corrupt-stokes",
                                        action="store_true")
    sub.choices["parametrix"].add_argument("--kmax", type=int, default=5)
    sub.choices["pi"].add_argument("--x-start", type=float, default=-24.0)
    sub.choices["pi"].add_argument("--x-end", type=float, default=-1.0)
    sub.choices["pi"].add_argument("--x-count", type=int, default=231)
    return ap


class TestParser:
    COMMANDS = ("sigma", "certify", "surface", "tau", "parametrix",
                "critical", "pi")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flags", [
        [],
        ["--config", "run.conf"],
        ["--eta", "2", "--mu", "-0.1", "--nu", "0.5", "--format", "json",
         "--out", "o.json", "--tol-scale", "3", "--config", "run.conf"],
        ["--grid", "0:1:3,0:0.1:2", "--format=csv"],
    ])
    def test_namespace_unchanged(self, command, flags):
        argv = [command] + flags
        got = vars(build_parser().parse_args(argv))
        want = vars(_reference_parser().parse_args(argv))
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("argv", [
        ["certify", "--corrupt-stokes", "--eta", "0.5"],
        ["parametrix", "--kmax", "2"],
        ["pi", "--x-start", "-30", "--x-end", "-2", "--x-count", "7"],
    ])
    def test_subcommand_flags_unchanged(self, argv):
        assert vars(build_parser().parse_args(argv)) == \
            vars(_reference_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["sigma", "--bogus"], ["pi", "--eta"],
        ["sigma", "--format", "xml"], ["tau", "--kmax", "2"],
        ["certify", "--eta", "x"],
    ])
    def test_usage_errors_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert "usage: tau34" in capsys.readouterr().err

    def test_parser_built_once(self, capsys):
        parser = build_parser()
        assert run(capsys, "sigma")[0] == 0
        assert build_parser() is parser


class TestSigma:
    def test_point_row(self, capsys):
        code, out, _ = run(capsys, "sigma", "--eta", "1", "--mu", "0",
                           "--nu", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eta,mu,nu,sigma,margin,in_D"
        assert lines[1] == "1,0,0,2.5,3.125,true"

    def test_boundary_row_exit_zero(self, capsys):
        code, out, _ = run(capsys, "sigma", "--eta", "1", "--nu",
                           "1.1574074074074074")
        assert code == 0
        assert out.strip().splitlines()[1].endswith("false")

    def test_overflowing_eta_row(self, capsys):
        code, out, _ = run(capsys, "sigma", "--eta", "1e200")
        assert code == 0
        assert out.strip().splitlines()[1] == "9.9999999999999997e+199,0,0,nan,0,false"

    def test_eta_near_float_max_is_out_of_domain(self, capsys):
        # 2.5 eta, and so the Newton start, is inf
        code, out, err = run(capsys, "sigma", "--eta", "1e308")
        assert code == 0
        assert out.strip().splitlines()[1] == "1e+308,0,0,nan,0,false"
        assert "Traceback" not in err

    def test_empty_grid_exit_two(self, capsys):
        code, _, err = run(capsys, "sigma", "--grid", "0:1:0")
        assert code == 2

    def test_grid_with_leading_minus(self, capsys):
        # argparse reads -1:2:3 as an option unless it is joined by '='
        spec = "-1:2:3,-0.1:0.1:2,-1:1:2"
        code, out, _ = run(capsys, "sigma", "--grid", spec)
        assert code == 0
        assert out.count("\n") == 13
        assert (0, out) == run(capsys, "sigma", f"--grid={spec}")[:2]

    def test_grid_without_value_exit_two(self, capsys):
        code, _, err = run(capsys, "sigma", "--grid")
        assert code == 2
        assert "expected one argument" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sigma", "--format", "json")
        rows = json.loads(out)
        assert rows[0]["sigma"] == 2.5

    def test_jobs_flag_removed(self, capsys):
        code, _, err = run(capsys, "sigma", "--jobs", "2")
        assert code == 2
        assert "--jobs" in err


class TestCertify:
    def test_interior_point_passes(self, capsys):
        code, out, _ = run(capsys, "certify", "--eta", "1", "--mu", "0.1",
                           "--nu", "0.2")
        assert code == 0
        assert ",false" not in out

    def test_corrupt_stokes_fails(self, capsys):
        code, out, _ = run(capsys, "certify", "--eta", "1",
                           "--corrupt-stokes")
        assert code == 1
        assert "stokes-constraint" in out

    def test_boundary_annotated(self, capsys):
        code, out, _ = run(capsys, "certify", "--eta", "1", "--nu",
                           "1.1574074074074074")
        assert code == 0


    def test_small_leading_coefficient_point_passes(self):
        # the tau^-1 coefficient -h1_0/2 = -0.0127 is small against the
        # tau^-2 one (0.196): a slope fit on |lambda| in [1e3, 1e6] read
        # -0.201 here, the exact Laurent claim passes
        recs = certify_point((1.1829, 0.1138, 1.1306), 1.0)
        assert [r["check"] for r in recs if not r["passed"]] == []

    # (0, +-0.75, -1) and (-0.15, +-0.6, -0.75) have two simple roots above
    # max(5 eta/3, 0); with the smaller one lensing fails
    @pytest.mark.parametrize("pt", [(0.0, 0.75, -1.0), (0.0, -0.75, -1.0),
                                    (-0.15, 0.6, -0.75),
                                    (-0.15, -0.6, -0.75)])
    def test_domain_and_lensing_agree(self, pt):
        recs = certify_point(pt, 1.0)
        assert [r["check"] for r in recs if not r["passed"]] == []

    # nu = None: 1e-6 (1 + |nu_critical|) below the critical surface, where
    # central differences with the step 1e-5 (1 + |x|) left D.  `failing`
    # pins the rows that fail there; None leaves them unchecked
    @pytest.mark.parametrize("eta, mu, nu, failing", [
        (1.0, 0.05, None, set()),
        (1.0, 0.0, None, {"lensing:rising-alpha"}),
        (0.5, 0.2, None, set()),
        (-1e40, 0.0, -1e100, None),
    ], ids=["1.0-0.05", "1.0-0.0", "0.5-0.2", "-1e40-0.0--1e100"])
    def test_near_surface_passes_dlogtau(self, eta, mu, nu, failing):
        from tau34.critical import nu_critical
        if nu is None:
            nc = nu_critical(eta, mu)
            nu = nc - 1e-6 * (1.0 + abs(nc))
        recs = certify_point((eta, mu, nu), 1.0)
        passed = {r["check"]: r["passed"] for r in recs}
        assert passed["dlogtau-gradients"] and passed["dlogtau-closedness"]
        assert "chi-identity" in passed
        if failing is not None:
            assert {c for c, ok in passed.items() if not ok} == failing

    def test_overflowing_eta_is_out_of_domain(self, capsys):
        code, out, err = run(capsys, "certify", "--eta", "1e200")
        assert code == 1
        assert ",domain:overflow,1,0,false" in out
        assert "Traceback" not in err

    def test_overflowing_tau_data_fail_a_row(self, capsys):
        # sigma = 5.8e66 is in D, but sigma**5 leaves double range
        code, out, err = run(capsys, "certify", "--eta", "1", "--nu=-1e200")
        assert code == 1
        assert out.endswith(",tau:overflow,1,0,false\n")
        assert "Traceback" not in err

    @given(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_points_in_domain_return_records(self, eta, mu, nu):
        assume(pd.in_domain_D(pd.Params(eta, mu, nu)).in_D)
        recs = certify_point((eta, mu, nu), 1.0)
        assert "chi-identity" in {r["check"] for r in recs}

    def test_interior_point_solves_sigma_once(self, monkeypatch):
        # in_domain_D at the point; every later stage reuses its sigma
        import tau34.param_domain as pd
        import tau34.spectral_curve as sc
        calls = []
        solve = pd.solve_sigma

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(pd, "solve_sigma", counted)
        monkeypatch.setattr(sc, "solve_sigma", counted)
        recs = certify_point((1.0, 0.05, -0.3), 1.0)
        assert all(r["passed"] for r in recs)
        assert "chi-identity" in {r["check"] for r in recs}
        assert len(calls) == 1

    def test_stokes_checked_once_per_run(self, capsys, monkeypatch):
        import tau34.parametrix as px
        calls = []
        check = px.stokes_check

        def counted(data):
            calls.append(data)
            return check(data)

        monkeypatch.setattr(px, "stokes_check", counted)
        code, out, _ = run(capsys, "certify", "--grid",
                           "1:1:1,0:0.05:2,0.2:0.2:1")
        assert code == 0
        assert out.count("stokes-constraint,0,0,true") == 2
        assert len(calls) == 1

    def test_certify_does_not_import_mpmath(self):
        code = ("import sys; from tau34.cli import certify_point; "
                "certify_point((1.0, 0.1, 0.2), 1.0); "
                "print('mpmath' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_point_commands_do_not_import_scipy(self, tmp_path):
        # pi: the Painleve I solve is numpy collocation, not solve_bvp;
        # surface: the Gauss-angle maximum is in closed form, not a search;
        # and no module of the package imports scipy anywhere
        import ast
        src = Path(cli.__file__).parent
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), \
                    f"{path.name}:{node.lineno} imports scipy"
        code = ("import sys; from tau34.cli import main; "
                "[main([cmd, '--mu=0.05', '--out', sys.argv[1]]) "
                "for cmd in ('certify', 'sigma', 'parametrix', 'pi', "
                "'surface', 'critical')]; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code,
                              str(tmp_path / "out.csv")], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_sigma_and_tau_do_not_import_numpy_polynomial(self, tmp_path):
        # only building a curve needs it (peak RSS of the sigma sweep)
        code = ("import sys; from tau34.cli import main; "
                "[main([cmd, '--mu=0.05', '--out', sys.argv[1]]) "
                "for cmd in ('sigma', 'tau')]; "
                "print('numpy.polynomial' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code,
                              str(tmp_path / "out.csv")], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestOutputs:
    def test_deterministic_files(self, tmp_path, capsys):
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run(capsys, "sigma", "--grid", "0.5:2:5",
                             "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_surface_rows(self, capsys):
        code, out, _ = run(capsys, "surface", "--grid", "0.3:2:6,-0.5:0.5:3")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:3] == ["sigma", "eta", "nu"]
        for line in out.strip().splitlines()[1:-1]:
            d = float(line.split(",")[-1])
            assert d < 1e-8

    def test_pi_rows(self, capsys):
        code, out, _ = run(capsys, "pi", "--x-count", "6")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        resid = [r.split(",")[-1] for r in rows[:6]]
        assert all(float(v) < 1e-8 for v in resid)
        # degeneration constants appended for both strata
        consts = [float(r.split(",")[3]) for r in rows[-2:]]
        assert all(abs(c - 0.4082482904638631) < 1e-6 for c in consts)

    def test_pi_seed_region_exit_two(self, capsys):
        code, _, _ = run(capsys, "pi", "--x-start", "-10")
        assert code == 2

    @pytest.mark.parametrize("argv", [["--x-end", "nan"], ["--x-start", "nan"],
                                      ["--x-end", "inf"], ["--x-count", "0"],
                                      ["--x-count", "1"]])
    def test_pi_bad_inputs_exit_two(self, capsys, argv):
        code, out, err = run(capsys, "pi", *argv)
        assert code == 2 and out == ""
        assert err.startswith("tau34: error: x-")

    def test_pi_pole_exit_two(self, capsys):
        code, out, err = run(capsys, "pi", "--x-end", "3")
        assert code == 2 and out == ""
        assert err.startswith("tau34: error: no pole-free solution")


class TestConfigFile:
    def test_file_and_override(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("eta = 2.0\nformat = json\n")
        code, out, _ = run(capsys, "sigma", "--config", str(conf))
        assert json.loads(out)[0]["eta"] == 2.0
        code, out, _ = run(capsys, "sigma", "--config", str(conf),
                           "--eta", "0.5")
        assert json.loads(out)[0]["eta"] == 0.5

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("volume = 11\n")
        code, _, _ = run(capsys, "sigma", "--config", str(conf))
        assert code == 2


class TestOther:
    @pytest.mark.parametrize("command", ["tau", "parametrix"])
    def test_point_outside_domain_exit_two(self, capsys, command):
        code, out, err = run(capsys, command, "--nu", "5")
        assert code == 2 and out == ""
        assert err.startswith("tau34: error: no real root above")

    def test_tau_overflow_exit_two(self, capsys):
        code, out, err = run(capsys, "tau", "--eta", "1", "--nu=-1e200")
        assert code == 2 and out == ""
        assert err.startswith("tau34: error: sigma = 5.848")
        assert "overflow" in err
        # the root itself is a double
        code, out, _ = run(capsys, "sigma", "--eta", "1", "--nu=-1e200")
        assert code == 0 and ",5.8480354764257324e+66," in out

    def test_tau_columns(self, capsys):
        code, out, _ = run(capsys, "tau", "--eta", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(-15625.0 / 43008.0)

    def test_parametrix_records(self, capsys):
        code, out, _ = run(capsys, "parametrix", "--kmax", "1")
        assert code == 0
        assert "stokes,planes,0|1" in out
        assert "airy,s_1,5/72" in out

    def test_parametrix_near_minus_stratum(self, capsys):
        # |alpha - beta| = 1.1e-5: the residue circle about beta once
        # enclosed alpha, and the quadrature never settled
        code, out, err = run(capsys, "parametrix", "--eta=-5", "--nu=-1e-6")
        assert code == 0 and "residue,pairing," in out

    def test_parametrix_unsettled_quadrature_exit_two(self, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(cli.px, "residue_W1", functools.partial(
            cli.px.residue_W1, agreement=0.0))
        code, out, err = run(capsys, "parametrix")
        assert code == 2 and out == ""
        assert err.startswith("tau34: error: residue quadrature did not "
                              "stabilize")

    def test_critical_records(self, capsys):
        code, out, _ = run(capsys, "critical", "--eta", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx((10.0 / 3.0) ** 0.2)
        assert float(row[4]) < 1e-10

    @pytest.mark.parametrize("eta", ["300", "1000", "1e30"])
    def test_critical_large_eta_constants(self, capsys, eta):
        code, out, _ = run(capsys, "critical", "--eta", eta)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        for c in row[-2:]:
            assert abs(float(c) - 6.0 ** -0.5) < 1e-6
        # the gap is relative: the two exponents are of size eta0^7
        assert float(row[4]) <= 1e-13

    @pytest.mark.parametrize("eta", ["1e-40", "1e-50"])
    def test_critical_small_eta_gap(self, capsys, eta):
        # both exponents are eta0^7 times the rational -203125/979776: the
        # columns print that value rounded to a double (-0.0 at 1e-50, where
        # doubles underflow), and the gap is read at eta0 itself from the
        # exponents in mpmath at double precision
        from fractions import Fraction
        from tau34.critical import tauhat0_exponent
        from tau34.tau_expansion import tau_leading
        const = Fraction(-203125, 979776)
        assert tauhat0_exponent(Fraction(1), Fraction(125, 108),
                                Fraction(1)) == const
        code, out, _ = run(capsys, "critical", "--eta", eta)
        assert code == 0
        row = [float(c) for c in out.strip().splitlines()[1].split(",")]
        mp = pytest.importorskip("mpmath").mp.clone()
        mp.dps = 40
        want = float(mp.mpf(row[0]) ** 7 * const.numerator / const.denominator)
        for got in row[2:4]:
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
            assert math.copysign(1.0, got) == -1.0
        mp.prec = 53
        e0 = mp.mpf(row[0])
        nu0 = 125 * e0**3 / 108
        q = tauhat0_exponent(e0, nu0, e0)
        v = tau_leading(pd.Params(e0, 0.0, nu0), sigma=5 * e0 / 3).varpi0
        assert row[4] == float(abs(q - v) / max(abs(q), abs(v)))
        assert 0.0 < row[4] <= 1e-13

    @pytest.mark.parametrize("eta", ["1e60", "1e120"])
    def test_critical_overflowing_eta_exit_two(self, capsys, eta):
        code, out, err = run(capsys, "critical", "--eta", eta)
        assert code == 2 and out == ""
        assert err.startswith("tau34: error: eta0 = ")
        assert "Traceback" not in err
