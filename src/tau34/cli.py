"""Command-line front end: sweeps, certification runs and data emission.

Subcommands: sigma, certify, surface, tau, parametrix, critical, pi.
Global flags: --eta/--mu/--nu (point mode), --grid SPEC (per-axis
min:max:count[:log], comma-separated), --format csv|json, --out PATH,
--tol-scale F, --config PATH.  Outputs are deterministic and
bit-identical across runs; numbers are written with 17 significant digits.

Exit codes: 0 success, 1 certification failure, 2 usage/config error or a
solver failure (a point outside the domain, a Painleve I solve that meets a
pole, a residue quadrature that does not settle).
"""
import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import critical as cr
from . import lensing as ln
from . import param_domain as pd
from . import parametrix as px
from . import spectral_curve as sc
from . import tau_expansion as te


class ConfigError(ValueError):
    pass


@dataclass
class RunReport:
    command: str
    version: str
    records: list       # list of dicts, common keys
    n_failed: int
    wall_time: float


def fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit(report, columns, fmt_name, out_path):
    if fmt_name == "csv":
        lines = [",".join(columns)]
        for rec in report.records:
            lines.append(",".join(fmt(rec.get(c, "")) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        rows = []
        for rec in report.records:
            row = {}
            for c in columns:
                v = rec.get(c)
                if isinstance(v, (np.integer,)):
                    v = int(v)
                elif isinstance(v, (np.floating,)):
                    v = float(v)
                elif isinstance(v, (np.bool_,)):
                    v = bool(v)
                row[c] = v
            rows.append(row)
        text = json.dumps(rows, indent=1, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_grid(spec):
    """Per-axis grid specs 'min:max:count[:log]', comma separated."""
    axes = []
    for part in spec.split(","):
        bits = part.split(":")
        if len(bits) not in (3, 4):
            raise ConfigError(f"bad grid spec {part!r}")
        try:
            lo, hi = float(bits[0]), float(bits[1])
            count = int(bits[2])
        except ValueError:
            raise ConfigError(f"bad grid spec {part!r}")
        logscale = len(bits) == 4 and bits[3] == "log"
        if len(bits) == 4 and not logscale:
            raise ConfigError(f"bad grid modifier {bits[3]!r}")
        if count < 1:
            raise ConfigError("grid counts must be >= 1")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError("grid ranges must be finite")
        if logscale:
            if lo <= 0 or hi <= 0:
                raise ConfigError("log grids need positive endpoints")
            vals = np.geomspace(lo, hi, count)
        else:
            vals = np.linspace(lo, hi, count)
        axes.append([float(v) for v in vals])
    return axes


def read_config(path):
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(str(exc))
    return out


def point_grid(args):
    """Points from --grid (eta, mu, nu axes) or the single --eta/mu/nu."""
    if args.grid:
        axes = parse_grid(args.grid)
        defaults = [[args.eta], [args.mu], [args.nu]]
        while len(axes) < 3:
            axes.append(defaults[len(axes)])
        pts = [(e, m, n) for e in axes[0] for m in axes[1] for n in axes[2]]
    else:
        pts = [(args.eta, args.mu, args.nu)]
    if not pts:
        raise ConfigError("empty parameter grid")
    return pts


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

SIGMA_COLUMNS = ["eta", "mu", "nu", "sigma", "margin", "in_D"]


def cmd_sigma(args):
    points = point_grid(args)

    def work(pt):
        rep = pd.in_domain_D(pd.Params(*pt))
        return {"eta": pt[0], "mu": pt[1], "nu": pt[2],
                "sigma": rep.sigma, "margin": rep.margin,
                "in_D": bool(rep.in_D)}

    records = [work(pt) for pt in points]
    return RunReport("sigma", __version__, records, 0, 0.0), SIGMA_COLUMNS


CERTIFY_COLUMNS = ["eta", "mu", "nu", "check", "value", "tolerance", "passed"]


def stokes_verdict(corrupt=False):
    """Exact truncated Stokes constraint (one multiplier off if `corrupt`)."""
    data = px.StokesData.truncated()
    if corrupt:
        data = px.StokesData(s={**data.s, 5: data.s[5] + 1})
    return px.stokes_check(data)


def certify_point(pt, tol_scale, stokes_ok=None):
    eta, mu, nu = pt
    p = pd.Params(eta, mu, nu)
    records = []

    def add(check, value, tol, ok=None):
        ok = bool(value <= tol) if ok is None else bool(ok)
        records.append({"eta": eta, "mu": mu, "nu": nu, "check": check,
                        "value": value, "tolerance": tol, "passed": ok})

    rep = pd.in_domain_D(p)
    boundary = not rep.in_D
    sigma = rep.sigma if rep.in_D else None
    if boundary:
        # eta * eta * eta overflows to inf where eta**3 would raise
        if mu == 0.0 and eta > 0 and abs(nu - 125.0 * eta * eta * eta
                                          / 108.0) < 1e-9 * (1.0 + abs(nu)):
            sigma = 5.0 * eta / 3.0
        else:
            add("domain:overflow" if "overflow" in rep.reason else "domain",
                1.0, 0.0, ok=False)
            return records
    curve = sc.build_curve(p, sigma=sigma)

    for r in ln.verify_inequalities(curve):
        add(f"lensing:{r.contour.kind}", -r.min_signed_value, 0.0,
            ok=r.all_pass)

    # the row keeps the name of the slope fit it replaced
    try:
        margin = sc.check_g_asymptotics(curve)
    except sc.AsymptoticsError:
        margin = math.nan   # no margin to report; nan <= tol fails the row
    add("g-asymptotics-slope", margin, 0.02 * tol_scale)

    jr = px.jump_residuals(curve)
    add("M-jump-alpha", jr["alpha"], 1e-10 * tol_scale)
    add("M-jump-beta", jr["beta"], 1e-10 * tol_scale)
    add("M-normalization-slope",
        abs(px.normalization_slope(curve) + 1.0), 0.05 * tol_scale)

    if stokes_ok is None:
        stokes_ok = stokes_verdict()
    add("stokes-constraint", 0.0 if stokes_ok else 1.0, 0.0, ok=stokes_ok)

    if not boundary:
        try:
            tl = te.tau_leading(p, sigma=sigma)
            grad, closed = te.dlogtau_consistency(p, sigma=sigma)
            flows = te.flow_compatibility(p, sigma=sigma)
        except OverflowError:
            # sigma**5 leaves double range once sigma passes about 1e61
            add("tau:overflow", 1.0, 0.0, ok=False)
            return records
        scale = 1.0 + abs(tl.varpi0)
        add("dlogtau-gradients", max(map(abs, grad)) / scale,
            1e-6 * tol_scale)
        add("dlogtau-closedness", max(map(abs, closed)) / scale,
            1e-6 * tol_scale)
        add("flow-compatibility", max(map(abs, flows)), 1e-10 * tol_scale)
        # P depends on mu^2 only: this is the dP/dsigma solve_sigma returns
        dP = pd.eval_P(sigma, p)[1]
        chi_resid = abs(tl.chi + 2.0 * (5.0 * eta - 3.0 * sigma) * dP)
        add("chi-identity", chi_resid / (1.0 + abs(tl.chi)),
            1e-12 * tol_scale)
    return records


def cmd_certify(args):
    points = point_grid(args)
    stokes_ok = stokes_verdict(args.corrupt_stokes)
    records = []
    for pt in points:
        records.extend(certify_point(pt, args.tol_scale, stokes_ok))
    n_failed = sum(not r["passed"] for r in records)
    return RunReport("certify", __version__, records, n_failed, 0.0), \
        CERTIFY_COLUMNS


SURFACE_COLUMNS = ["sigma", "eta", "nu", "mu_plus", "mu_minus",
                   "t1", "t2_plus", "t5", "abs_discriminant"]


def cmd_surface(args):
    sig_axis, eta_axis = (parse_grid(args.grid) + [[1.0]])[:2] if args.grid \
        else ([0.1 + 0.1 * k for k in range(30)], [args.eta])
    records = []
    for eta in eta_axis:
        for sig in sig_axis:
            if sig <= max(5.0 * eta / 3.0, 0.0):
                continue
            nu, mup, mum, t1, t2p, t5 = cr.surface_param(sig, eta)
            d = abs(float(cr.surface_discriminant(pd.Params(eta, mup, nu))))
            records.append({"sigma": sig, "eta": eta, "nu": nu,
                            "mu_plus": mup, "mu_minus": mum, "t1": t1,
                            "t2_plus": t2p, "t5": t5,
                            "abs_discriminant": d})
    gm_eta, gm_angle = cr.gauss_angle_max()
    records.append({"sigma": float("nan"), "eta": gm_eta, "nu": float("nan"),
                    "mu_plus": 0.0, "mu_minus": 0.0, "t1": float("nan"),
                    "t2_plus": 0.0, "t5": gm_eta,
                    "abs_discriminant": gm_angle})
    return RunReport("surface", __version__, records, 0, 0.0), \
        SURFACE_COLUMNS


TAU_COLUMNS = ["eta", "mu", "nu", "sigma", "varpi0", "chi",
               "h1_0", "h2_0", "h5_0"]


def cmd_tau(args):
    points = point_grid(args)

    def work(pt):
        p = pd.Params(*pt)
        sol = pd.solve_sigma(p)
        try:
            tl = te.tau_leading(p, sigma=sol.sigma)
            h = te.leading_hamiltonians(p, sigma=sol.sigma)
        except OverflowError:
            raise pd.DomainError(
                f"sigma = {sol.sigma!r}: the tau data overflow double "
                "precision") from None
        return {"eta": pt[0], "mu": pt[1], "nu": pt[2], "sigma": sol.sigma,
                "varpi0": tl.varpi0, "chi": tl.chi, "h1_0": h.h1_0,
                "h2_0": h.h2_0, "h5_0": h.h5_0}

    records = [work(pt) for pt in points]
    return RunReport("tau", __version__, records, 0, 0.0), TAU_COLUMNS


PARAMETRIX_COLUMNS = ["kind", "key", "value"]


def cmd_parametrix(args):
    records = []
    data = px.StokesData.truncated()
    records.append({"kind": "stokes", "key": "constraint",
                    "value": px.stokes_check(data)})
    planes = px.plane_membership(px.TRUNCATED_S7)
    records.append({"kind": "stokes", "key": "planes",
                    "value": "|".join(str(k) for k in sorted(planes))})
    co = px.airy_series(args.kmax)
    for k in range(args.kmax + 1):
        records.append({"kind": "airy", "key": f"s_{k}", "value": str(co.s[k])})
        records.append({"kind": "airy", "key": f"t_{k}", "value": str(co.t[k])})
    p = pd.Params(args.eta, args.mu, args.nu)
    curve = sc.build_curve(p)
    jr = px.jump_residuals(curve)
    records.append({"kind": "parametrix", "key": "jump_alpha",
                    "value": jr["alpha"]})
    records.append({"kind": "parametrix", "key": "jump_beta",
                    "value": jr["beta"]})
    records.append({"kind": "parametrix", "key": "normalization_slope",
                    "value": px.normalization_slope(curve)})
    rd = px.residue_W1(curve)
    for i in range(3):
        for j in range(3):
            records.append({"kind": "residue", "key": f"W1_{i+1}{j+1}",
                            "value": float(np.real(rd.W1[i, j]))})
    records.append({"kind": "residue", "key": "pairing",
                    "value": float(np.real(-(rd.W1 + rd.W1_hat)[2, 0]))})
    return RunReport("parametrix", __version__, records, 0, 0.0), \
        PARAMETRIX_COLUMNS


CRITICAL_COLUMNS = ["eta0", "C_down", "tauhat0_exponent", "varpi0_boundary",
                    "normalizer_gap", "c_lead_plus", "c_lead_minus"]


def cmd_critical(args):
    eta_axis = parse_grid(args.grid)[0] if args.grid else [args.eta]
    records = []
    for eta0 in eta_axis:
        if eta0 <= 0:
            continue
        # q and v are eta0^7 times a constant: below eta0 = 1 they are
        # evaluated in mpmath at double precision, whose exponent does not
        # underflow, and printed rounded to doubles (-0.0 below about 1e-46)
        e = eta0
        if eta0 < 1.0:
            import mpmath
            mp = mpmath.mp.clone()
            mp.prec = 53
            e = mp.mpf(eta0)
        try:
            nu0 = 125 * e**3 / 108
            q = cr.tauhat0_exponent(e, nu0, e)
            v = te.tau_leading(pd.Params(e, 0.0, nu0), sigma=5 * e / 3).varpi0
            gap = float(abs(q - v) / max(abs(q), abs(v)))
        except OverflowError:
            gap = math.inf
        # varpi0 grows like eta0^7: beyond about 1e44 it is not a double
        if not math.isfinite(gap):
            raise pd.DomainError(f"eta0 = {eta0!r}: the normalizer exponent "
                                 "overflows double precision")
        records.append({
            "eta0": eta0,
            "C_down": cr.scaling_constant_plus(eta0, (0.0, -1.0)),
            "tauhat0_exponent": float(q),
            "varpi0_boundary": float(v),
            "normalizer_gap": gap,
            "c_lead_plus": cr.tritronquee_constant(eta0, "plus"),
            "c_lead_minus": cr.tritronquee_constant(-eta0, "minus"),
        })
    if not records:
        raise ConfigError("no positive eta0 values in the grid")
    return RunReport("critical", __version__, records, 0, 0.0), \
        CRITICAL_COLUMNS


PI_COLUMNS = ["x", "q", "qprime", "H", "H_residual"]


def cmd_pi(args):
    if not (math.isfinite(args.x_start) and math.isfinite(args.x_end)):
        raise ConfigError("x-start and x-end must be finite")
    if args.x_count < 2:
        raise ConfigError("x-count must be >= 2")
    if args.x_start > -20.0:
        raise ConfigError("x-start must be <= -20 (asymptotic seed region)")
    tr = cr.pi_integrate(args.x_start, args.x_end, n_points=args.x_count)
    resid = tr.hamiltonian_residuals()
    records = [{"x": float(tr.x[i]), "q": float(tr.q[i]),
                "qprime": float(tr.qprime[i]), "H": float(tr.H[i]),
                "H_residual": float(resid[i])}
               for i in range(len(tr.x))]
    # degeneration constants on both strata
    for side, e0 in (("plus", 1.0), ("minus", -1.0)):
        records.append({"x": float("nan"), "q": float("nan"),
                        "qprime": float("nan"),
                        "H": cr.tritronquee_constant(e0, side),
                        "H_residual": float("nan")})
    return RunReport("pi", __version__, records, 0, 0.0), PI_COLUMNS


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The `tau34` argument parser, built once per process and shared: parse
    with it, do not modify it."""
    ap = argparse.ArgumentParser(
        prog="tau34",
        description="Spectral-curve and tau-function numerics for the "
                    "(3,4) string equation")
    sub = ap.add_subparsers(dest="command", required=True)
    # the flags every subcommand takes, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="flat key = value config file")
    common.add_argument("--eta", type=float, default=1.0)
    common.add_argument("--mu", type=float, default=0.0)
    common.add_argument("--nu", type=float, default=0.0)
    common.add_argument("--grid", type=str, default=None,
                        help="per-axis min:max:count[:log], comma separated")
    common.add_argument("--format", dest="format_", choices=("csv", "json"),
                        default="csv")
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--tol-scale", dest="tol_scale", type=float,
                        default=1.0)
    for name, fn in (("sigma", cmd_sigma), ("certify", cmd_certify),
                     ("surface", cmd_surface), ("tau", cmd_tau),
                     ("parametrix", cmd_parametrix),
                     ("critical", cmd_critical), ("pi", cmd_pi)):
        sub.add_parser(name, parents=[common]).set_defaults(func=fn)
    sub.choices["certify"].add_argument("--corrupt-stokes",
                                        action="store_true",
                                        help="debug: negative control")
    sub.choices["parametrix"].add_argument("--kmax", type=int, default=5)
    sub.choices["pi"].add_argument("--x-start", type=float, default=-24.0)
    sub.choices["pi"].add_argument("--x-end", type=float, default=-1.0)
    sub.choices["pi"].add_argument("--x-count", type=int, default=231)
    return ap


def apply_config(args, argv):
    if not args.config:
        return args
    conf = read_config(args.config)
    passed_flags = {a.lstrip("-").split("=", 1)[0].replace("-", "_")
                    for a in argv if a.startswith("--")}
    mapping = {"eta": float, "mu": float, "nu": float, "grid": str,
               "format": str, "out": str, "tol-scale": float,
               "kmax": int, "x-start": float, "x-end": float,
               "x-count": int}
    for key, raw in conf.items():
        if key not in mapping:
            raise ConfigError(f"unknown config key {key!r}")
        attr = key.replace("-", "_")
        if attr == "format":
            attr = "format_"
        if key.replace("-", "_") in passed_flags or key in passed_flags:
            continue    # flags override the file
        if not hasattr(args, attr):
            continue
        try:
            setattr(args, attr, mapping[key](raw))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}")
    return args


def _attach_grid_values(argv):
    """`--grid SPEC` as `--grid=SPEC`: argparse takes a SPEC that starts
    with a minus sign, such as -1:2:3, for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--grid":
            out[-1] = "--grid=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _attach_grid_values(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    t0 = time.perf_counter()
    try:
        args = apply_config(args, argv)
        report, columns = args.func(args)
    except (ConfigError, ValueError, cr.PoleEncountered,
            px.QuadratureError) as exc:
        print(f"tau34: error: {exc}", file=sys.stderr)
        return 2
    report.wall_time = time.perf_counter() - t0
    emit(report, columns, args.format_, args.out)
    print(f"tau34 {report.command}: {len(report.records)} records, "
          f"{report.n_failed} failed, {report.wall_time:.2f}s",
          file=sys.stderr)
    return 1 if report.n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
