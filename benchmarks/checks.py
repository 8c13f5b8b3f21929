"""Output checks for the benchmark's CLI calls.

Each checker reads the CSV a call wrote and returns the number of the call's
points that failed and a list of messages.  The checks use closed forms and
the inputs the benchmark generated; none of them calls into `tau34`.
"""
import csv
import io
import math

#: stages every certified point must report (lensing rows are matched by prefix)
CERTIFY_STAGES = ("g-asymptotics-slope", "M-jump-alpha", "M-jump-beta",
                  "M-normalization-slope", "stokes-constraint",
                  "dlogtau-gradients", "dlogtau-closedness",
                  "flow-compatibility", "chi-identity")
#: relative residual of the branch equation at a reported root; Newton stops
#: at 1e-13 (1 + |sigma|^3), so a root of the right equation sits far below
SIGMA_RESIDUAL_TOL = 1e-10
JUMP_TOL = 1e-10
H_RESIDUAL_TOL = 1e-8
PI_SEED_TOL = 1e-8
#: leading tritronquee coefficient on both strata: 6^(-1/2)
TRITRONQUEE_C = 1.0 / math.sqrt(6.0)
TRITRONQUEE_TOL = 1e-6


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _same_point(row, pt):
    return (float(row["eta"]), float(row["mu"]), float(row["nu"])) == pt


def check_certify(call, text):
    rows = _rows(text)
    msgs = []
    if not all(_same_point(r, call.inputs) for r in rows):
        msgs.append("rows name another point")
    stages = {r["check"] for r in rows}
    missing = [s for s in CERTIFY_STAGES if s not in stages]
    if missing or not any(s.startswith("lensing:") for s in stages):
        msgs.append(f"missing stages {missing or ['lensing']}")
    msgs += [f"{r['check']} failed (value {r['value']}, tolerance "
             f"{r['tolerance']})" for r in rows if r["passed"] != "true"]
    return (1 if msgs else 0), msgs


def branch_residual(eta, mu, nu, sigma):
    """|P(sigma)| over the sum of its terms' magnitudes."""
    terms = [nu, 0.5 * sigma**3, -1.25 * eta * sigma**2]
    if mu != 0.0:
        terms.append(6.0 * mu**2 / (5.0 * eta - 3.0 * sigma) ** 2)
    return abs(math.fsum(terms)) / (1.0 + sum(abs(t) for t in terms))


def check_sigma(call, text):
    rows = _rows(text)
    if len(rows) != call.points:
        return call.points, [f"{len(rows)} rows for {call.points} points"]
    failed, msgs = 0, []
    for row, pt in zip(rows, call.inputs):
        eta, mu, nu = pt
        bad = None
        if not _same_point(row, pt):
            bad = "row names another point"
        elif row["in_D"] == "true":
            sigma = float(row["sigma"])
            if not sigma > max(5.0 * eta / 3.0, 0.0):
                bad = f"sigma {sigma!r} fails sigma > max(5 eta/3, 0)"
            elif not branch_residual(eta, mu, nu, sigma) <= SIGMA_RESIDUAL_TOL:
                bad = f"sigma {sigma!r} is not a root of the branch equation"
        if bad:
            failed += 1
            msgs.append(f"{pt}: {bad}")
    return failed, msgs


def check_parametrix(call, text):
    values = {(r["kind"], r["key"]): r["value"] for r in _rows(text)}
    msgs = []
    for key in ("jump_alpha", "jump_beta"):
        v = float(values.get(("parametrix", key), "nan"))
        if not v <= JUMP_TOL:
            msgs.append(f"{key} = {v!r} exceeds {JUMP_TOL}")
    w1 = [float(v) for (kind, key), v in values.items()
          if kind == "residue" and key.startswith("W1_")]
    if len(w1) != 9 or not all(map(math.isfinite, w1)):
        msgs.append("W1 is missing or not finite")
    return (1 if msgs else 0), msgs


def pi_seed(x):
    """Two-term seed q = sqrt(-x/6) - 1/(48 x^2) of the pole-free branch."""
    return math.sqrt(-x / 6.0) - 1.0 / (48.0 * x * x)


def check_pi(call, text):
    x_start, x_end = call.inputs
    rows = _rows(text)
    traj = [r for r in rows if math.isfinite(float(r["x"]))]
    consts = [float(r["H"]) for r in rows if not math.isfinite(float(r["x"]))]
    msgs = []
    if not traj or float(traj[0]["x"]) != x_start \
            or float(traj[-1]["x"]) != x_end:
        return 1, ["trajectory does not span [x_start, x_end]"]
    worst = max(float(r["H_residual"]) for r in traj)
    if not worst < H_RESIDUAL_TOL:
        msgs.append(f"H_residual {worst!r} exceeds {H_RESIDUAL_TOL}")
    q0 = float(traj[0]["q"])
    if not abs(q0 - pi_seed(x_start)) <= PI_SEED_TOL:
        msgs.append(f"q(x_start) = {q0!r} misses the seed {pi_seed(x_start)!r}")
    if len(consts) != 2 or not all(abs(c - TRITRONQUEE_C) < TRITRONQUEE_TOL
                                   for c in consts):
        msgs.append(f"tritronquee constants {consts} are not 6^(-1/2)")
    return (1 if msgs else 0), msgs


CHECKERS = {"certify": check_certify, "sigma": check_sigma,
            "parametrix": check_parametrix, "pi": check_pi}


def check(call, text):
    """(failed points, messages) for one call's CSV output."""
    try:
        return CHECKERS[call.kind](call, text)
    except (KeyError, ValueError) as exc:
        return call.points, [f"unreadable output: {exc!r}"]
