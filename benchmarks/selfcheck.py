"""Self-check of the benchmark itself (about a minute on two cores).

    python3 benchmarks/selfcheck.py

1. Smoke: every workload at reduced size with a non-default seed, untraced
   and traced; each run must be correct and print every metric BENCHMARK.json
   lists for its mode, by name and with its unit, in the human-readable lines
   and in the JSON result line, plus the printed-only error_share (and, when
   untraced, call_p50_ms and outputs_identical).
2. Tracing: while installed, the tracer rebinds the aliases of traced
   functions across tau34 modules; traced CLI output is byte-identical to the
   untraced output; after `restore()` every binding is the original object.
3. Checks: every checker accepts real CLI output and rejects a corrupted copy.
4. Without the program: in a directory holding only BENCHMARK.json and the
   benchmark, run.py exits non-zero without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""
import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

SEED = 7
PROBLEMS = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        PROBLEMS.append(what)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke(spec):
    for workload in ("certify_d20", "sigma_sweep", "parametrix_pi"):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and lines, f"{tag}: exits 0")
            if proc.returncode != 0 or not lines:
                print(proc.stderr)
                continue
            res = json.loads(lines[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(res["correct"] is True and res["failed"] == 0
                   and res["attempted"] >= 1, f"{tag}: correct, no failures")
            listed = spec["per_layer" if trace else "end_to_end"]
            expect(set(res["metrics"]) == {m["name"] for m in listed},
                   f"{tag}: every listed metric, nothing else")
            human = "\n".join(lines[:-1])
            for m in listed:
                got = res["metrics"].get(m["name"], {})
                value = got.get("value")
                expect(got.get("unit") == m["unit"]
                       and isinstance(value, (int, float))
                       and math.isfinite(value)
                       and re.search(rf"^  {re.escape(m['name'])} = \S+ "
                                     rf"{re.escape(m['unit'])}\b", human,
                                     re.M) is not None,
                       f"{tag}: {m['name']} printed in {m['unit']}")
            extra = ["error_share"] + ([] if trace else ["call_p50_ms",
                                                           "outputs_identical"])
            expect(all(f"  {name} = " in human for name in extra),
                   f"{tag}: {', '.join(extra)} printed")


def tracing_selftest():
    import tau34.cli
    import tracing
    from tau34 import lensing, parametrix, spectral_curve
    from workloads import build

    calls = build("parametrix_pi", SEED, smoke=True)
    before = tracing.snapshot()
    tmp = tempfile.mkdtemp(dir=os.path.join(HERE, ".out"))
    try:
        def outputs():
            texts = []
            for k, call in enumerate(calls):
                path = os.path.join(tmp, f"{k}.csv")
                code = tau34.cli.main(list(call.argv) + ["--out", path])
                with open(path, "rb") as fh:
                    texts.append((code, fh.read()))
            return texts

        plain = outputs()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapped = [getattr(obj, "__wrapped__", None) is not None
                       for obj in (lensing.g_sheets_all,
                                   parametrix.uniformize_all,
                                   spectral_curve.solve_sigma,
                                   tau34.build_curve, tau34.cli.main)]
            traced = outputs()
        finally:
            tracer.restore()
        expect(all(wrapped), "aliases across tau34 modules are rebound")
        names = {s[0] for s in tracer.spans}
        expect({"cli.main", "kernels.sheet_roots", "parametrix.residue_W1",
                "critical.pi_integrate"} <= names, "spans name each layer")
        expect(traced == plain, "traced CLI output is byte-identical")
        after = tracing.snapshot()
        expect(after.keys() == before.keys()
               and all(after[k] is before[k] for k in before),
               "every binding is restored")
        tracer = tracing.Tracer()
        tracer.install()
        leaked = tracing.snapshot()
        tracer.restore()
        expect(any(leaked[k] is not before[k] for k in before),
               "a binding left wrapped would be detected")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def scale_cell(text, col, pick=lambda cols: True):
    """Scales column `col` of the first data row that `pick` accepts by one
    part in a million."""
    lines = text.split("\n")
    for k in range(1, len(lines)):
        cols = lines[k].split(",")
        if len(cols) > col and pick(cols):
            cols[col] = repr(float(cols[col]) * (1.0 + 1e-6))
            lines[k] = ",".join(cols)
            break
    return "\n".join(lines)


def checks_selftest():
    import tau34.cli
    from checks import check
    from workloads import build

    corrupt = {
        "certify": lambda t: t.replace(",true", ",false", 1),
        "sigma": lambda t: scale_cell(t, 3, lambda c: c[-1] == "true"),
        "parametrix": lambda t: re.sub(r"(jump_alpha,)[^\n]*", r"\g<1>1e-6",
                                       t),
        "pi": lambda t: scale_cell(t, 1),
    }
    tmp = tempfile.mkdtemp(dir=os.path.join(HERE, ".out"))
    try:
        calls = [c for w in ("certify_d20", "sigma_sweep", "parametrix_pi")
                 for c in build(w, SEED, smoke=True)]
        seen = set()
        for call in calls:
            if call.kind in seen:
                continue
            seen.add(call.kind)
            path = os.path.join(tmp, "out.csv")
            tau34.cli.main(list(call.argv) + ["--out", path])
            with open(path) as fh:
                text = fh.read()
            expect(check(call, text)[0] == 0, f"{call.kind}: output accepted")
            bad = corrupt[call.kind](text)
            expect(bad != text and check(call, bad)[0] > 0,
                   f"{call.kind}: corrupted output rejected")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bare_checkout():
    tmp = tempfile.mkdtemp(dir=os.path.join(HERE, ".out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "benchmarks"),
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        proc = run_bench("parametrix_pi", 0, cwd=tmp)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the program: non-zero exit, no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.devnull, "w") as devnull, \
            contextlib.redirect_stderr(devnull):
        tracing_selftest()
        checks_selftest()
    bare_checkout()
    smoke(spec)
    print(f"{len(PROBLEMS)} problems" if PROBLEMS else "selfcheck passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
