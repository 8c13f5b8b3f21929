"""tau34 benchmark: runs one workload through `tau34.cli.main` in-process.

    python3 benchmarks/run.py --workload certify_d20 --seed 0 --seconds 33 --trace 0
    python3 benchmarks/run.py --workload all --seconds 33

Every call is `main(argv + ["--out", <temp file>])` with the CLI's default
flags (`--jobs 1`, CSV), exactly as a user runs the CLI.  Each workload runs
in its own interpreter; `--workload all` starts one per workload.

--trace 0 measures the end-to-end metrics: throughput and latency over warm
calls for --seconds seconds, peak RSS, and set-up time (median over fresh
interpreters, see probe.py).  --trace 1 alternates untraced and traced passes
for --seconds seconds and reports per-layer metrics (medians over the traced
passes; tracing.py), the kernel microbenchmark (bench_kernels.py), and checks
that tracing changes no output byte and leaves no wrapper behind.

Every output is checked (checks.py).  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics, where metrics are those BENCHMARK.json lists for the mode.
"""
import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import DEFAULT_SEED, WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".out")
SETUP_PROBES = 5
#: every end-to-end metric printed; BENCHMARK.json lists the ones that gate
E2E_UNITS = {"points_per_s": "points/s", "call_p50_ms": "ms",
             "call_tail_ms": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}
#: a tail percentile needs at least this many calls beyond it
TAIL_BEYOND = 10
#: points_per_s takes each call's fastest warm time when every call ran at
#: least this often in the run, and its mean time otherwise: the fastest of a
#: few runs depends on how many there were, which the host's speed sets
FASTEST_SAMPLES = 8
STAT_NAMES = {min: "fastest", statistics.fmean: "mean"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tail(latencies):
    """(value, percentile, n): the highest whole percentile with at least
    TAIL_BEYOND samples above its nearest-rank value (the maximum when
    there are too few samples)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, n
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-pct * n // 100))
    return xs[rank - 1], pct, n


class Runner:
    """Runs the calls of one workload and checks what they write."""

    def __init__(self, calls, out_dir):
        import tau34.cli
        from checks import check

        self.cli = tau34.cli      # main is looked up per call, so traced
        self.check = check
        self.calls = calls
        self.paths = [os.path.join(out_dir, f"call{i}.csv")
                      for i in range(len(calls))]
        self.codes = {}         # call index -> exit code of its last run
        self.first = {}         # call index -> sha256 of its first output
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, i):
        """Seconds one call took; its output is read by `collect`."""
        if os.path.exists(self.paths[i]):
            os.remove(self.paths[i])
        argv = list(self.calls[i].argv) + ["--out", self.paths[i]]
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:
            code = exc
        dt = time.perf_counter() - t0
        self.codes[i] = code
        return dt

    def run_pass(self, deadline=None, tracer=None):
        """Runs the calls in order, stopping after the one that ends past
        `deadline`; returns [(call index, seconds)] and the outputs."""
        done = []
        for i in range(len(self.calls)):
            if tracer is not None:
                tracer.call = i
            done.append((i, self.run(i)))
            if deadline is not None and time.perf_counter() >= deadline:
                break
        return done, self.collect([i for i, _ in done])

    def collect(self, indices):
        """Checks the outputs of the given calls; returns their bytes."""
        outputs = {}
        for i in indices:
            call, code = self.calls[i], self.codes[i]
            self.attempted += call.points
            data = b""
            if os.path.exists(self.paths[i]):
                with open(self.paths[i], "rb") as fh:
                    data = fh.read()
            outputs[i] = data
            if code != 0:
                self.fail(call.points, f"{' '.join(call.argv)}: exit {code!r}")
                continue
            digest = hashlib.sha256(data).hexdigest()
            if self.first.setdefault(i, digest) != digest:
                self.fail(call.points, f"{' '.join(call.argv)}: output "
                                       "differs from the first pass")
                continue
            n_bad, msgs = self.check(call, data.decode())
            self.fail(n_bad, *(f"{' '.join(call.argv)}: {m}" for m in msgs))
        return outputs

    def fail(self, points, *messages):
        self.failed += points
        self.messages.extend(messages)


def probe_setup(argv, out_path):
    """(import s, first call s, second call s) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"),
         json.dumps(list(argv) + ["--out", out_path])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["codes"] != [0, 0]:
        raise RuntimeError(f"set-up probe calls exited {res['codes']}")
    return res["import_s"], res["first_s"], res["second_s"]


def measure(runner, seconds, probes):
    """End-to-end metrics over warm calls; `probes` are set-up samples."""
    runner.run(0)                       # warm-up: lazy imports, caches
    runner.collect([0])
    lat, passes = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        done, _ = runner.run_pass(deadline if passes else None)
        passes += 1
        lat += done
    times = [dt for _, dt in lat]
    per_call = {}
    for i, dt in lat:
        per_call.setdefault(i, []).append(dt)
    pass_points = sum(call.points for call in runner.calls)
    runs = min(len(v) for v in per_call.values())
    stat = min if runs >= FASTEST_SAMPLES else statistics.fmean
    other = statistics.fmean if stat is min else min
    other_rate = pass_points / sum(map(other, per_call.values()))
    setup = [imp + first - second for imp, first, second in probes]
    tail_v, tail_pct, n = tail(times)
    metrics = {
        "points_per_s": pass_points / sum(stat(v)
                                          for v in per_call.values()),
        "call_p50_ms": statistics.median(times) * 1e3,
        "call_tail_ms": tail_v * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "points_per_s": f"{pass_points}-point pass at each call's "
                        f"{STAT_NAMES[stat]} warm time, {len(lat)} calls "
                        f"({passes} passes, each call at least {runs} times);"
                        f" at its {STAT_NAMES[other]}: {other_rate:.6g} "
                        "points/s",
        "call_p50_ms": f"median of {n} calls",
        "call_tail_ms": f"p{tail_pct} of {n} calls, "
                        f"{sum(t > tail_v for t in times)} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {len(setup)} fresh interpreters: import "
                   f"{statistics.median(p[0] for p in probes):.3f} s + first "
                   f"call {statistics.median(p[1] for p in probes):.3f} s - "
                   f"second call {statistics.median(p[2] for p in probes):.3f}"
                   " s",
    }
    return metrics, notes


def measure_traced(runner, seconds, trace_path):
    """Per-layer metrics from traced passes alternated with untraced ones."""
    import bench_kernels
    import tracing

    runner.run(0)
    runner.collect([0])
    before = tracing.snapshot()
    kernel = bench_kernels.layer_metrics(bench_kernels.measure())
    plain_walls, traced_walls, per_pass, layers = [], [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    # pairs of passes until another pair would end past the deadline
    while not traced_walls or (time.perf_counter() + plain_walls[-1]
                               + traced_walls[-1] < deadline):
        done, plain = runner.run_pass()
        plain_walls.append(sum(dt for _, dt in done))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            done, traced = runner.run_pass(tracer=tracer)
        finally:
            tracer.restore()
        wall = sum(dt for _, dt in done)
        traced_walls.append(wall)
        per_pass.append(tracing.pass_metrics(tracer.spans, wall))
        layers.append(tracing.self_by_layer(tracer.spans))
        for i in plain:
            if traced[i] != plain[i]:
                runner.fail(runner.calls[i].points,
                            f"{' '.join(runner.calls[i].argv)}: traced "
                            "output differs from the untraced output")
    after = tracing.snapshot()
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) is not after.get(k))
    if changed:
        runner.fail(1, f"tracing left bindings changed: {changed}")
    tracer.write(trace_path)
    spec_names = [m["name"] for m in load_spec()["per_layer"]]
    metrics = tracing.median_metrics(per_pass, spec_names)
    metrics.update(kernel)
    metrics["trace.overhead_share"] = (statistics.median(traced_walls)
                                       / statistics.median(plain_walls) - 1.0)
    shares = {k: statistics.median(p.get(k, 0.0) for p in layers)
              for k in layers[-1]}
    notes = {"passes": f"{len(traced_walls)} traced passes (median "
                       f"{statistics.median(traced_walls):.3f} s) alternated "
                       f"with untraced ones (median "
                       f"{statistics.median(plain_walls):.3f} s)",
             "layers": ", ".join(f"{k} {v:.1%}" for k, v in sorted(
                 shares.items(), key=lambda kv: -kv[1])),
             "trace": trace_path}
    return metrics, notes


def digest_report(workload, seed, smoke, runner):
    """Whether one pass's outputs hash to the stored default-seed digest."""
    if seed != DEFAULT_SEED or smoke:
        return f"n/a (digests are stored for seed {DEFAULT_SEED} only)"
    if len(runner.first) < len(runner.calls):
        return "n/a (no complete pass)"
    h = hashlib.sha256()
    for i in range(len(runner.calls)):
        h.update(runner.first[i].encode())
    with open(os.path.join(HERE, "digests.json")) as fh:
        stored = json.load(fh).get(workload)
    return f"{str(h.hexdigest() == stored).lower()} (sha256 {h.hexdigest()})"


def run_workload(args):
    spec = load_spec()
    listed = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        calls = build(args.workload, args.seed, smoke=args.smoke)
        # The lazy set-up a first call pays does not grow with its size, so
        # the probes time the first call of the reduced inputs: the same
        # code paths, with less run-to-run noise than a 2-s sweep would add.
        first = build(args.workload, args.seed, smoke=True)[0].argv
        probes = [] if args.trace else [
            probe_setup(first, os.path.join(tmp, "probe.csv"))
            for _ in range(SETUP_PROBES)]
        runner = Runner(calls, tmp)
        with open(os.devnull, "w") as devnull, \
                contextlib.redirect_stderr(devnull):
            if args.trace:
                metrics, notes = measure_traced(
                    runner, args.seconds, os.path.join(
                        OUT_DIR, f"trace-{args.workload}-{args.seed}.tsv"))
            else:
                metrics, notes = measure(runner, args.seconds, probes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed} {mode}: "
          f"{runner.attempted} points attempted, {runner.failed} failed")
    units = {m["name"]: m["unit"] for m in listed} if args.trace \
        else E2E_UNITS
    for name, unit in units.items():
        note = notes.get(name)
        print(f"  {name} = {metrics[name]:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    share = runner.failed / runner.attempted
    print(f"  error_share = {share:.6g} ratio  "
          f"({runner.failed} of {runner.attempted} points)")
    for key in ("passes", "layers", "trace"):
        if key in notes:
            print(f"  {key}: {notes[key]}")
    if not args.trace:
        print("  outputs_identical = "
              + digest_report(args.workload, args.seed, args.smoke, runner))
    print("  checks: " + ("passed" if not runner.messages else
                          "FAILED: " + "; ".join(runner.messages[:5])))
    result = {"correct": not runner.messages and not runner.failed,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in listed}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs, for selfcheck.py")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tau34", "cli.py")):
        print(f"benchmark: no tau34 sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
