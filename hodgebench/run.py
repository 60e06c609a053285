"""Benchmark of the hodgedec command line: one workload per run.

    python3 hodgebench/run.py --workload split-curved --seed 0 --seconds 48 --trace 0

Run from the root of a checkout. The program is imported from the
checkout's `src`, never from an installed copy, and driven in-process
through `hodgedec.cli.main` with the argument lists a user would type.
The run sets up three times, then repeats whole rounds of the workload's
commands until the next round would end after --seconds (at least three
rounds), checks every output, and prints the metrics named in
BENCHMARK.json. The last line of standard output is one JSON object.
With --trace 1 the hodgedec modules are wrapped by spans.Tracer and the
per-layer metrics are printed instead of the end-to-end ones.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".hodgebench_runs"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PASSES = 3
MIN_ROUNDS = 3
TENSOR_TRIALS = 2
TRUNCATE_RADII = (1.5, 2.0, 2.5)

# mesh parameters (a, rho, h)
CURVED_BALL = (1.0, 3.0, 0.05)
SMALL_BALL = (1.0, 1.5, 0.15)  # small enough for a dense least-squares solve
WARM_BALL = (1.0, 3.0, 0.3)
WIDE_BALL = (1.0, 6.0, 0.2)
FLAT_DISK = (0.0, 8.0, 0.1)


def _mesh_argv(params, out):
    a, rho, h = params
    return ["mesh", "--curvature", repr(a), "--radius", repr(rho), "--edge", repr(h), "--out", str(out)]


class Run:
    """What one benchmark run shares: the program, the checkers, the seed, a work directory."""

    def __init__(self, hodgedec, checks, seed, work):
        self.hd = hodgedec
        self.checks = checks
        self.seed = seed
        self.work = work

    def program_forms(self, mesh_path, names):
        """Built-in input forms, made by the program's own generator."""
        hd = self.hd
        mesh = hd.io.load_mesh(mesh_path)
        cx = hd.build_complex(mesh)
        stars = hd.assemble_stars(mesh, cx)
        return [hd.builtin_form(n, mesh, cx, stars, seed=self.seed).values for n in names]


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class SplitCurved:
    """decompose and stream on the a=1, rho=3, h=0.05 ball."""

    def __init__(self, run):
        self.run = run
        self.ball = run.work / "ball.json"
        self.small = run.work / "small.json"
        self.opts = ["--seed", str(run.seed), "--deterministic"]
        self.ref = None

    def setup_commands(self):
        w, s = self.run.work, self.opts
        return [
            _mesh_argv(CURVED_BALL, self.ball) + ["--deterministic"],
            _mesh_argv(SMALL_BALL, self.small) + ["--deterministic"],
            ["decompose", "--mesh", str(self.small), "--form", "builtin:mixed", "--space", "h1",
             "--out", str(w / "small_split.json")] + s,
            ["stream", "--mesh", str(self.small), "--form", "builtin:coexact", "--out", str(w / "small_stream.json")] + s,
        ]

    def round(self, d):
        C, ball, s = self.run.checks, str(self.ball), self.opts
        state = {}

        def decompose(form, space):
            return ["decompose", "--mesh", ball, "--form", f"builtin:{form}", "--space", space,
                    "--out", str(d / f"{form}_{space}.json")] + s

        def mixed_h1():
            ref = self._reference()
            state["h1"] = C.check_split(ref["disc"], _load(d / "mixed_h1.json"), ref["mixed"], self._bound("h1"))

        def dx_h1():
            ref = self._reference()
            gamma = C.check_split(ref["disc"], _load(d / "dx_h1.json"), ref["dx"], self._bound("h1"))
            C.check_harmonic_share(ref["disc"], gamma, ref["dx"])

        def mixed_l2():
            ref = self._reference()
            gamma = C.check_split(ref["disc"], _load(d / "mixed_l2.json"), ref["mixed"], self._bound("l2"))
            if "h1" not in state:
                raise C.CheckFailed("no checked H1 split of this round to compare with")
            C.check_splits_agree(ref["disc"], state["h1"], gamma, ref["mixed"], self._bound("h1"))

        def stream():
            ref = self._reference()
            C.check_stream(ref["disc"], _load(d / "stream.json"), ref["coexact"])

        return [
            (decompose("mixed", "h1"), mixed_h1),
            (decompose("dx", "h1"), dx_h1),
            (decompose("mixed", "l2"), mixed_l2),
            (["stream", "--mesh", ball, "--form", "builtin:coexact", "--out", str(d / "stream.json")] + s, stream),
        ]

    def block_sizes(self):
        disc = self._reference()["disc"]
        return {int(disc.interior_vertices.sum()): "vertex", int(disc.interior_faces.sum()): "face"}

    def _reference(self):
        if self.ref is None:
            C = self.run.checks
            mixed, coexact = self.run.program_forms(self.ball, ["mixed", "coexact"])
            disc = C.Disc.from_mesh(_load(self.ball))
            self.ref = {"disc": disc, "mixed": mixed, "coexact": coexact, "dx": C.coordinate_form(disc)}
        return self.ref

    def _bound(self, space):
        _, rho, h = CURVED_BALL
        return self.run.checks.solver_bound(space, rho, h)

    def final_check(self):
        """The small ball's split against a dense solve, and its stream function."""
        C, w = self.run.checks, self.run.work
        _, rho, h = SMALL_BALL
        disc = C.Disc.from_mesh(_load(self.small))
        mixed, coexact = self.run.program_forms(self.small, ["mixed", "coexact"])
        C.check_oracle(disc, _load(w / "small_split.json"), mixed, C.solver_bound("h1", rho, h))
        C.check_stream(disc, _load(w / "small_stream.json"), coexact)


class MeshExact:
    """Mesh generation and mesh I/O, then the exact tensor suite; no solver.

    A wide curved ball (flip-heavy), its truncation, a flat disk (flip-light)
    and verify-tensor for N <= 5. The exact suite shares this workload so
    that each run can measure for longer; its own spans separate it.
    """

    def __init__(self, run):
        self.run = run
        self.opts = ["--seed", str(run.seed), "--deterministic"]

    def setup_commands(self):
        w = self.run.work
        return [
            _mesh_argv(WARM_BALL, w / "small.json") + self.opts,
            ["truncate", "--mesh", str(w / "small.json"), "--radii", "1.2,1.4", "--space", "h1",
             "--out", str(w / "small_trunc.json")] + self.opts,
            ["verify-tensor", "--max-dim", "2", "--trials", "1"] + self.opts,
        ]

    def round(self, d):
        C, s = self.run.checks, self.opts
        radii = ",".join(repr(r) for r in TRUNCATE_RADII)
        tensor = d / "tensor.json"
        return [
            (_mesh_argv(WIDE_BALL, d / "wide.json") + s, lambda: C.check_mesh(_load(d / "wide.json"), *WIDE_BALL)),
            (["truncate", "--mesh", str(d / "wide.json"), "--radii", radii, "--space", "h1",
              "--out", str(d / "trunc.json")] + s,
             lambda: C.check_truncation(_load(d / "trunc.json"), TRUNCATE_RADII)),
            (_mesh_argv(FLAT_DISK, d / "flat.json") + s, lambda: C.check_mesh(_load(d / "flat.json"), *FLAT_DISK)),
            (["verify-tensor", "--max-dim", "5", "--trials", str(TENSOR_TRIALS), "--out", str(tensor)] + s,
             lambda: C.check_tensor_report(_load(tensor), 5, TENSOR_TRIALS, self.run.seed)),
        ]

    def block_sizes(self):
        return {}

    def final_check(self):
        """The set-up's small ball, and the program's curvature sums against
        (-K) k (N - k) alpha on one context per (N, k)."""
        C, w = self.run.checks, self.run.work
        C.check_mesh(_load(w / "small.json"), *WARM_BALL)
        C.check_truncation(_load(w / "small_trunc.json"), (1.2, 1.4))
        weitzenbock = self.run.hd.weitzenbock
        rng = random.Random(self.run.seed)
        for n in range(2, 6):
            for k in range(n + 1):
                ctx = weitzenbock.random_context(n, k, rng)
                sums = weitzenbock.weitzenbock_sums(ctx, C.riemann(ctx.metric, ctx.curvature))
                C.check_weitzenbock(sums, n, k, ctx.curvature, ctx.alpha)


WORKLOADS = {"split-curved": SplitCurved, "mesh-exact": MeshExact}


def _call(cli, tracer, argv):
    """Run one command with its output captured; (exit code, captured text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.enabled = True
                try:
                    code = tracer.span(f"cli.{argv[0]}", cli.main, argv)
                finally:
                    tracer.enabled = False
    except Exception:
        return -1, out.getvalue() + traceback.format_exc()
    return code, out.getvalue()


def _checked(fn, what):
    """Run a check; the failure message, or None."""
    try:
        fn()
    except Exception as err:
        print(f"check failed: {what}: {type(err).__name__}: {err}", file=sys.stderr)
        return str(err)
    return None


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hodgedec" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from the root of a hodgedec checkout; {SRC / 'hodgedec'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import hodgedec
    import hodgedec.cli as cli

    if Path(hodgedec.__file__).resolve().parent != (SRC / "hodgedec").resolve():
        print(f"error: hodgedec imported from {hodgedec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    import checks
    import spans

    spec = json.loads(spec_path.read_text())
    seed = args.seed % 2**32
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        return _measure(args, spec, seed, work, import_s, hodgedec, cli, checks, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, spec, seed, work, import_s, hodgedec, cli, checks, spans):
    run = Run(hodgedec, checks, seed, work)
    wl = WORKLOADS[args.workload](run)
    problems = []

    passes = []
    for _ in range(SETUP_PASSES):
        start = time.perf_counter()
        for argv in wl.setup_commands():
            code, text = _call(cli, None, argv)
            if code != 0:
                problems.append(f"set-up command {' '.join(argv[:6])} exited {code}")
                print(text, file=sys.stderr)
        passes.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(passes)

    codes = []
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(hodgedec)

    # rounds write to their own directories and are checked after the last
    # one, so that peak_rss_mb and job_s hold the program alone
    rounds, job_times, command_times, round_spans = [], [], [], []
    measure_start = time.perf_counter()
    while True:
        d = work / f"round{len(rounds)}"
        d.mkdir()
        ops = wl.round(d)
        first = len(tracer) if tracer is not None else 0
        times = []
        for argv, _ in ops:
            start = time.perf_counter()
            code, text = _call(cli, tracer, argv)
            times.append(time.perf_counter() - start)
            if code != 0:
                print(f"{' '.join(argv)} exited {code}:\n{text}", file=sys.stderr)
            codes.append(code)
        rounds.append(ops)
        job_times.append(sum(times))
        command_times.append(times)
        if tracer is not None:
            round_spans.append((first, len(tracer)))
        elapsed = time.perf_counter() - measure_start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    for (argv, check), code in zip((op for ops in rounds for op in ops), codes):
        attempted += 1
        if code != 0 or _checked(check, " ".join(argv[:6])) is not None:
            failed += 1
    final = _checked(wl.final_check, "final check")
    if final is not None:
        problems.append(final)
    job_s = statistics.median(job_times)

    print(f"workload {args.workload}: seed {run.seed}, {len(rounds)} rounds of {len(rounds[0])} commands, "
          f"attempted {attempted}, failed {failed}")
    print("threads pinned: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print("job_s per round: " + " ".join(f"{t:.4f}" for t in job_times))
    print("command_s per round: " + json.dumps(command_times))
    if tracer is not None:
        sizes = wl.block_sizes()
        per_round = [spans.round_metrics(tracer, a, b, sizes) for a, b in round_spans]
        values = spans.layer_metrics(per_round, [m["name"] for m in spec["per_layer"]])
        trace_path = OUT / f"{args.workload}.trace.json.gz"
        tracer.write(trace_path, {
            "workload": args.workload, "seed": run.seed, "job_s": job_times, "traced_job_s": job_s,
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "rounds": round_spans, "per_layer": values,
        })
        print(f"traced job_s (median) {job_s:.4f} s; {len(tracer)} spans -> {trace_path}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"job_s": job_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for problem in problems:
        print(f"problem: {problem}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
