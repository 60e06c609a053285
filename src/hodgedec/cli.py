"""Batch command line: mesh generation, decomposition runs, stream functions,
exact tensor verification, convergence studies, and truncation experiments.

Every run is fully determined by its command line and input files. A command
returns its exit code and its report; main alone stamps the report with the
command line and, without --deterministic, the wall-clock seconds, and writes
it to --out. A failed run writes no report; deterministic runs repeat byte for
byte. Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import dec, forms, hodge, io, weitzenbock
from .errors import ConfigError, ConvergenceError
from .geometry import ball_mesh, ball_ring_sizes, check_cutoff_scales


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hodgedec", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p):
        p.add_argument("--deterministic", action="store_true",
                       help="omit timings so reports are byte-identical across runs")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for builtin forms and tensor contexts")

    p = sub.add_parser("mesh", help="generate a geodesic ball mesh")
    p.add_argument("--curvature", type=float, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--edge", type=float, required=True)
    p.add_argument("--out", required=True)
    add_common(p)

    p = sub.add_parser("decompose", help="three-way split of a 1-form")
    p.add_argument("--mesh", required=True)
    p.add_argument("--form", required=True,
                   help="cochain file or builtin:{dx,exact,coexact,mixed}")
    p.add_argument("--space", choices=("l2", "h1"), default="h1")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    add_common(p)

    p = sub.add_parser("stream", help="stream function of a co-closed 1-form")
    p.add_argument("--mesh", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    add_common(p)

    p = sub.add_parser("verify-tensor", help="exact curvature-identity suite")
    p.add_argument("--max-dim", type=int, default=5)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("convergence", help="refinement study, CSV output")
    p.add_argument("--curvature", type=float, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--edge", type=float, default=0.2, help="edge length of level 0")
    p.add_argument("--form", default="builtin:dx")
    p.add_argument("--space", choices=("l2", "h1"), default="h1")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    add_common(p)

    p = sub.add_parser("truncate", help="cutoff truncation distances")
    p.add_argument("--radii", required=True, help="comma-separated cutoff scales")
    p.add_argument("--mesh", required=True)
    p.add_argument("--form", default="builtin:dx")
    p.add_argument("--space", choices=("l2", "h1"), default="h1")
    p.add_argument("--out", required=True)
    add_common(p)
    return parser


def _load_form(name: str, disc: dec.Discretization, seed: int, checksum: str | None = None):
    """A builtin form, or a cochain file checked against the mesh's checksum,
    hashed here when the caller has not."""
    if name.startswith("builtin:"):
        return forms.builtin_form(name.split(":", 1)[1], disc.mesh, disc.cx, disc, seed=seed)
    return io.load_cochain(name, checksum or io.mesh_checksum(disc.mesh))


def _cmd_mesh(args):
    mesh = ball_mesh(args.curvature, args.radius, args.edge)
    io.save_mesh(mesh, args.out)
    print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles -> {args.out}")
    return 0, None


def _cmd_decompose(args):
    disc = dec.discretize(io.load_mesh(args.mesh))
    checksum = io.mesh_checksum(disc.mesh)
    alpha = _load_form(args.form, disc, args.seed, checksum)
    split = hodge.decompose(alpha, args.space, disc, tol=args.tol)
    report = {
        "mesh_checksum": checksum,
        "space": args.space,
        "star_clamp_count": disc.clamp_count,
        "beta": split.beta.values,
        "omega": split.omega.values,
        "gamma": split.gamma.values,
        "diagnostics": split.diagnostics,
        "harmonic": hodge.harmonic_diagnostics(split.gamma, disc),
        "solver": split.solver,
    }
    d = split.diagnostics
    print(
        f"decompose[{args.space}]: |exact|={d['norm_exact']:.6g} |coexact|={d['norm_coexact']:.6g} "
        f"|harmonic|={d['norm_gamma']:.6g} recon={d['reconstruction_residual']:.2e}"
    )
    return 0, report


def _cmd_stream(args):
    disc = dec.discretize(io.load_mesh(args.mesh))
    checksum = io.mesh_checksum(disc.mesh)
    v = _load_form(args.form, disc, args.seed, checksum)
    result = hodge.stream_function(v, disc, tol=args.tol)
    print(f"stream: residual={result.residual:.2e} path_defect={result.path_defect:.2e}")
    return 0, {
        "mesh_checksum": checksum,
        "f": result.f,
        "omega": result.omega.values,
        "residual": result.residual,
        "path_defect": result.path_defect,
    }


def _cmd_verify_tensor(args):
    report = weitzenbock.run_verification(args.max_dim, args.trials, args.seed)
    for r in report["results"]:
        status = "pass" if r["passed"] else "FAIL"
        print(f"N={r['N']} k={r['k']}: {r['trials']} trials {status} "
              f"(star sign {r['star_sign']:+d})")
    print("note:", report["note"])
    failed = not report["all_passed"]
    if failed:
        print("verification FAILED", file=sys.stderr)
    return int(failed), report


def _cmd_convergence(args):
    t0 = time.time()
    if args.levels < 1:
        raise ConfigError("--levels must be at least 1")
    if not 0.0 < args.tol < 1.0:
        raise ConfigError(f"--tol: the solver tolerance must lie in (0, 1), got {args.tol!r}")
    if args.levels > 1 and not args.form.startswith("builtin:"):
        raise ConfigError("--form: a cochain file belongs to one mesh and each level meshes "
                          "a new ball; use a builtin form or --levels 1")
    # the finest level's parameter and vertex-cap checks, before any level is meshed
    ball_ring_sizes(args.curvature, args.radius, math.ldexp(args.edge, 1 - args.levels))
    lines = [
        "level,h,d_residual_input,delta_residual_input,d_residual_gamma,"
        "delta_residual_gamma,energy_ratio,ortho_defect,harmonic_deficit"
    ]
    for level in range(args.levels):
        h = math.ldexp(args.edge, -level)
        disc = dec.discretize(ball_mesh(args.curvature, args.radius, h))
        alpha = _load_form(args.form, disc, args.seed)
        # closedness of the level's input form: the sampling-consistency trend
        inp = hodge.harmonic_diagnostics(alpha, disc)
        if not alpha.values.any():
            raise ConfigError(f"convergence: the input form has zero L2 norm at level {level}")
        in_d, in_delta = inp["d_residual"], inp["delta_residual"]
        split = hodge.decompose(alpha, args.space, disc, tol=args.tol)
        rep = hodge.harmonic_diagnostics(split.gamma, disc)  # residuals 0.0 for a zero gamma
        d = split.diagnostics
        # both norms over 2**e, so that neither square underflows
        e = math.frexp(d["norm_alpha"])[1]
        deficit = 1.0 - math.ldexp(d["norm_gamma"], -e) ** 2 / math.ldexp(d["norm_alpha"], -e) ** 2
        ratio = rep["bound_ratio"] if rep["bound_ratio"] is not None else float("nan")
        row = (level, h, in_d, in_delta, rep["d_residual"], rep["delta_residual"], ratio,
               d["orthogonality"]["defect"], deficit)
        lines.append(",".join(map(repr, row)))
        print(
            f"level {level}: h={h:.4g} input residuals d={in_d:.3e} delta={in_delta:.3e} "
            f"deficit={deficit:.3e}"
        )
    Path(args.out).write_text("\n".join(lines) + "\n")
    if not args.deterministic:
        print(f"wrote {args.out} in {time.time() - t0:.1f}s")
    return 0, None


def _cmd_truncate(args):
    radii = check_cutoff_scales(float(r) for r in args.radii.split(",") if r)
    mesh = io.load_mesh(args.mesh)
    check_cutoff_scales(radii, mesh)
    disc = dec.discretize(mesh)
    checksum = io.mesh_checksum(mesh)
    gamma = _load_form(args.form, disc, args.seed, checksum)
    tbl = []
    for R, dist in zip(radii, hodge.truncation_distance(gamma, radii, args.space, disc)):
        tbl.append({"R": R, "distance": dist})
        print(f"R={R}: |gamma - phi_R gamma| = {dist:.6g}")
    return 0, {"mesh_checksum": checksum, "space": args.space, "distances": tbl}


def _check_out(out) -> None:
    """Reject an --out that cannot be written, before the command does any work."""
    if out is None:
        return
    path = Path(out)
    if not out or out.endswith("/") or path.is_dir():
        raise ConfigError(f"--out {out!r} must name a file, not a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {out!r}: directory {str(path.parent)!r} does not exist")


_COMMANDS = {
    "mesh": _cmd_mesh,
    "decompose": _cmd_decompose,
    "stream": _cmd_stream,
    "verify-tensor": _cmd_verify_tensor,
    "convergence": _cmd_convergence,
    "truncate": _cmd_truncate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    t0 = time.time()
    try:
        _check_out(args.out)
        code, report = _COMMANDS[args.command](args)
        if report is not None:
            report["command"] = " ".join(["hodgedec"] + argv)
            if not args.deterministic:
                report["wall_clock_seconds"] = time.time() - t0
            if args.out is not None:
                io.save_json(report, args.out)
        return code
    except ConvergenceError as err:
        print(f"numerical non-convergence: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
