"""Batch command line: mesh generation, decomposition runs, stream functions,
exact tensor verification, convergence studies, and truncation experiments.

Every run is fully determined by its command line and input files. With
--deterministic, reports omit wall-clock timings so identical runs produce
byte-identical output. Exit codes: 0 success, 1 validation error,
2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import dec, forms, hodge, io, weitzenbock
from .errors import ConfigError, ConvergenceError
from .geometry import ball_mesh
from .simplicial import apply_d, build_complex


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
        p.add_argument("--seed", type=int, default=0, help="seed for builtin forms")

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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--deterministic", action="store_true")

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
    p.add_argument("--mesh", default=None)
    p.add_argument("--curvature", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=6.0)
    p.add_argument("--edge", type=float, default=0.15)
    p.add_argument("--form", default="builtin:dx")
    p.add_argument("--space", choices=("l2", "h1"), default="h1")
    p.add_argument("--out", required=True)
    add_common(p)
    return parser


def _load_form(name: str, mesh, cx, stars, seed: int, checksum=None):
    """A builtin form, or a cochain file checked against `checksum` (the mesh's if None)."""
    if name.startswith("builtin:"):
        return forms.builtin_form(name.split(":", 1)[1], mesh, cx, stars, seed=seed)
    return io.load_cochain(name, checksum or io.mesh_checksum(mesh))


def _base_report(args, checksum: str) -> dict:
    return {"command": " ".join(args._echo), "mesh_checksum": checksum}


def _finish(report: dict, args, t0: float, out):
    if not args.deterministic:
        report["wall_clock_seconds"] = time.time() - t0
    if out is not None:
        io.save_json(report, out)


def _cmd_mesh(args) -> int:
    t0 = time.time()
    mesh = ball_mesh(args.curvature, args.radius, args.edge)
    io.save_mesh(mesh, args.out)
    print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles -> {args.out}")
    return 0


def _discretize(mesh):
    """The mesh, its complex, its stars and its checksum."""
    cx = build_complex(mesh)
    return mesh, cx, dec.assemble_stars(mesh, cx), io.mesh_checksum(mesh)


def _cmd_decompose(args) -> int:
    t0 = time.time()
    mesh, cx, stars, checksum = _discretize(io.load_mesh(args.mesh))
    alpha = _load_form(args.form, mesh, cx, stars, args.seed, checksum)
    split = hodge.decompose(alpha, args.space, cx, stars, tol=args.tol)
    d = split.diagnostics
    harm = hodge.harmonic_diagnostics(split.gamma, cx, stars)
    report = _base_report(args, checksum)
    report.update(
        {
            "space": args.space,
            "star_clamp_count": stars.clamp_count,
            "beta": split.beta.values.tolist(),
            "omega": split.omega.values.tolist(),
            "gamma": split.gamma.values.tolist(),
            "diagnostics": {
                "norm_alpha": d.norm_alpha,
                "norm_exact": d.norm_exact,
                "norm_coexact": d.norm_coexact,
                "norm_gamma": d.norm_gamma,
                "reconstruction_residual": d.reconstruction_residual,
                "orthogonality": {
                    "exact_coexact": d.ortho_exact_coexact,
                    "exact_harmonic": d.ortho_exact_harmonic,
                    "coexact_harmonic": d.ortho_coexact_harmonic,
                    "defect": d.orthogonality_defect(),
                },
                "pythagoras_defect": d.pythagoras_defect,
                "norm_d_gamma_l2": d.norm_d_gamma_l2,
                "norm_delta_gamma_l2": d.norm_delta_gamma_l2,
            },
            "harmonic": {
                "energy": harm.energy,
                "bound_ratio": harm.bound_ratio,
                "d_residual": harm.d_residual,
                "delta_residual": harm.delta_residual,
            },
            "solver": {"iterations": d.iterations, "residual": d.solver_residual},
        }
    )
    _finish(report, args, t0, args.out)
    print(
        f"decompose[{args.space}]: |exact|={d.norm_exact:.6g} |coexact|={d.norm_coexact:.6g} "
        f"|harmonic|={d.norm_gamma:.6g} recon={d.reconstruction_residual:.2e}"
    )
    return 0


def _cmd_stream(args) -> int:
    t0 = time.time()
    mesh, cx, stars, checksum = _discretize(io.load_mesh(args.mesh))
    v = _load_form(args.form, mesh, cx, stars, args.seed, checksum)
    result = hodge.stream_function(v, cx, stars, tol=args.tol)
    report = _base_report(args, checksum)
    report.update(
        {
            "f": result.f.tolist(),
            "omega": result.omega.values.tolist(),
            "residual": result.residual,
            "path_defect": result.path_defect,
        }
    )
    _finish(report, args, t0, args.out)
    print(f"stream: residual={result.residual:.2e} path_defect={result.path_defect:.2e}")
    return 0


def _cmd_verify_tensor(args) -> int:
    t0 = time.time()
    report = weitzenbock.run_verification(args.max_dim, args.trials, args.seed)
    payload = report.to_dict()
    if not args.deterministic:
        payload["wall_clock_seconds"] = time.time() - t0
    if args.out:
        io.save_json(payload, args.out)
    for r in report.results:
        status = "pass" if r.passed else "FAIL"
        print(f"N={r.n_dim} k={r.degree}: {r.trials} trials {status} (star sign {r.star_sign:+d})")
    print("note:", report.note)
    if not report.all_passed:
        print("verification FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_convergence(args) -> int:
    t0 = time.time()
    if args.levels < 1:
        raise ConfigError("--levels must be at least 1")
    if not 0.0 < args.tol < 1.0:
        raise ConfigError(f"--tol: the solver tolerance must lie in (0, 1), got {args.tol!r}")
    rows = []
    for level in range(args.levels):
        h = args.edge / (2**level)
        mesh = ball_mesh(args.curvature, args.radius, h)
        cx = build_complex(mesh)
        stars = dec.assemble_stars(mesh, cx)
        alpha = _load_form(args.form, mesh, cx, stars, args.seed)
        split = hodge.decompose(alpha, args.space, cx, stars, tol=args.tol)
        rep = hodge.harmonic_diagnostics(split.gamma, cx, stars)
        d = split.diagnostics
        norm_alpha_l2 = dec.norm(alpha, "l2", cx, stars)
        # closedness of the level's input form: the sampling-consistency trend
        in_d = hodge._interior_l2_norm(apply_d(alpha, cx), cx, stars) / norm_alpha_l2
        in_delta = (
            hodge._interior_l2_norm(dec.codifferential(alpha, cx, stars), cx, stars) / norm_alpha_l2
        )
        deficit = 1.0 - d.norm_gamma**2 / d.norm_alpha**2
        rows.append(
            {
                "level": level,
                "h": h,
                "d_residual_input": in_d,
                "delta_residual_input": in_delta,
                "d_residual_gamma": rep.d_residual if not rep.degenerate else 0.0,
                "delta_residual_gamma": rep.delta_residual if not rep.degenerate else 0.0,
                "energy_ratio": rep.bound_ratio if rep.bound_ratio is not None else float("nan"),
                "ortho_defect": d.orthogonality_defect(),
                "harmonic_deficit": deficit,
            }
        )
        print(
            f"level {level}: h={h:.4g} input residuals d={in_d:.3e} delta={in_delta:.3e} "
            f"deficit={deficit:.3e}"
        )
    header = (
        "level,h,d_residual_input,delta_residual_input,d_residual_gamma,"
        "delta_residual_gamma,energy_ratio,ortho_defect,harmonic_deficit"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['level']},{r['h']!r},{r['d_residual_input']!r},{r['delta_residual_input']!r},"
            f"{r['d_residual_gamma']!r},{r['delta_residual_gamma']!r},{r['energy_ratio']!r},"
            f"{r['ortho_defect']!r},{r['harmonic_deficit']!r}"
        )
    Path(args.out).write_text("\n".join(lines) + "\n")
    if not args.deterministic:
        print(f"wrote {args.out} in {time.time() - t0:.1f}s")
    return 0


def _cmd_truncate(args) -> int:
    t0 = time.time()
    radii = [float(r) for r in args.radii.split(",") if r]
    if not radii:
        raise ConfigError("--radii needs at least one cutoff scale")
    mesh, cx, stars, checksum = _discretize(
        io.load_mesh(args.mesh) if args.mesh else ball_mesh(args.curvature, args.radius, args.edge)
    )
    gamma = _load_form(args.form, mesh, cx, stars, args.seed, checksum)
    tbl = []
    for R in radii:
        dist = hodge.truncation_distance(gamma, R, args.space, mesh, cx, stars)
        tbl.append({"R": R, "distance": dist})
        print(f"R={R}: |gamma - phi_R gamma| = {dist:.6g}")
    report = _base_report(args, checksum)
    report.update({"space": args.space, "distances": tbl})
    _finish(report, args, t0, args.out)
    return 0


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
    args._echo = ["hodgedec"] + argv
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as err:
        print(f"numerical non-convergence: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
