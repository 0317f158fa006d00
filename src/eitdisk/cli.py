"""Command-line driver for reproducible experiments.

Subcommands mirror the stages of the inversion pipeline::

    forward    simulate the voltage-to-current maps for a chosen inclusion
    sample     evaluate the indicator function over a grid
    extract    pull a level set out of an indicator map and fit a curve
    impedance  recover the impedance coefficient from Cauchy pairs
    verify     run the built-in cross-validation suites

The measurement boundary is fixed to the unit circle; general outer
boundaries would need a numerically computed Green's function for the
sampling right-hand side.
"""

from __future__ import annotations

import argparse
import ast
import json
import operator
import sys

import numpy as np

from . import bie, verify
from .completion import assemble_completion, recover_gamma_averaged
from .dtn import gap_from_lambda0
from .exceptions import EitDiskError
from .geometry import BoundaryCurve
from .io import (config_hash, read_dtn, read_curve, read_indicator, write_curve,
                 write_dtn, write_gamma, write_indicator)
from .regularization import RegStrategy, perturb_vector
from .sampling import GridSpec, extract_level_set, fit_trig_curve, scan

_GAMMA_NAMESPACE = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs, "pi": np.pi,
}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
           ast.Mod: operator.mod, ast.Pow: operator.pow}


def _load_geometry(path):
    """Geometry from a JSON file, checked by :meth:`BoundaryCurve.validate`."""
    with open(path) as fh:
        curve = BoundaryCurve.from_dict(json.load(fh))
    curve.validate()
    return curve


def _evaluate(node, theta):
    """Value of a whitelisted expression node: numbers, ``theta``, ``pi``,
    arithmetic operators and one-argument calls of the namespace functions."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # float64 constants overflow to inf instead of growing without bound
        return np.float64(node.value)
    if isinstance(node, ast.Name) and node.id in ("theta", "pi"):
        return theta if node.id == "theta" else np.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand, theta))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left, theta),
                                      _evaluate(node.right, theta))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and callable(_GAMMA_NAMESPACE.get(node.func.id))
            and len(node.args) == 1 and not node.keywords):
        return _GAMMA_NAMESPACE[node.func.id](_evaluate(node.args[0], theta))
    raise ValueError(f"impedance expression may not contain {ast.unparse(node)!r}")


def _gamma_values(expr, theta):
    """Evaluate an impedance expression such as ``2 - sin(theta)**4``.

    Only numbers, ``theta``, ``pi``, arithmetic operators and calls of the
    functions in ``_GAMMA_NAMESPACE`` are accepted; anything else raises
    :class:`ValueError`, and so do values that are not finite and >= 0.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse impedance expression {expr!r}: {exc.msg}") from None
    with np.errstate(all="ignore"):
        values = _evaluate(tree.body, theta)
    values = np.broadcast_to(np.asarray(values, dtype=float), theta.shape).copy()
    if not np.all((values >= 0) & (values < np.inf)):
        raise ValueError(f"--gamma {expr!r} must be finite and >= 0 at every node")
    return values


def _parse_basis(text):
    """``(basis, size)`` of a ``--basis`` value: a Fourier order of 0 or more,
    or a collocation node count of 2 or more."""
    kind, _, num = text.partition(":")
    if kind == "fourier":
        order = int(num or 19)
        if order < 0:
            raise ValueError(f"--basis {text}: the Fourier order must be 0 or more")
        return "fourier", order
    if kind == "collocation":
        nodes = int(num or 64)
        if nodes < 2:
            raise ValueError(f"--basis {text}: collocation needs 2 or more nodes")
        return "collocation", nodes
    raise ValueError(f"unknown basis {text!r}")


def _check_level(flag, value):
    """``value`` of ``flag``; a value not finite and >= 0 raises
    :class:`ValueError` naming both."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{flag} must be finite and >= 0, not {value}")
    return value


def _reg_noise(args):
    """The regularizer's noise level: ``--reg-noise``, finite and >= 0, or
    else ``--noise``."""
    if args.reg_noise is None:
        return args.noise
    return _check_level("--reg-noise", args.reg_noise)


def _parse_reg(text, noise_level):
    """Strategy of a ``--reg`` value; a noise-tied one needs ``noise_level > 0``."""
    parts = text.split(":")
    if parts[0] == "none":
        return RegStrategy.none()
    if parts[:2] in (["tikhonov"], ["tikhonov", "disc"], ["cutoff", "noise"]):
        if noise_level <= 0:
            raise ValueError(f"--reg {text} needs --noise or --reg-noise above 0")
        make = (RegStrategy.cutoff_by_noise if parts[0] == "cutoff"
                else RegStrategy.tikhonov_discrepancy)
        return make(noise_level, *map(float, parts[2:3]))
    if parts[0] == "tikhonov":
        return RegStrategy.tikhonov(float(parts[1]))
    if parts[0] == "cutoff":
        return RegStrategy.spectral_cutoff(float(parts[1]))
    raise ValueError(f"unknown regularization {text!r}")


def _meshes(curve, n_outer, n_inner):
    outer = bie.NystromMesh(BoundaryCurve.circle(radius=1.0), n_outer)
    inner = bie.NystromMesh(curve, n_inner)
    return outer, inner


def cmd_forward(args):
    _check_level("--noise", args.noise)
    curve = _load_geometry(args.geometry)
    basis, order = _parse_basis(args.basis)
    if basis == "fourier":
        n_sim = max(32 if args.sim_nodes is None else args.sim_nodes, 2 * order + 2)
        modes = np.arange(-order, order + 1)
    elif args.sim_nodes in (None, order):
        n_sim = order
        modes = None
    else:
        raise ValueError(f"--basis {args.basis} simulates on its own {order} nodes, "
                         f"not --sim-nodes {args.sim_nodes}")
    config = {"command": "forward", "geometry": curve.to_dict(),
              "bc": args.bc, "gamma": args.gamma, "basis": args.basis,
              "noise": args.noise, "seed": args.seed, "sim_nodes": n_sim,
              "inner_nodes": args.inner_nodes}
    outer, inner = _meshes(curve, n_sim, args.inner_nodes)
    # parsed for either condition, so a bad --gamma never passes silently
    gamma = _gamma_values(args.gamma, inner.theta)
    noise = (args.noise, args.seed) if args.noise else None
    lam = bie.dtn_matrix(outer, inner, args.bc, gamma if args.bc == "impedance" else None,
                         basis=basis, modes=modes, flux_noise=noise)
    write_dtn(args.out, lam, config, {"kind": curve.kind, "n": inner.n}, {"kind": args.bc})
    print(f"wrote {args.out} (config {config_hash(config)})")


def cmd_sample(args):
    _check_level("--noise", args.noise)
    if args.grid < 2:
        raise ValueError(f"--grid: grid resolution must be at least 2 per axis, not {args.grid}")
    gap = gap_from_lambda0(read_dtn(args.data))
    reg = _parse_reg(args.reg, _reg_noise(args))
    grid = GridSpec.square(args.grid)
    noise = (args.noise, args.seed) if args.noise else None
    result = scan(gap, grid, reg, noise=noise)
    config = {"command": "sample", "data": args.data, "grid": args.grid,
              "noise": args.noise, "seed": args.seed, "reg": args.reg,
              "reg_noise": args.reg_noise}
    write_indicator(args.out, result, config)
    print(f"wrote {args.out} (config {config_hash(config)})")
    print(f"indicator range [{float(np.nanmin(result.values)):.6g}, {result.max_value:.6g}]")


def cmd_extract(args):
    if not 0 < args.threshold_rel < 1:
        raise ValueError("--threshold-rel: relative threshold must lie in (0, 1), "
                         f"not {args.threshold_rel}")
    # a degree the contour cannot determine is reported by the fit
    if args.degree < 1:
        raise ValueError(f"--degree: fit degree must be 1 or more, not {args.degree}")
    grid = read_indicator(args.indicator)
    points = extract_level_set(grid, args.threshold_rel)
    fitted = fit_trig_curve(points, args.degree)
    # "smoothing" stays in the config so that its hash stays that of earlier versions
    config = {"command": "extract", "indicator": args.indicator,
              "threshold_rel": args.threshold_rel, "degree": args.degree,
              "smoothing": 0.0}
    write_curve(args.out, fitted, config)
    radii = np.hypot(*fitted.point(np.linspace(0, 2 * np.pi, 64, endpoint=False)).T)
    print(f"wrote {args.out} (config {config_hash(config)}); "
          f"{len(points)} contour points, fitted radius "
          f"[{radii.min():.4f}, {radii.max():.4f}]")


def cmd_impedance(args):
    if args.pairs < 1:
        raise ValueError("at least one Cauchy pair is required")
    # drives cos(k t) and sin(k t), k = 1..k_max; a mesh resolves order k
    # from 2k + 2 nodes, the rule dtn_matrix applies to Fourier modes
    k_max = (args.pairs + 1) // 2
    for flag, n in (("--sim-nodes", args.sim_nodes), ("--nodes", args.nodes)):
        if n < 2 * k_max + 2:
            raise ValueError(f"--pairs {args.pairs} drives order {k_max}, "
                             f"which needs {flag} {2 * k_max + 2} or more")
    if not 0 < args.model_error_factor < np.inf:
        raise ValueError("--model-error-factor must be finite and > 0, "
                         f"not {args.model_error_factor}")
    _check_level("--noise", args.noise)
    if not 0 <= args.mask_tol < 1:
        raise ValueError(f"--mask-tol: mask tolerance must lie in [0, 1), not {args.mask_tol}")
    true_curve = _load_geometry(args.geometry)
    outer, inner_true = _meshes(true_curve, args.sim_nodes, args.sim_nodes)
    gamma_true = _gamma_values(args.gamma, inner_true.theta)

    if args.curve:
        recon_curve, model_factor = read_curve(args.curve), args.model_error_factor
        recon_curve.validate()
    else:
        recon_curve, model_factor = true_curve, 1.0
    outer64, inner64 = _meshes(recon_curve, args.nodes, args.nodes)
    # a fitted curve outside the unit circle is reported before a bad --reg
    bie._check_inclusion(inner64)
    reg = _parse_reg(args.reg, _reg_noise(args))
    system = assemble_completion(outer64, inner64, model_error_factor=model_factor)

    drives = [(fn, k) for k in range(1, k_max + 1) for fn in (np.cos, np.sin)][:args.pairs]
    flux = bie.solve_forward(outer, inner_true, "impedance",
                             np.column_stack([fn(k * outer.theta) for fn, k in drives]),
                             gamma_true).outer_flux()
    flux64 = np.real(bie.trig_resample(flux, outer64.theta))
    voltages = np.array([fn(k * outer64.theta) for fn, k in drives])
    currents = perturb_vector(flux64, args.noise, args.seed).T
    recon = recover_gamma_averaged(system, voltages, currents, reg,
                                   noise_level=args.noise, tol_rel=args.mask_tol)
    config = {"command": "impedance", "geometry": true_curve.to_dict(),
              "bc": "impedance", "gamma": args.gamma, "curve": args.curve,
              "pairs": args.pairs, "noise": args.noise, "seed": args.seed,
              "reg": args.reg, "reg_noise": args.reg_noise, "mask_tol": args.mask_tol,
              "model_error_factor": args.model_error_factor,
              "sim_nodes": args.sim_nodes, "nodes": args.nodes}
    write_gamma(args.out, recon, config)
    used = recon.unmasked()
    print(f"wrote {args.out} (config {config_hash(config)}); "
          f"{int(used.sum())}/{len(used)} nodes recovered, "
          f"mean gamma {np.nanmean(recon.average):.4f}")


def cmd_verify(args):
    results = verify.run_all()
    failed = 0
    for r in results:
        print(r.line())
        failed += not r.passed
    if failed:
        print(f"{failed} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="eitdisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="simulate voltage-to-current maps")
    p.add_argument("--geometry", required=True, help="geometry JSON file")
    p.add_argument("--bc", choices=("dirichlet", "impedance"), default="dirichlet")
    p.add_argument("--gamma", default="2.0", help="impedance expression in theta")
    p.add_argument("--basis", default="collocation:64",
                   help="fourier:N or collocation:n")
    p.add_argument("--sim-nodes", type=int, default=None,
                   help="simulation nodes on the measurement circle: fourier:K "
                        "uses max(this or 32, 2K + 2), collocation:N uses N")
    p.add_argument("--inner-nodes", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.0,
                   help="multiplicative noise level on simulated currents")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("sample", help="evaluate the sampling indicator")
    p.add_argument("--data", required=True, help="DtN JSON from the forward command")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--noise", type=float, default=0.0,
                   help="multiplicative noise on the gap matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reg", default="tikhonov:disc:1.5")
    p.add_argument("--reg-noise", type=float, default=None,
                   help="noise level assumed by the regularizer (defaults to --noise)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("extract", help="extract and fit a level-set curve")
    p.add_argument("--indicator", required=True)
    p.add_argument("--threshold-rel", type=float, default=0.2)
    p.add_argument("--degree", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("impedance", help="recover the impedance coefficient")
    p.add_argument("--geometry", required=True, help="true inclusion geometry")
    p.add_argument("--gamma", default="2.0")
    p.add_argument("--curve", default=None,
                   help="fitted-curve JSON; defaults to the exact geometry")
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reg", default="cutoff:noise:2")
    p.add_argument("--reg-noise", type=float, default=None,
                   help="noise level assumed by the regularizer (defaults to --noise)")
    p.add_argument("--mask-tol", type=float, default=0.05)
    p.add_argument("--model-error-factor", type=float, default=2.0)
    p.add_argument("--sim-nodes", type=int, default=32)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_impedance)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (EitDiskError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
