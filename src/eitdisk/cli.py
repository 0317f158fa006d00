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


_EVEN = (lambda n: n >= 2 and n % 2 == 0, ": node count must be even and at least 2")

# (parsed name, test, rule): before a stage runs, main tests every value of
# these names it parsed, unless None, and rejects it as "--flag<rule>, not
# <value>"; a name qualified by a stage ("impedance.sim_nodes") holds there only
_FLAG_CHECKS = (
    ("noise", lambda v: 0 <= v < np.inf, " must be finite and >= 0"),
    ("reg_noise", lambda v: 0 <= v < np.inf, " must be finite and >= 0"),
    ("grid", lambda n: n >= 2, ": grid resolution must be at least 2 per axis"),
    ("threshold_rel", lambda v: 0 < v < 1, ": relative threshold must lie in (0, 1)"),
    # a degree the contour cannot determine is reported by the fit
    ("degree", lambda n: n >= 1, ": fit degree must be 1 or more"),
    ("pairs", lambda n: n >= 1, ": at least one Cauchy pair is required"),
    ("model_error_factor", lambda v: 0 < v < np.inf, " must be finite and > 0"),
    ("mask_tol", lambda v: 0 <= v < 1, ": mask tolerance must lie in [0, 1)"),
    ("inner_nodes", *_EVEN),
    ("impedance.sim_nodes", *_EVEN),
    ("nodes", *_EVEN),
)


def _config(args, **resolved):
    """Every parsed value but ``func`` and ``out``, with the values the stage
    resolved in place of the raw ones: the configuration an output hashes."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    return {**config, **resolved}


def _reg_noise(args):
    """The regularizer's noise level: ``--reg-noise``, or else ``--noise``."""
    return args.noise if args.reg_noise is None else args.reg_noise


def _parse_reg(text, noise_level):
    """Strategy of a ``--reg`` value: ``none``, ``tikhonov:ALPHA``, ``cutoff:TAU``,
    or a noise-tied ``tikhonov[:disc[:S]]`` or ``cutoff:noise[:S]``, which
    needs ``noise_level > 0``."""
    fields = ("tikhonov:disc" if text == "tikhonov" else text).split(":")
    if fields == ["none"]:
        return RegStrategy.none()
    tied = fields[:2] in (["tikhonov", "disc"], ["cutoff", "noise"]) and len(fields) <= 3
    if not tied and (fields[0] not in ("tikhonov", "cutoff") or len(fields) != 2):
        raise ValueError(f"--reg {text}: unknown regularization; expected none, "
                         "tikhonov:ALPHA, cutoff:TAU, tikhonov[:disc[:S]] or cutoff:noise[:S]")
    if tied and noise_level <= 0:
        raise ValueError(f"--reg {text} needs --noise or --reg-noise above 0")
    cutoff = fields[0] == "cutoff"
    try:
        if tied:
            make = RegStrategy.cutoff_by_noise if cutoff else RegStrategy.tikhonov_discrepancy
            return make(noise_level, *map(float, fields[2:]))
        return (RegStrategy.spectral_cutoff if cutoff else RegStrategy.tikhonov)(float(fields[1]))
    except ValueError as exc:
        raise ValueError(f"--reg {text}: {exc}") from None


def _meshes(curve, n_outer, n_inner):
    outer = bie.NystromMesh(BoundaryCurve.circle(radius=1.0), n_outer)
    inner = bie.NystromMesh(curve, n_inner)
    return outer, inner


def _parse_basis(args):
    """``(basis, modes, simulation nodes)`` of ``forward``'s ``--basis``, which
    is ``fourier:K`` with ``K >= 0`` or ``collocation:N`` with an even ``N >= 2``,
    and its ``--sim-nodes``."""
    kind, _, num = args.basis.partition(":")
    try:
        size = int({"fourier": num or 19, "collocation": num or 64}[kind])
    except (KeyError, ValueError):
        raise ValueError(f"--basis {args.basis}: expected fourier:K or collocation:N") from None
    if kind == "fourier":
        if size < 0:
            raise ValueError(f"--basis {args.basis}: the Fourier order must be 0 or more")
        n_sim = max(32 if args.sim_nodes is None else args.sim_nodes, 2 * size + 2)
        if n_sim % 2:
            raise ValueError(f"--sim-nodes: node count must be even, not {n_sim}")
        return kind, np.arange(-size, size + 1), n_sim
    if size < 2 or size % 2:
        raise ValueError(f"--basis {args.basis}: collocation needs an even count "
                         "of 2 or more nodes")
    if args.sim_nodes not in (None, size):
        raise ValueError(f"--basis {args.basis} simulates on its own {size} nodes, "
                         f"not --sim-nodes {args.sim_nodes}")
    return kind, None, size


def cmd_forward(args):
    basis, modes, n_sim = _parse_basis(args)
    curve = _load_geometry(args.geometry)
    config = _config(args, geometry=curve.to_dict(), sim_nodes=n_sim)
    outer, inner = _meshes(curve, n_sim, args.inner_nodes)
    # parsed for either condition, so a bad --gamma never passes silently
    gamma = _gamma_values(args.gamma, inner.theta)
    noise = (args.noise, args.seed) if args.noise else None
    lam = bie.dtn_matrix(outer, inner, args.bc, gamma if args.bc == "impedance" else None,
                         basis=basis, modes=modes, flux_noise=noise)
    write_dtn(args.out, lam, config, {"kind": curve.kind, "n": inner.n}, {"kind": args.bc})
    print(f"wrote {args.out} (config {config_hash(config)})")


def cmd_sample(args):
    reg = _parse_reg(args.reg, _reg_noise(args))
    gap = gap_from_lambda0(read_dtn(args.data))
    noise = (args.noise, args.seed) if args.noise else None
    result = scan(gap, GridSpec.square(args.grid), reg, noise=noise)
    config = _config(args)
    write_indicator(args.out, result, config)
    print(f"wrote {args.out} (config {config_hash(config)})")
    print(f"indicator range [{float(np.nanmin(result.values)):.6g}, {result.max_value:.6g}]")


def cmd_extract(args):
    grid = read_indicator(args.indicator)
    points = extract_level_set(grid, args.threshold_rel)
    fitted = fit_trig_curve(points, args.degree)
    # "smoothing" stays in the config so that its hash stays that of earlier versions
    config = _config(args, smoothing=0.0)
    write_curve(args.out, fitted, config)
    radii = np.hypot(*fitted.point(np.linspace(0, 2 * np.pi, 64, endpoint=False)).T)
    print(f"wrote {args.out} (config {config_hash(config)}); "
          f"{len(points)} contour points, fitted radius "
          f"[{radii.min():.4f}, {radii.max():.4f}]")


def cmd_impedance(args):
    # drives cos(k t) and sin(k t), k = 1..k_max; a mesh resolves order k
    # from 2k + 2 nodes, the rule dtn_matrix applies to Fourier modes
    k_max = (args.pairs + 1) // 2
    for flag, n in (("--sim-nodes", args.sim_nodes), ("--nodes", args.nodes)):
        if n < 2 * k_max + 2:
            raise ValueError(f"--pairs {args.pairs} drives order {k_max}, "
                             f"which needs {flag} {2 * k_max + 2} or more")
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
    config = _config(args, geometry=true_curve.to_dict(), bc="impedance")
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
    # dtn.json lists its configuration in the order these flags are declared
    p.add_argument("--noise", type=float, default=0.0,
                   help="multiplicative noise level on simulated currents")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sim-nodes", type=int, default=None,
                   help="simulation nodes on the measurement circle: fourier:K "
                        "uses max(this or 32, 2K + 2), collocation:N uses N")
    p.add_argument("--inner-nodes", type=int, default=32)
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
        for name, test, rule in _FLAG_CHECKS:
            stage, _, key = name.rpartition(".")
            value = getattr(args, key, None)
            if stage in ("", args.command) and value is not None and not test(value):
                raise ValueError(f"--{key.replace('_', '-')}{rule}, not {value}")
        return args.func(args) or 0
    except (EitDiskError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
