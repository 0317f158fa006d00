"""File formats for experiment artifacts.

Every writer embeds a short hash of the generating configuration so runs can
be matched to their outputs.  Numbers are written with 17 significant digits,
enough to round-trip IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings

import numpy as np

from .dtn import DtnOperator
from .geometry import BoundaryCurve
from .sampling import FittedCurve, GridSpec, IndicatorGrid

__all__ = [
    "config_hash",
    "geometry_to_dict", "geometry_from_dict",
    "write_dtn", "read_dtn",
    "write_indicator", "read_indicator",
    "write_curve", "read_curve",
    "write_gamma",
]


def config_hash(config: dict) -> str:
    """Stable 16-hex-digit digest of a JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def geometry_to_dict(curve: BoundaryCurve) -> dict:
    if curve.kind == "circle":
        cx, cy, r = curve.params
        return {"kind": "circle", "center": [cx, cy], "radius": r}
    if curve.kind == "ellipse":
        a, b = curve.params
        return {"kind": "ellipse", "a": a, "b": b}
    if curve.kind == "cardioid":
        return {"kind": "cardioid"}
    return {"kind": "trig",
            "a": curve.cos_coef.tolist(),
            "b": curve.sin_coef.tolist()}


def geometry_from_dict(data: dict) -> BoundaryCurve:
    kind = data["kind"]
    if kind == "circle":
        return BoundaryCurve.circle(tuple(data.get("center", (0.0, 0.0))),
                                    data["radius"])
    if kind == "ellipse":
        return BoundaryCurve.ellipse(data["a"], data["b"])
    if kind == "cardioid":
        return BoundaryCurve.cardioid()
    if kind == "trig":
        return BoundaryCurve.trig(data["a"], data["b"])
    raise ValueError(f"unknown geometry kind {kind!r}")


def _matrix_to_pairs(mat):
    m = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_pairs(rows, is_complex):
    m = np.array([[complex(re, im) for re, im in row] for row in rows])
    return m if is_complex else m.real


def write_dtn(path, lambda0: DtnOperator, gap: DtnOperator, config: dict,
              geometry: dict, bc: dict):
    """Write the simulated current map and its gap operator as JSON, with the
    inclusion ``geometry`` and boundary condition ``bc`` they were simulated for."""
    doc = {
        "config_hash": config_hash(config),
        "config": config,
        "basis": lambda0.basis,
        "modes": None if lambda0.modes is None else lambda0.modes.tolist(),
        "nodes": lambda0.n if lambda0.basis == "collocation" else None,
        "complex": bool(np.iscomplexobj(lambda0.matrix)),
        "lambda0": _matrix_to_pairs(lambda0.matrix),
        "gap": _matrix_to_pairs(gap.matrix),
        "geometry": geometry,
        "bc": bc,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_dtn(path):
    with open(path) as fh:
        doc = json.load(fh)
    modes = None if doc["modes"] is None else np.asarray(doc["modes"], dtype=int)
    return tuple(DtnOperator(doc["basis"], _matrix_from_pairs(doc[key], doc["complex"]), modes)
                 for key in ("lambda0", "gap"))


def write_indicator(path, grid: IndicatorGrid, config: dict):
    """CSV of unmasked grid points, one ``x,y,W`` row each, in row-major order.

    Lines end in CRLF, the row terminator of the :mod:`csv` module.  The
    coordinates are formatted once per grid line, and each grid row is
    written as one block.
    """
    xs = ["%.17g" % x for x in grid.spec.xs]
    ys = ["%.17g" % y for y in grid.spec.ys]
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={config_hash(config)} nx={grid.spec.nx} ny={grid.spec.ny}"
                 f" xmin={grid.spec.xmin!r} xmax={grid.spec.xmax!r}"
                 f" ymin={grid.spec.ymin!r} ymax={grid.spec.ymax!r}\n")
        fh.write("x,y,W\r\n")
        for y, mask, values in zip(ys, grid.mask, grid.values):
            cols = np.flatnonzero(mask).tolist()
            fh.write("".join("%s,%s,%.17g\r\n" % (xs[j], y, w)
                             for j, w in zip(cols, values[cols].tolist())))


def read_indicator(path):
    """Rebuild an :class:`IndicatorGrid` from the CSV written above."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("indicator CSV is missing its metadata line")
        fields = dict(kv.split("=") for kv in header[1:].split())
        with warnings.catch_warnings():
            # a grid without unmasked points has no rows below the column names
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", skiprows=1, usecols=(0, 1, 2), ndmin=2)
    spec = GridSpec(int(fields["nx"]), int(fields["ny"]),
                    float(fields["xmin"]), float(fields["xmax"]),
                    float(fields["ymin"]), float(fields["ymax"]))
    values = np.full((spec.ny, spec.nx), np.nan)
    xs, ys = spec.xs, spec.ys
    # rint rounds half to even, as round() does
    j = np.rint((rows[:, 0] - spec.xmin) / (xs[1] - xs[0])).astype(int)
    i = np.rint((rows[:, 1] - spec.ymin) / (ys[1] - ys[0])).astype(int)
    if np.any((i < 0) | (i >= spec.ny) | (j < 0) | (j >= spec.nx)):
        raise ValueError("indicator CSV has a row outside its grid")
    values[i, j] = rows[:, 2]
    # the rows present are the mask: an evaluated point may hold NaN
    mask = np.zeros((spec.ny, spec.nx), dtype=bool)
    mask[i, j] = True
    return IndicatorGrid(spec, values, mask)


def write_curve(path, fitted: FittedCurve, config: dict):
    doc = {"config_hash": config_hash(config),
           "M": fitted.degree,
           "a": fitted.cos_coef.tolist(),
           "b": fitted.sin_coef.tolist(),
           "smoothing": fitted.smoothing}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_curve(path) -> FittedCurve:
    with open(path) as fh:
        doc = json.load(fh)
    return FittedCurve(doc["M"], np.asarray(doc["a"], dtype=float),
                       np.asarray(doc["b"], dtype=float), doc.get("smoothing", 0.0))


def write_gamma(path, recon, config: dict):
    """CSV of the averaged impedance reconstruction."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={config_hash(config)}\n")
        writer = csv.writer(fh)
        writer.writerow(["theta", "gamma_avg", "gamma_std", "n_pairs_used"])
        for t, avg, std, cnt in zip(recon.theta, recon.average,
                                    recon.spread, recon.counts):
            writer.writerow([f"{t:.17g}", f"{avg:.17g}", f"{std:.17g}", int(cnt)])
