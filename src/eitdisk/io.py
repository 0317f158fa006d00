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
from .sampling import GridSpec, IndicatorGrid

__all__ = [
    "config_hash",
    "write_dtn", "read_dtn",
    "write_indicator", "read_indicator",
    "write_curve", "read_curve",
    "write_gamma",
]


def config_hash(config: dict) -> str:
    """Stable 16-hex-digit digest of a JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _matrix_to_pairs(mat):
    m = np.asarray(mat, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _matrix_from_pairs(rows, is_complex):
    try:
        pairs = np.array(rows)
        valid = pairs.dtype.kind in "iuf" and pairs.ndim == 3 and pairs.shape[2] == 2
    except ValueError:  # rows or pairs of unequal lengths
        valid = False
    if not valid:
        raise ValueError("lambda0 must hold one [re, im] pair of numbers per entry")
    m = pairs.astype(float, copy=False).view(complex)[..., 0]  # the same bits, -0.0 included
    if is_complex:
        return m
    if np.any(m.imag):
        raise ValueError("lambda0 has a nonzero imaginary part but 'complex' is false")
    return m.real


def write_dtn(path, lambda0: DtnOperator, config: dict, geometry: dict, bc: dict):
    """Write the simulated current map as JSON, with the inclusion ``geometry``
    and boundary condition ``bc`` it was simulated for."""
    doc = {
        "config_hash": config_hash(config),
        "config": config,
        "basis": lambda0.basis,
        "modes": None if lambda0.modes is None else lambda0.modes.tolist(),
        "complex": bool(np.iscomplexobj(lambda0.matrix)),
        "lambda0": _matrix_to_pairs(lambda0.matrix),
        "geometry": geometry,
        "bc": bc,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def _read_json(path, what, *keys):
    """JSON document of ``path``; a missing one of ``keys`` raises :class:`ValueError`."""
    with open(path) as fh:
        doc = json.load(fh)
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} {path} has no key {key!r}")
    return doc


def read_dtn(path):
    """The simulated current map of a file written by :func:`write_dtn`; an
    entry or key its writer never writes raises :class:`ValueError` naming
    the file."""
    doc = _read_json(path, "DtN file", "basis", "modes", "complex", "lambda0")
    if not isinstance(doc["complex"], bool):
        raise ValueError(f"DtN file {path}: 'complex' must be true or false, "
                         f"not {doc['complex']!r}")
    try:
        matrix = _matrix_from_pairs(doc["lambda0"], doc["complex"])
        return DtnOperator(doc["basis"], matrix, doc["modes"])
    except ValueError as exc:
        raise ValueError(f"DtN file {path}: {exc}") from None


def write_indicator(path, grid: IndicatorGrid, config: dict):
    """CSV of unmasked grid points, one ``x,y,W`` row each, in row-major order.

    Lines end in CRLF, the row terminator of the :mod:`csv` module.  The
    coordinates are formatted once per grid line, and each grid row is
    written as one block: a template holding the row's coordinates, into
    which one ``%`` formats all of its values.
    """
    xs = ["%.17g" % x for x in grid.spec.xs]
    ys = ["%.17g" % y for y in grid.spec.ys]
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={config_hash(config)} nx={grid.spec.nx} ny={grid.spec.ny}"
                 f" xmin={grid.spec.xmin!r} xmax={grid.spec.xmax!r}"
                 f" ymin={grid.spec.ymin!r} ymax={grid.spec.ymax!r}\n")
        fh.write("x,y,W\r\n")
        for y, mask, values in zip(ys, grid.mask, grid.values):
            cols = np.flatnonzero(mask)
            if not len(cols):
                continue
            sep = f",{y},%.17g\r\n"
            fh.write((sep.join([xs[j] for j in cols.tolist()]) + sep)
                     % tuple(values[cols].tolist()))


def _grid_spec(path, header):
    """The :class:`GridSpec` of an indicator CSV's metadata line; a token
    that is not ``key=value``, a repeated key, or a missing or invalid grid
    key raises :class:`ValueError` naming the file and the token or key."""
    fields = {}
    for token in header[1:].split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"indicator CSV {path} header token {token!r} is not key=value")
        if key in fields:
            raise ValueError(f"indicator CSV {path} header repeats key {key!r}")
        fields[key] = value
    values = []
    for key, kind in (("nx", int), ("ny", int), ("xmin", float), ("xmax", float),
                      ("ymin", float), ("ymax", float)):
        if key not in fields:
            raise ValueError(f"indicator CSV {path} header has no key {key!r}")
        try:
            values.append(kind(fields[key]))
        except ValueError:
            raise ValueError(f"indicator CSV {path} header key {key!r} holds "
                             f"{fields[key]!r}, not a {kind.__name__}") from None
    try:
        return GridSpec(*values)
    except ValueError as exc:
        raise ValueError(f"indicator CSV {path} header: {exc}") from None


def read_indicator(path):
    """Rebuild an :class:`IndicatorGrid` from the CSV written above; a header
    that does not describe a grid, a row that is not on one of its points or
    repeats one, or a ``W`` that is negative or infinite raises
    :class:`ValueError`.  A NaN ``W`` marks an evaluated point whose cutoff
    removed every mode.

    The writer's ``%.17g`` round-trips every coordinate, so each row's ``x``
    and ``y`` equal a grid coordinate exactly."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("indicator CSV is missing its metadata line")
        spec = _grid_spec(path, header)
        with warnings.catch_warnings():
            # a grid without unmasked points has no rows below the column names
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", skiprows=1, usecols=(0, 1, 2), ndmin=2)
    values = np.full((spec.ny, spec.nx), np.nan)
    xs, ys = spec.xs, spec.ys
    # rint rounds half to even, as round() does
    j = np.rint((rows[:, 0] - spec.xmin) / (xs[1] - xs[0])).astype(int)
    i = np.rint((rows[:, 1] - spec.ymin) / (ys[1] - ys[0])).astype(int)
    if np.any((i < 0) | (i >= spec.ny) | (j < 0) | (j >= spec.nx)):
        raise ValueError(f"indicator CSV {path} has a row outside its grid")
    if np.any(xs[j] != rows[:, 0]) or np.any(ys[i] != rows[:, 1]):
        raise ValueError(f"indicator CSV {path} has a row off its grid's coordinates")
    if np.any((rows[:, 2] < 0) | np.isinf(rows[:, 2])):
        raise ValueError(f"indicator CSV {path} has a W that is negative or infinite")
    values[i, j] = rows[:, 2]
    # the rows present are the mask: an evaluated point may hold NaN
    mask = np.zeros((spec.ny, spec.nx), dtype=bool)
    mask[i, j] = True
    if np.count_nonzero(mask) != len(rows):
        raise ValueError(f"indicator CSV {path} repeats a grid point")
    return IndicatorGrid(spec, values, mask)


def write_curve(path, curve: BoundaryCurve, config: dict):
    """JSON of a fitted ``trig`` curve: degree ``M`` and rows ``a``, ``b``.

    The fit has no penalty, and the file keeps its ``"smoothing": 0.0`` key so
    that its bytes stay those of earlier versions."""
    doc = {"config_hash": config_hash(config),
           "M": curve.cos_coef.shape[1],
           "a": curve.cos_coef.tolist(),
           "b": curve.sin_coef.tolist(),
           "smoothing": 0.0}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def read_curve(path) -> BoundaryCurve:
    """The ``trig`` curve of a fitted-curve file; ``M`` must match its columns."""
    doc = _read_json(path, "curve file", "a", "b")
    curve = BoundaryCurve.trig(doc["a"], doc["b"])
    if doc.get("M") != curve.cos_coef.shape[1]:
        raise ValueError(f"curve file declares M={doc.get('M')!r} but holds "
                         f"{curve.cos_coef.shape[1]} coefficient columns")
    return curve


def write_gamma(path, recon, config: dict):
    """CSV of the averaged impedance reconstruction."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={config_hash(config)}\n")
        writer = csv.writer(fh)
        writer.writerow(["theta", "gamma_avg", "gamma_std", "n_pairs_used"])
        for t, avg, std, cnt in zip(recon.theta, recon.average,
                                    recon.spread, recon.counts):
            writer.writerow([f"{t:.17g}", f"{avg:.17g}", f"{std:.17g}", int(cnt)])
