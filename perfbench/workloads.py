"""The benchmark's workloads: CLI argument lists per stage, and output checks.

Every workload is a sequence of ``eitdisk`` subcommands that pass files to
one another inside a working directory.  ``seed`` becomes the ``--seed`` of
every stage that adds noise.  ``small=True`` shrinks the grids and node counts
for smoke tests; the benchmark itself always runs the full sizes.

The checks read the stage outputs with their own parsers, not with
``eitdisk.io``, so a bug in a reader cannot hide a bug in a writer.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

CIRCLE = '{"kind": "circle", "center": [0, 0], "radius": 0.5}'
ELLIPSE = '{"kind": "ellipse", "a": 0.5, "b": 0.3}'
GAMMA = "2 - sin(theta)**4"
INPUTS = {"circle.json": CIRCLE, "ellipse.json": ELLIPSE}

# stage name -> the file it writes
OUTPUTS = {"forward": "dtn.json", "sample": "indicator.csv",
           "extract": "curve.json", "impedance": "gamma.csv"}


def _circle_radius(phi):
    return np.full_like(phi, 0.5)


def _forward_circle():
    return ["forward", "--geometry", "circle.json", "--bc", "dirichlet",
            "--basis", "collocation:64", "--sim-nodes", "64", "--out", "dtn.json"]


def _sample_noisy(grid, seed):
    return ["sample", "--data", "dtn.json", "--grid", str(grid), "--noise", "0.05",
            "--seed", str(seed), "--reg", "tikhonov:disc:1.5", "--out", "indicator.csv"]


def _extract():
    return ["extract", "--indicator", "indicator.csv", "--threshold-rel", "0.2",
            "--degree", "7", "--out", "curve.json"]


def _impedance(seed, nodes):
    """``nodes`` are the node-count arguments, e.g. ``["--sim-nodes", "64"]``."""
    return ["impedance", "--geometry", "ellipse.json", "--gamma", GAMMA,
            "--pairs", "16", "--noise", "0.04", "--seed", str(seed),
            "--reg", "cutoff:noise:2", "--mask-tol", "0.2", *nodes, "--out", "gamma.csv"]


def readme(seed, small=False):
    return [_forward_circle(), _sample_noisy(41 if small else 101, seed), _extract(),
            _impedance(seed, ["--sim-nodes", "64"])]


def fine_grid(seed, small=False):
    return [_forward_circle(), _sample_noisy(61 if small else 401, seed), _extract()]


def many_nodes(seed, small=False):
    outer, inner, sim, nodes = (64, 64, 64, 64) if small else (512, 512, 256, 512)
    return [
        ["forward", "--geometry", "ellipse.json", "--bc", "impedance", "--gamma", GAMMA,
         "--noise", "0.04", "--seed", str(seed), "--basis", "fourier:19",
         "--sim-nodes", str(outer), "--inner-nodes", str(inner), "--out", "dtn.json"],
        ["sample", "--data", "dtn.json", "--grid", "41" if small else "101",
         "--reg", "cutoff:0.0001", "--out", "indicator.csv"],
        _impedance(seed, ["--sim-nodes", str(sim), "--nodes", str(nodes)]),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    stages: object                 # (seed, small) -> list of argv lists
    shape_truth: object = None     # polar radius of the true inclusion, or None
    gates: tuple = ()              # (metric, tolerance) pairs checked on every pass


WORKLOADS = {
    "readme": Workload("readme", readme, _circle_radius,
                       (("shape_rel_err", 0.15), ("gamma_rel_err", 0.25))),
    "fine-grid": Workload("fine-grid", fine_grid, _circle_radius,
                          (("shape_rel_err", 0.15),)),
    # gamma_rel_err is reported on many-nodes without a gate: at 256-512 nodes
    # the noise-tied cutoff loses accuracy (about 0.42 against 0.17 at 64
    # nodes) and two pairs lose every singular mode.  The benchmark shows this
    # defect instead of shrinking the workload to hide it.
    "many-nodes": Workload("many-nodes", many_nodes),
}


def shape_rel_err(curve_path, truth):
    """Relative L2 error of the fitted curve's polar radius against ``truth``.

    The curve JSON holds ``a`` and ``b``: cosine and sine coefficients of
    degree ``1..M`` for the x row and the y row.
    """
    with open(curve_path) as fh:
        doc = json.load(fh)
    a = np.asarray(doc["a"], dtype=float)
    b = np.asarray(doc["b"], dtype=float)
    t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    m = np.arange(1, a.shape[1] + 1)
    cos, sin = np.cos(np.outer(t, m)), np.sin(np.outer(t, m))
    x = cos @ a[0] + sin @ b[0]
    y = cos @ a[1] + sin @ b[1]
    r_fit = np.hypot(x, y)
    r_true = truth(np.arctan2(y, x))
    return float(np.linalg.norm(r_fit - r_true) / np.linalg.norm(r_true))


def gamma_rel_err(gamma_path):
    """Relative L2 error of ``gamma_avg`` against ``2 - sin(theta)**4``.

    Masked nodes (``nan``) count as zero error, as in acceptance criterion 9.
    """
    with open(gamma_path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if rows[0][:2] != ["theta", "gamma_avg"]:
        raise ValueError(f"unexpected gamma CSV header {rows[0]}")
    data = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    theta, avg = data[:, 0], data[:, 1]
    truth = 2.0 - np.sin(theta) ** 4
    diff = np.where(np.isnan(avg), 0.0, avg - truth)
    return float(np.linalg.norm(diff) / np.linalg.norm(truth))
