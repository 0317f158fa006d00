"""What the traced run wraps, and how per-layer metrics come from its spans.

``TARGETS`` lists the public functions of ``bie``, ``dtn``, ``regularization``,
``sampling``, ``completion`` and ``io``, and the numpy/scipy linear-algebra
entry points they call.  ``layers.json`` maps each per-layer metric to the
spans it aggregates and to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .spans import Target, self_times

MAPPING_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def _complex_factor(a):
    return 4.0 if np.iscomplexobj(a) else 1.0


def svd_gflop(a, full_matrices=True, compute_uv=True, *_, **__):
    """Golub-Van Loan operation count of an SVD of ``a``, in units of 1e9.

    Singular values only: ``4 l k^2 - 4 k^3 / 3``; with full singular vectors:
    ``4 l^2 k + 8 l k^2 + 9 k^3``; with thin ones (``full_matrices=False``):
    ``14 l k^2 + 8 k^3``, where ``l >= k`` are the matrix sides.  Complex
    arithmetic counts four real operations per complex one.
    """
    m, n = a.shape[-2:]
    big, small = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4.0 * big * small**2 - 4.0 * small**3 / 3.0
    elif full_matrices:
        flops = 4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3
    else:
        flops = 14.0 * big * small**2 + 8.0 * small**3
    return {"gflop": _complex_factor(a) * flops / 1e9}


def lu_gflop(a, *_, **__):
    """Operation count ``m n^2 - n^3 / 3`` of an LU factorization, in 1e9."""
    m, n = a.shape
    k = min(m, n)
    flops = max(m, n) * k**2 - k**3 / 3.0
    return {"gflop": _complex_factor(a) * flops / 1e9}


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def bytes_written(_result, *args, **kwargs):
    return {"bytes_written": os.path.getsize(_path_arg(args, kwargs))}


def bytes_read(*args, **kwargs):
    return {"bytes_read": os.path.getsize(_path_arg(args, kwargs))}


TARGETS = (
    Target("bie.dtn_matrix", "eitdisk.bie:dtn_matrix"),
    Target("bie.solve_forward", "eitdisk.bie:solve_forward"),
    Target("bie.double_layer", "eitdisk.bie:double_layer"),
    Target("bie.single_layer", "eitdisk.bie:single_layer"),
    Target("bie.modified_double_layer", "eitdisk.bie:modified_double_layer"),
    Target("bie.normal_derivative", "eitdisk.bie:normal_derivative"),
    Target("linalg.svd", "numpy.linalg:svd", before=svd_gflop),
    Target("linalg.cond", "numpy.linalg:cond"),
    Target("linalg.lu_factor", "scipy.linalg:lu_factor", before=lu_gflop),
    Target("linalg.lu_solve", "scipy.linalg:lu_solve"),
    Target("dtn.gap_from_lambda0", "eitdisk.dtn:gap_from_lambda0"),
    Target("regularization.svd_factorization",
           "eitdisk.regularization:SvdFactorization.from_matrix"),
    Target("regularization.regularized_solve", "eitdisk.regularization:regularized_solve"),
    Target("regularization.discrepancy_alpha", "eitdisk.regularization:discrepancy_alpha"),
    Target("regularization.perturb_matrix", "eitdisk.regularization:perturb_matrix"),
    Target("regularization.perturb_vector", "eitdisk.regularization:perturb_vector"),
    Target("sampling.scan", "eitdisk.sampling:scan",
           after=lambda grid, *a, **k: {"points": int(grid.mask.sum())}),
    Target("sampling.extract_level_set", "eitdisk.sampling:extract_level_set",
           after=lambda pts, *a, **k: {"contour_points": len(pts)}),
    Target("sampling.fit_trig_curve", "eitdisk.sampling:fit_trig_curve"),
    Target("completion.assemble_completion", "eitdisk.completion:assemble_completion"),
    Target("completion.complete_cauchy", "eitdisk.completion:complete_cauchy",
           after=lambda out, *a, **k: {"used": 0 if out[2].get("noise_dominated") else 1}),
    Target("completion.recover_gamma_averaged", "eitdisk.completion:recover_gamma_averaged",
           after=lambda rec, *a, **k: {"recovered": float(rec.unmasked().mean())}),
    Target("io.write_dtn", "eitdisk.io:write_dtn", after=bytes_written),
    Target("io.read_dtn", "eitdisk.io:read_dtn", before=bytes_read),
    Target("io.write_indicator", "eitdisk.io:write_indicator", after=bytes_written),
    Target("io.read_indicator", "eitdisk.io:read_indicator", before=bytes_read),
    Target("io.write_curve", "eitdisk.io:write_curve", after=bytes_written),
    Target("io.write_gamma", "eitdisk.io:write_gamma", after=bytes_written),
)


def load_mapping():
    with open(MAPPING_PATH) as fh:
        return json.load(fh)["metrics"]


def aggregate(spans, mapping):
    """Per-layer metrics of one traced pass; ``harness`` entries are skipped."""
    own = self_times(spans)
    out = {}
    for metric, spec in mapping.items():
        kind, _, attr = spec["agg"].partition(":")
        if kind == "harness":
            continue
        picked = [i for i, s in enumerate(spans) if s.name in spec["spans"]]
        if kind == "self_s":
            out[metric] = sum(own[i] for i in picked)
        elif kind == "calls":
            out[metric] = len(picked)
        elif kind == "sum":
            out[metric] = sum(spans[i].attrs.get(attr, 0) for i in picked)
        elif kind == "mean":
            values = [spans[i].attrs.get(attr, 0) for i in picked]
            out[metric] = sum(values) / len(values) if values else 0.0
        elif kind == "rate":
            busy = sum(spans[i].duration for i in picked)
            total = sum(spans[i].attrs.get(attr, 0) for i in picked)
            out[metric] = total / busy if busy > 0 else 0.0
        else:
            raise ValueError(f"unknown aggregation {spec['agg']!r} for {metric}")
    return out
