"""Runs workload passes in one process, times the stages, checks the outputs.

A *pass* runs every stage of a workload back to back through
``eitdisk.cli.main``, in a working directory the harness creates and removes.
Every pass of a run gives the run's seed to the CLI as ``--seed``, so every
pass must write byte-identical files, and the accuracy gates give the same
verdict on every pass.

The untraced run (``trace=False``) warms up with one pass, then repeats it
until ``seconds`` have passed.  It reports every end-to-end metric.
Times are reported scaled by the speed probe of ``probe.py``, which runs
between stages, and also unscaled under names ending in ``_raw``.

The traced run alternates untraced and traced passes.  Both kinds must write
byte-identical files.  It reports the per-layer metrics of
``layers.json`` as medians over the traced passes, and the tracing overhead:
the difference of the probe-scaled pipeline_s medians of the two kinds.

``attempted`` counts stage invocations and checks: the accuracy gates of every
pass, the identity of every pass's files with the warm-up pass's, and each
set-up import; ``failed`` counts those that failed.  A stage fails when it
returns nonzero or raises; the stages after it in the same pass are not run
and count as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field

from . import THREAD_VARS
from .layers import TARGETS, aggregate, load_mapping
from .probe import SpeedProbe
from .spans import Tracer, patched
from .workloads import INPUTS, OUTPUTS, WORKLOADS, gamma_rel_err, shape_rel_err

MAX_PASSES = 1000
SETUP_REPEATS = 5
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# every number the untraced run reports.  BENCHMARK.json declares the ones that
# every workload reports with a nonzero value that repeats within its bound
# from run to run; the stage times do not, since a stage that takes 50 ms and
# runs only a few times in a run (forward on fine-grid, sample on many-nodes)
# spreads by 15-19% from run to run.  Times are scaled by the speed probe;
# each also appears unscaled with the suffix "_raw".
E2E_UNITS = {"pipeline_s": "s", "forward_s": "s", "sample_s": "s", "extract_s": "s",
             "impedance_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "shape_rel_err": "1", "gamma_rel_err": "1", "failed_frac": "1",
             "all_modes_cut": "count"}
E2E_UNITS.update({f"{name}_raw": "s" for name, unit in list(E2E_UNITS.items())
                  if unit == "s"})


class ProgramMissing(RuntimeError):
    """The checkout holds no eitdisk sources to benchmark."""


def ensure_program(root):
    """Import ``eitdisk.cli`` from ``<root>/src``, never from an installed copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "eitdisk", "cli.py")):
        raise ProgramMissing(f"no eitdisk sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import eitdisk.cli
    if not os.path.abspath(eitdisk.cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"eitdisk was imported from {eitdisk.cli.__file__}, not {src}")
    return eitdisk.cli


@dataclass
class StageResult:
    name: str
    seconds: float
    ok: bool
    digest: str = ""
    message: str = ""
    all_modes_cut: int = 0
    speed: float = 1.0        # probe scale factor, see probe.py

    @property
    def scaled(self):
        return self.seconds * self.speed


@dataclass
class PassResult:
    seed: int
    stages: list
    skipped: int
    errors: dict = field(default_factory=dict)    # shape_rel_err / gamma_rel_err

    @property
    def ok(self):
        return self.skipped == 0 and all(s.ok for s in self.stages)

    @property
    def pipeline_s(self):
        return sum(s.seconds for s in self.stages)

    @property
    def scaled_pipeline_s(self):
        return sum(s.scaled for s in self.stages)

    def digests(self):
        return {s.name: s.digest for s in self.stages}


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_stage(cli, argv, workdir, tracer=None):
    """Run one CLI invocation; time it, capture its output, hash its file."""
    name = argv[0]
    captured = io.StringIO()
    span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
    message = ""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                with span:
                    code = cli.main(argv)
            except (Exception, SystemExit):
                code = None
                message = traceback.format_exc()
            seconds = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    cut = sum(w.category.__name__ == "AllModesCutWarning" for w in caught)
    if code != 0:
        return StageResult(name, seconds, False,
                           message=message or f"exit {code}: {captured.getvalue()[-500:]}",
                           all_modes_cut=cut)
    try:
        digest = _digest(os.path.join(workdir, OUTPUTS[name]))
    except OSError as exc:
        return StageResult(name, seconds, False, message=f"no output: {exc}",
                           all_modes_cut=cut)
    return StageResult(name, seconds, True, digest, all_modes_cut=cut)


def run_pass(cli, workload, seed, workdir, small=False, tracer=None, probe=None):
    """Run a workload's stages in order; with a probe, measure it around each."""
    argvs = workload.stages(seed, small)
    stages = []
    reading = probe.measure() if probe else None
    span = tracer.span("pass") if tracer else contextlib.nullcontext()
    with span as record:
        for argv in argvs:
            stages.append(run_stage(cli, argv, workdir, tracer))
            if probe:
                after = probe.measure()
                stages[-1].speed = probe.speed(reading, after)
                reading = after
            if not stages[-1].ok:
                break
        if tracer:
            record.attrs["all_modes_cut"] = sum(s.all_modes_cut for s in stages)
    result = PassResult(seed, stages, len(argvs) - len(stages))
    if not result.ok:
        return result
    names = [s.name for s in stages]
    try:
        if "extract" in names and workload.shape_truth is not None:
            result.errors["shape_rel_err"] = shape_rel_err(
                os.path.join(workdir, OUTPUTS["extract"]), workload.shape_truth)
        if "impedance" in names:
            result.errors["gamma_rel_err"] = gamma_rel_err(
                os.path.join(workdir, OUTPUTS["impedance"]))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        stages[-1].ok = False
        stages[-1].message = f"output check failed: {exc!r}"
    return result


class Ledger:
    """Attempted and failed operations, with a message per failure.

    ``gates`` are ``(metric, tolerance)`` pairs checked on every complete pass.
    """

    def __init__(self, gates=()):
        self.gates = gates
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_pass(self, result):
        self.attempted += len(result.stages) + result.skipped
        for stage in result.stages:
            if not stage.ok:
                self.failed += 1
                self.problems.append(f"seed {result.seed} {stage.name}: {stage.message.strip()}")
        if result.skipped:
            self.failed += result.skipped
            self.problems.append(f"seed {result.seed}: {result.skipped} later stage(s) not run")
        if result.ok:
            for metric, tol in self.gates:
                value = result.errors.get(metric, math.inf)
                self.check(value <= tol, f"seed {result.seed}: {metric} {value:.4g} above {tol}")

    def check_repeat(self, result, reference):
        """Check that a pass wrote the same files as ``reference``, if both ran."""
        if result.ok and reference.ok:
            self.check(result.digests() == reference.digests(),
                       f"seed {result.seed}: a repeated pass wrote different files")

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def summary(values):
    """Median, the highest percentile with ten samples beyond it, and the count.

    With fewer than 20 samples no percentile above the median has ten samples
    beyond it, so the maximum is given instead.
    """
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    else:
        out["max"] = values[-1]
    return out


def measure_setup(root, repeats, ledger, probe):
    """Seconds from starting a fresh interpreter until ``import eitdisk.cli`` ends.

    Returns raw and probe-scaled times.  The first start fills the file cache
    and byte-code cache and is dropped.
    """
    src = os.path.join(os.path.abspath(root), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import eitdisk.cli, time; t = time.monotonic(); "
            "print(eitdisk.cli.__file__); print(t)")
    raw, scaled = [], []
    reading = probe.measure()
    for i in range(repeats + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        ok = (proc.returncode == 0 and len(lines) == 2
              and os.path.abspath(lines[0]).startswith(src + os.sep))
        after = probe.measure()
        speed = probe.speed(reading, after)
        reading = after
        if i == 0:
            continue
        if ledger.check(ok, f"set-up import failed: {proc.stderr[-500:]}"):
            raw.append(float(lines[1]) - start)
            scaled.append(raw[-1] * speed)
    return raw, scaled


def environment(root):
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = os.path.join(root, "src", "eitdisk")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "src_eitdisk_lines": lines}


def _stage_metrics(passes):
    good = [p for p in passes if p.ok] or passes
    values = {"pipeline_s": [p.scaled_pipeline_s for p in good],
              "pipeline_s_raw": [p.pipeline_s for p in good],
              "all_modes_cut": [sum(s.all_modes_cut for s in p.stages) for p in good]}
    for p in good:
        for s in p.stages:
            values.setdefault(f"{s.name}_s", []).append(s.scaled)
            values.setdefault(f"{s.name}_s_raw", []).append(s.seconds)
        for name, err in p.errors.items():
            values.setdefault(name, []).append(err)
    return values


def _timed_run(cli, workload, seed, seconds, root, workdir, small):
    ledger = Ledger(workload.gates)
    probe = SpeedProbe()
    probe.measure()
    setup_raw, setup = measure_setup(root, SETUP_REPEATS, ledger, probe)
    warm = run_pass(cli, workload, seed, workdir, small, probe=probe)
    ledger.add_pass(warm)
    passes = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        passes.append(run_pass(cli, workload, seed, workdir, small, probe=probe))
        ledger.add_pass(passes[-1])
        ledger.check_repeat(passes[-1], warm)
        if time.perf_counter() - start >= seconds:
            break
    values = _stage_metrics(passes)
    if setup:
        values["setup_s"], values["setup_s_raw"] = setup, setup_raw
    values["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    gates = {}
    for metric, tol in workload.gates:
        found = values.get(metric, [])
        above = sum(v > tol for v in found)
        gates[metric] = {"median": statistics.median(found) if found else math.inf,
                         "tolerance": tol, "passes_above": above,
                         "passed": bool(found) and above == 0}
    values["failed_frac"] = [ledger.failed / max(ledger.attempted, 1)]
    report = {name: dict(summary(v), unit=E2E_UNITS[name]) for name, v in values.items()}
    return ledger, report, {"gates": gates}


def _traced_run(cli, workload, seed, seconds, workdir, small):
    ledger = Ledger(workload.gates)
    mapping = load_mapping()
    warm = run_pass(cli, workload, seed, workdir, small)
    ledger.add_pass(warm)
    probe = SpeedProbe()
    reading = probe.measure()
    plain, traced, layer_values, span_dump = [], [], {}, []
    scaled = {False: [], True: []}     # probe-scaled pipeline_s, untraced and traced
    start = time.perf_counter()
    while len(plain) < MAX_PASSES:
        k = len(plain)
        tracer = Tracer()
        # alternate which pass of the pair goes first, so drift cancels; the
        # probe runs between passes, outside the wrapped functions
        for is_traced in (k % 2 == 1, k % 2 == 0):
            with patched(tracer, TARGETS) if is_traced else contextlib.nullcontext():
                result = run_pass(cli, workload, seed, workdir, small,
                                  tracer if is_traced else None)
            after = probe.measure()
            scaled[is_traced].append(result.pipeline_s * probe.speed(reading, after))
            reading = after
            (traced if is_traced else plain).append(result)
        for result in (plain[-1], traced[-1]):
            ledger.add_pass(result)
            ledger.check_repeat(result, warm)
        for metric, value in aggregate(tracer.spans, mapping).items():
            layer_values.setdefault(metric, []).append(value)
        span_dump.append([s.to_dict() for s in tracer.spans])
        if time.perf_counter() - start >= seconds:
            break
    plain_s = statistics.median(scaled[False])
    layer_values["trace.pipeline_s"] = scaled[True]
    layer_values["trace.overhead_s"] = [statistics.median(scaled[True]) - plain_s]
    report = {name: summary(v) for name, v in layer_values.items()}
    return ledger, report, {"spans": span_dump, "untraced_pipeline_s": plain_s}


def run(workload_name, seed, seconds, trace, root, small=False):
    """Run one workload; return ``(ledger, metric summaries, extras)``.

    All inputs and outputs live in a fresh directory under ``root`` that is
    removed before returning.
    """
    cli = ensure_program(root)
    workload = WORKLOADS[workload_name]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        for name, text in INPUTS.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text + "\n")
        if trace:
            return _traced_run(cli, workload, seed, seconds, workdir, small)
        return _timed_run(cli, workload, seed, seconds, root, workdir, small)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_spans(workload_name, seed, spans):
    """Write the spans of every traced pass to ``perfbench/out/``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload_name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload_name, "seed": seed, "passes": spans}, fh)
    return path
