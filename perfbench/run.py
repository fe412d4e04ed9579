"""Throughput benchmark of the ``mi`` command, one warm process, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --ref-nominal-s S --workload NAME --seed N \
        --seconds T --trace 0|1

Workloads: structured-grid, random-tables, certificate-grid,
exhaustive-scan (see ``workloads.py``).  Every call goes through
``bfmi.cli.main(argv)`` in this process, closed loop: the next call
starts when the previous one returns.  Outputs go to ``--out`` files and
are checked by oracles outside the timed region.

Machine speed on a shared box drifts in phases, so every timed ``mi``
call is bracketed by a fixed pure-Python reference loop and its time is
rescaled by ``ref_nominal_s / ref_measured_s``: throughput is reported at
the speed at which the reference loop takes ``--ref-nominal-s``.  The raw
rate and the median raw reference time are printed next to it.

``--trace 0`` prints the end-to-end metrics: ``checks_per_s``,
``setup_s`` (median of fresh child processes, each timing ``import
bfmi`` plus building the first pass's inputs) and ``peak_rss_mb``.
``--trace 1`` prints per-layer metrics from spans around bfmi's public
functions (see ``spans.py``); traced and untraced passes alternate so
the tracing overhead is measured in the same run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REF_ITERS = 50_000
SETUP_PROBES = 11

# Both modules import only the standard library, so a setup probe's clock
# starts before anything heavy is loaded.
sys.path.insert(0, str(HERE))
from spans import LAYERS, Tracer, install_peak_alloc  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


def ref_loop() -> float:
    """Seconds taken by a fixed, allocation-light integer loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc = (acc * 31 + i) & 0xFFFF
    return perf_counter() - t0


def cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def probe_setup(workload: str, seed: int, work: Path) -> None:
    """Child process body: time ``import bfmi`` plus the first pass's inputs.

    NumPy is imported before the clock starts.  On a shared VM its import
    time follows the host's phases (0.06 s to 0.16 s within an hour on one
    2-vCPU box), which would drown any change in bfmi's own setup.
    """
    import numpy  # noqa: F401

    t0 = perf_counter()
    import bfmi.cli  # noqa: F401
    from bfmi.mi import mi_class1_closed

    make_workload(workload, mi_class1_closed).make_pass(seed, 0, work)
    print(perf_counter() - t0)


def probe_setup_once(args, work: Path) -> float:
    """Setup seconds measured by one fresh child process."""
    probe_dir = work / f"probe{len(list(work.glob('probe*')))}"
    probe_dir.mkdir()
    done = subprocess.run(
        [sys.executable, __file__, "--probe-setup", "--workload", args.workload,
         "--seed", str(args.seed), "--work", str(probe_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes: reference loop, call, reference loop, call, ..."""

    def __init__(self, workload, seed: int, work: Path, cli):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.index = 0
        self._caches = [obj for mod in sys.modules.values()
                        if mod and mod.__name__.startswith("bfmi")
                        for obj in vars(mod).values() if hasattr(obj, "cache_clear")]

    def run_pass(self, root=None) -> list:
        """Run the next pass; return (kind, raw call s, ref s around it, checks) per call.

        ``root`` wraps each call (the tracer's root span) when given.
        bfmi's own caches are emptied first, as in a fresh ``mi`` run.
        """
        for cache in self._caches:
            cache.cache_clear()
        pass_dir = self.work / f"pass{self.index}"
        pass_dir.mkdir()
        calls = self.workload.make_pass(self.seed, self.index, pass_dir)
        self.index += 1
        timed = []
        codes = []
        ref_before = ref_loop()
        for call in calls:
            t0 = perf_counter()
            try:
                code = root(self.cli.main, call.argv) if root else self.cli.main(call.argv)
            except Exception:
                code = traceback.format_exc()
            call_s = perf_counter() - t0
            ref_after = ref_loop()
            timed.append((call.kind, call_s, (ref_before + ref_after) / 2, call.checks))
            codes.append(code)
            ref_before = ref_after
        for call, code in zip(calls, codes):
            self.attempted += call.checks
            if code != 0:
                print(f"perfbench: {call.argv} returned {code}", file=sys.stderr)
            self.failed += call.checks if code != 0 else self._oracle(call)
        shutil.rmtree(pass_dir)
        return timed

    @staticmethod
    def _oracle(call) -> int:
        try:
            return call.oracle()
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            traceback.print_exc()
            return call.checks


def normalised_s_per_check(timed, ref_nominal: float) -> float:
    """Seconds per check of one pass at reference speed, from per-kind medians."""
    by_kind = {}
    for kind, call_s, ref_s, checks in timed:
        by_kind.setdefault(kind, (checks, []))[1].append(call_s * ref_nominal / ref_s)
    checks = sum(c for c, _ in by_kind.values())
    return sum(statistics.median(v) for _, v in by_kind.values()) / checks


def run_timed(runner, seconds: float, between=None) -> list:
    """Whole passes until ``seconds`` of wall time have gone.

    ``between`` runs after each pass, outside the timed calls.
    """
    timed = []
    t0 = perf_counter()
    while not timed or perf_counter() - t0 < seconds:
        timed += runner.run_pass()
        if between:
            between()
    return timed


def end_to_end(args, runner, work: Path) -> dict:
    """checks_per_s, setup_s and peak_rss_mb of one run.

    Setup probes run one at a time, spread over the run so that their
    median does not hang on one phase of the machine's speed.  The first
    probe is discarded: it may compile bytecode caches.
    """
    probe_setup_once(args, work)
    setup = [probe_setup_once(args, work)]
    runner.run_pass()  # warm-up, checked but not timed

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(probe_setup_once(args, work))

    timed = run_timed(runner, args.seconds, between=probe)
    while len(setup) < SETUP_PROBES:
        probe()
    s_per_check = normalised_s_per_check(timed, args.ref_nominal_s)
    ref_s = statistics.median(t[2] for t in timed)
    print(f"checks_per_s at measured speed: {args.ref_nominal_s / ref_s / s_per_check!r} "
          f"(bench.ref_s {ref_s!r} s, {len(timed)} calls)")
    print(f"setup_s: median of {len(setup)} probes {[round(t, 4) for t in setup]}")
    return {
        "checks_per_s": (1.0 / s_per_check, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(args, runner) -> tuple[dict, bool]:
    """Per-layer metrics and whether the self times add up to the roots."""
    runner.run_pass()  # warm-up
    tracer = Tracer()
    traced, plain = [], []
    t0 = perf_counter()
    while not traced or not plain or perf_counter() - t0 < args.seconds:
        if len(traced) <= len(plain):
            patch = tracer.install()
            try:
                traced += runner.run_pass(root=tracer.root)
            finally:
                patch.undo()
        else:
            plain += runner.run_pass()
    peaks = []
    patch = install_peak_alloc("channel.joint_yz", peaks)
    try:
        runner.run_pass()
    finally:
        patch.undo()

    checks = sum(s[3] for s in traced)
    ref_s = statistics.median(s[2] for s in traced + plain)
    scale = args.ref_nominal_s / ref_s / checks
    total_self = sum(tracer.self_s.values())
    self_ok = abs(total_self - tracer.root_s) <= 1e-9 * tracer.root_s
    print(f"trace: self times sum {total_self:.9f} s, roots {tracer.root_s:.9f} s, "
          f"{'consistent' if self_ok else 'INCONSISTENT'}")

    layer_s = {layer: 0.0 for layer in LAYERS + ("bench", "trace")}
    for name, s in tracer.self_s.items():
        layer_s[name.split(".")[0]] += s

    def self_s(name):
        return (tracer.self_s.get(name, 0.0) * scale, "s/check")

    def per_check(value, unit="1/check"):
        return (value / checks, unit)

    c = tracer.counts
    metrics = {
        name + ".self_s": self_s(name)
        for name in ("channel.joint_yz", "channel.write_csv", "mi.mutual_information",
                     "karamata.build_karamata_sequences", "karamata.certify_instance",
                     "karamata.check_majorization", "verify.verify_class", "verify.reports_to_json",
                     "verify.exhaustive_check", "boolfn.canonical_form", "boolfn.apply_index_map",
                     "boolfn.make_class", "cli.main")
    }
    metrics.update({
        "channel.joint_yz.calls": per_check(tracer.calls["channel.joint_yz"]),
        "channel.cells": per_check(c["channel.cells"]),
        "channel.joint_yz.peak_bytes": (float(max(peaks, default=0)), "B"),
        "channel.dump_bytes": per_check(c["channel.dump_bytes"], "B/check"),
        "mi.rows": per_check(c["mi.rows"]),
        "mi.distinct_rows": per_check(c["mi.distinct_rows"]),
        "mi.row_sharing_ratio": (c["mi.distinct_rows"] / c["mi.rows"] if c["mi.rows"] else 0.0, "ratio"),
        "karamata.certificates": per_check(c["karamata.certificates"]),
        "karamata.runs": per_check(c["karamata.runs"]),
        "verify.report_bytes": per_check(c["verify.report_bytes"], "B/check"),
        "verify.tables_scanned": per_check(c["verify.tables_scanned"]),
        "boolfn.canonical_form.calls": per_check(tracer.calls["boolfn.canonical_form"]),
        "cli.main.calls": per_check(tracer.calls["cli.main"]),
        "bench.ref_s": (ref_s, "s"),
        "trace.overhead_ratio": (normalised_s_per_check(traced, args.ref_nominal_s)
                                 / normalised_s_per_check(plain, args.ref_nominal_s), "ratio"),
    })
    for layer, s in layer_s.items():
        metrics[f"share.{layer}"] = (s / tracer.root_s, "ratio")
    return metrics, self_ok


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-nominal-s", type=float,
                        help="reference-loop seconds that define the reported speed")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bfmi" / "__init__.py").is_file():
        print(f"perfbench: no bfmi sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed, Path(args.work))
        return 0
    for name in ("seconds", "ref_nominal_s"):
        if getattr(args, name) is None or getattr(args, name) <= 0:
            parser.error(f"--{name.replace('_', '-')} must be given and positive")

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        import numpy
        import bfmi
        import bfmi.cli
        from bfmi.mi import mi_class1_closed

        print(f"provenance: commit={git_commit()} bfmi={bfmi.__version__} "
              f"python={platform.python_version()} numpy={numpy.__version__} nproc={nproc} "
              f"blas_threads={os.environ[BLAS_VARS[0]]} seed={args.seed} "
              f"argv={json.dumps(sys.argv if argv is None else argv)}")
        runner = Runner(make_workload(args.workload, mi_class1_closed), args.seed, work, bfmi.cli)
        correct = True
        if args.trace:
            metrics, correct = per_layer(args, runner)
        else:
            metrics = end_to_end(args, runner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(f"failed/attempted: {runner.failed}/{runner.attempted}")
    print(json.dumps({
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
