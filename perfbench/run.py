"""Benchmark entry point.

    python3 perfbench/run.py --workload grid-binary --seed 0 --seconds 35 --trace 0

Run from the root of a checkout. It imports udakit from the checkout's
``src/``, writes the workload's inputs under ``.perfbench_out/``, then runs
whole rounds of the workload's commands through ``udakit.cli.main`` in this
process until the next round would overrun ``--seconds``. The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The exit
code is non-zero when a check fails or the checkout holds no udakit.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS/OpenMP thread: set before numpy loads, or OpenBLAS starts one
# thread per core beside the harness's own workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 10
# Median time of one reference chunk on the machine described in README.md.
# Single-threaded times are reported in seconds of that machine: each is
# scaled by this over the run's own median chunk, so that the host's speed
# drifting between runs does not read as the program getting faster or
# slower. The one-thread chunk does not track rounds that run several
# threads (README.md), so those round times are left unscaled.
REFERENCE_CHUNK_S = 0.0125
REFERENCE_CHUNKS = 40       # about 0.5 s, timed before each round and after the last
PROBE_CHUNKS = 10


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and reference chunk times, and exit")
    return p.parse_args(argv)


def _import_udakit():
    """Import udakit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "udakit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no udakit sources under {src}")
    sys.path.insert(0, str(src))
    import udakit
    import udakit.cli

    if Path(udakit.__file__).resolve().parent != (src / "udakit").resolve():
        raise SystemExit(f"perfbench: imported udakit from {udakit.__file__}, not {src}")
    return udakit


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """This process's peak plus the largest waited-for child's (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def reference_chunks(n: int) -> list[float]:
    """Times of n chunks of a fixed computation shaped like nn's inner loop.

    They tell a slow machine from a slow program; udakit takes no part in them.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.standard_normal((32, 32))
    x = rng.standard_normal((64, 32))
    times = []
    for _ in range(n):
        t = time.perf_counter()
        for _ in range(1000):
            np.maximum(x @ w.T, 0.0).sum()
        times.append(time.perf_counter() - t)
    return times


def _setup(args):
    udakit = _import_udakit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"have {sorted(workloads.WORKLOADS)}")
    # one work directory per workload, emptied by each run so outputs never pile up
    workdir = OUT / args.workload / ("probe" if args.setup_only else "run")
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    return udakit, workload, time.perf_counter() - T_START


def _probe_setups(args) -> tuple[list[float], list[float]]:
    """Set-up times and reference chunk times of fresh interpreters doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    setups, chunks = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        chunks += probe["reference_chunks"]
    return setups, chunks


def _rounds(udakit, workload, seconds: float):
    """Run whole rounds until the next would end past `seconds`; at least one."""
    walls, cpus, refs, failed, digests = [], [], reference_chunks(REFERENCE_CHUNKS), 0, set()
    begin = time.perf_counter()
    while True:
        sink = io.StringIO()
        c0 = _cpu_s()
        w0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes = [udakit.cli.main(argv) for argv in workload.commands()]
        w1 = time.perf_counter()
        c1 = _cpu_s()
        refs += reference_chunks(REFERENCE_CHUNKS)
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        failed += workload.failed_ops(codes)
        if not any(codes):
            digests.add(workload.digest())
        if (time.perf_counter() - begin) + statistics.median(walls) > seconds:
            return walls, cpus, refs, failed, digests


def main(argv=None) -> int:
    args = _args(argv)
    udakit, workload, setup_s = _setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "reference_chunks": reference_chunks(PROBE_CHUNKS)}))
        return 0

    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    elif any(tracing.is_traced(fn) for mod in tracing.package_modules()
             for fn in vars(mod).values()):
        raise SystemExit("perfbench: an untraced run found wrapped udakit functions")

    walls, cpus, refs, failed, digests = _rounds(udakit, workload, args.seconds)
    peak_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.remove()

    fails = []
    if len(digests) > 1:
        fails.append(f"outputs differ between rounds ({len(digests)} distinct)")
    try:
        fails += workload.check()
    except Exception as err:  # a crashed check is a failed check, reported as such
        fails.append(f"check raised {type(err).__name__}: {err}")

    rounds = len(walls)
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "round_wall_s": walls, "round_cpu_s": cpus,
            "reference_chunk_s": statistics.median(refs)}
    if tracer is None:
        setups, probe_refs = _probe_setups(args)
        setups.append(setup_s)
        scale = REFERENCE_CHUNK_S / statistics.median(refs + probe_refs)
        round_scale = scale if workload.threads == 1 else 1.0
        metrics = {
            "wall_s": {"value": round_scale * statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": round_scale * statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": scale * statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        info.update(setup_s_samples=setups, scale=scale,
                    reference_chunk_s=statistics.median(refs + probe_refs))
    else:
        spans = tracer.spans()
        steps = tracing.trainer_steps(spans)
        want = {k: v * rounds for k, v in workload.expected_steps().items()}
        if steps != want:
            fails.append(f"traced sgd_step calls per trainer {steps} != config's {want}")
        layer = tracing.summarize(spans, rounds, workload.repeats)
        units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in units}
        info["spans"] = len(spans)
        info["traced_wall_s"] = statistics.median(walls)
        path = OUT / args.workload / "spans.csv.gz"
        tracer.write(path)
        info["spans_file"] = str(path.relative_to(ROOT))

    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(info))
    attempted = rounds * workload.ops_per_round
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
