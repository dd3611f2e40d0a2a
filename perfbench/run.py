"""stman benchmark: one workload per invocation, in one process.

    python3 perfbench/run.py --workload train-stman --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout. The package is imported from
``src/``; nothing is installed. BLAS is pinned to one thread before
numpy loads. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run (see ``layers.py``). The lines before it give the
environment and a readable table. Spans of a traced run are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up time spent before each round of timed calls (at least one set-up),
# so that the set-ups are spread over the whole run.
SETUP_S_PER_ROUND = 0.25

now = time.perf_counter


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the schema test only")
    return p.parse_args(argv)


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, seed):
    import numpy as np

    from layers import DEFAULT_SEED, HELDOUT_SEED

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "stman").glob("*.py")))
    return {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "nproc": os.cpu_count(), "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": _git_commit(), "src_stman_lines": lines,
    }


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _setups(wl, probe, times):
    """Sets the workload up again and again for about SETUP_S_PER_ROUND,
    at least once; appends each set-up's time and returns the last state."""
    spent = 0.0
    with probe:
        while spent < SETUP_S_PER_ROUND:
            # each set-up starts, like a fresh process, with no garbage and
            # no earlier set-up's state alive
            state = None
            gc.collect()
            t0 = now()
            state = wl.setup()
            times.append(now() - t0)
            spent += times[-1]
    return state


def _timed_calls(wl, setup_probe, probes, budget_s):
    """Rounds of set-ups and one workload call under each probe in turn,
    for at most about the budget; at least one round."""
    setups = []
    walls = [[] for _ in probes]
    cpu = [[] for _ in probes]
    results = []
    start = now()
    while True:
        state = _setups(wl, setup_probe, setups)
        for probe, w, c in zip(probes, walls, cpu):
            # each call starts, like the first in a fresh process, with no
            # garbage left by the last one
            gc.collect()
            with probe:
                c0, t0 = os.times(), now()
                results.append(wl.call(state))
                t1, c1 = now(), os.times()
            w.append(t1 - t0)
            c.append(sum(c1[:4]) - sum(c0[:4]))
        # stop when the next round would likely overrun: a run never
        # measures much longer than the budget
        round_s = sum(statistics.median(w) for w in walls) + SETUP_S_PER_ROUND
        if now() - start + round_s > budget_s:
            return state, setups, walls, cpu, results
        # one state is alive at a time, so that the peak RSS is that of a
        # process that sets up once, whatever the number of set-ups
        del state


def run(args) -> dict:
    from layers import DEFAULT_SEED, LAYERS
    from probe import Probe
    from workloads import WORKLOADS, Check

    seed = DEFAULT_SEED if args.seed is None else args.seed
    env = environment(args, seed)
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = WORKLOADS[args.workload](seed, args.smoke, Path(tmp))
        wl.make_inputs()
        setup_probe = Probe(traced=bool(args.trace))
        plain = Probe(traced=False)
        probes = [plain, Probe(traced=True)] if args.trace else [plain]
        state, setups, walls, cpu, results = _timed_calls(wl, setup_probe, probes,
                                                          args.seconds)
        probe = probes[-1]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        check = Check()
        wl.check(check, state, results)
        loss = wl.loss_after_n(state, results[0])
        check(math.isfinite(loss), "non-finite loss_after_n")
        steps = plain.step_ms(wl.step_kind)
        n_steps = sum(len(p.step_ms(wl.step_kind)) for p in probes)
        n_dialogues = wl.dialogues_per_call(state)

    if args.trace:
        values = probe.layer_metrics(wl.step_kind, len(walls[1]), 0)
        setup_layers = setup_probe.layer_metrics(wl.step_kind, 1, len(setups))
        values["training.ckpt_load_ms"] = setup_layers["training.ckpt_load_ms"]
        values["evalcli.grid_cpu_share"] = (
            statistics.median(c / w for c, w in zip(cpu[0], walls[0])) / os.cpu_count()
            if wl.name == "grid-ablate" else 0.0)
        values["trace.overhead_share"] = statistics.median(walls[1]) / statistics.median(walls[0]) - 1
        metrics = {k: {"value": values[k], "unit": LAYERS[k]["unit"]} for k in LAYERS}
        trace_file = OUT / f"trace-{wl.name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"env": env, "spans": probe.span_records(),
                                          "steps": probe.steps}))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "dlg_per_s": {"value": n_dialogues * len(walls[0]) / sum(walls[0]),
                          "unit": "1/s"},
            "step_ms_p50": {"value": statistics.median(steps), "unit": "ms"},
            "step_ms_p90": {"value": _p90(steps), "unit": "ms"},
            "loss_after_n": {"value": loss, "unit": "nats"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    failed = len(check.failed)
    attempted = n_steps + check.made
    print(f"calls {len(results)}  steps {n_steps}  checks {check.made}  "
          f"failed {failed}  fail_share {failed / attempted:.4g}")
    for what in check.failed:
        print("FAILED " + what)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "stman" / "__init__.py").is_file():
        print(f"error: no stman package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from layers import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
