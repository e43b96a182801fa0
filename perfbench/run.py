"""combopt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tsp52-window --seed 0 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
units and reports the per-layer metrics plus the tracing overhead.  Metrics
print one per line with their units; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment, goes to
``perfbench/out/``.  The exit code is 0 after a completed run (check
``correct``) and 2 when the repository's sources or data are missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = [
    SRC / "combopt" / "__init__.py",
    ROOT / "data" / "disc52.tsp",
    ROOT / "data" / "kp50.kp",
    ROOT / "data" / "optima.txt",
]
SETUP_PROBES = 5


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Fresh-process set-up times, plus probe failures.

    These stay unscaled: the speed kernel runs in this process, and scaling a
    child's time by it widened the spread of set-up times instead of
    narrowing it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times, errors = [], []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                capture_output=True, text=True, env=env, timeout=60, check=False,
            )
        except subprocess.TimeoutExpired:
            errors.append("set-up probe timed out after 60 s")
            continue
        if proc.returncode != 0:
            errors.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times, errors


def backend_gate() -> str:
    """numpy/numba bit-identity of the annealer, when numba is present."""
    import numpy as np
    from combopt.problems import KpInstance, TspInstance, generate_random_maxcut
    from combopt.qubo import NUMBA_AVAILABLE, kp_to_qubo, mcp_to_qubo, sa_sample, tsp_to_qubo

    if not NUMBA_AVAILABLE:
        disabled = os.environ.get("COMBOPT_NO_NUMBA")
        return f"skipped: COMBOPT_NO_NUMBA={disabled}" if disabled else "skipped: numba absent"
    rng = np.random.default_rng(0)
    w = rng.integers(50, 400, 40)
    c = np.triu(rng.integers(1, 100, (10, 10)).astype(float), 1)
    cases = [
        mcp_to_qubo(generate_random_maxcut(80, 0.5, (1, 10), seed=80))[0],
        kp_to_qubo(KpInstance("kp40", 40, w + rng.integers(0, 100, 40), w,
                              int(w.sum() // 2)))[0],
        tsp_to_qubo(TspInstance("t10", 10, c + c.T))[0],
    ]
    for qubo in cases:
        a = sa_sample(qubo, reads=8, sweeps=64, seed=42, backend="numpy")
        b = sa_sample(qubo, reads=8, sweeps=64, seed=42, backend="numba")
        if not all(np.array_equal(x[0], y[0]) and x[1] == y[1] for x, y in zip(a, b)):
            return f"diverged on a {qubo.n}-variable QUBO"
    return "identical"


def environment(gate: str) -> dict:
    import numpy as np
    from combopt.qubo import NUMBA_AVAILABLE

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "numba_used": NUMBA_AVAILABLE,
        "COMBOPT_NO_NUMBA": os.environ.get("COMBOPT_NO_NUMBA"),
        "backend_identity": gate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a combopt checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import save_spans

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    gate = backend_gate()
    setup, probe_errors = ([], []) if args.trace else setup_seconds(args.workload, args.seed)
    for e in probe_errors:
        print(f"FAIL {e}", file=sys.stderr)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           setup_s=statistics.median(setup) if setup else None)
    gate_ran = not gate.startswith("skipped")
    attempted = result.attempted + (0 if args.trace else SETUP_PROBES) + gate_ran
    failed = result.failed + len(probe_errors) + (gate_ran and gate != "identical")
    env = environment(gate)

    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload:<18} {name:<32} {value:>16.6g} {unit}")
    for name, (value, unit) in result.notes.get("extra", {}).items():
        print(f"{args.workload:<18} {name:<32} {value:>16.6g} {unit} (unbounded)")
    print(f"{args.workload:<18} {'fail_rate':<32} {failed / attempted:>16.6g} "
          f"fraction ({failed}/{attempted})")
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "notes": result.notes,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    if result.tracers:
        save_spans(out / f"spans-{args.workload}-seed{args.seed}.npz", result.tracers)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0 and bool(result.metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
