"""pcdl benchmark: time to solution of the closed-form sweeps and of the
Monte Carlo oracle, with per-layer self times from a separate traced run.

    python3 perfbench/run.py --workload sweep-reference --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (it imports pcdl from src/). In one
process, with BLAS pinned to one thread and no worker pool, it sets the
workload up once, then runs its fixed job back to back for --seconds seconds
(at least once), checks every output and prints one JSON object as the last
line of standard output. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones. Files it writes go to perfbench/out/. See
perfbench/README.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE_CFG = ROOT / "configs" / "reference_sweep.cfg"
if not ((ROOT / "src" / "pcdl").is_dir() and REFERENCE_CFG.is_file()):
    sys.exit(f"{ROOT} is not a pcdl source checkout: src/pcdl and {REFERENCE_CFG.name} are needed")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pcdl import cli, estimation, geometry, harness, mc_oracle  # noqa: E402
from pcdl.rate_core import Precoder  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

IMPORT_REPEATS = 5
ORACLE_TRIALS = 1000      # the oracle's minimum for its ten batch means
ORACLE_DROP = 0           # of the reference scenario (config seed 1)
ORACLE_ENTROPY = 20_240   # fixed oracle streams; see README "Seeds"


class Sweep:
    """`pcdl sweep` through cli.main on the reference scenario."""

    def __init__(self, name, seed, _spec):
        self.name, self.seed = name, seed
        self.csv = OUT / f"{name}.csv"
        self.result = None
        self.ops_per_job = 1

    def _sweep(self, cfg_path, out):
        argv = ["sweep", "--config", str(cfg_path), "--seed", str(self.seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"pcdl {' '.join(argv)} failed")

    def _keep_result(self, *args, **kwargs):
        self.result = harness.run_sweep(*args, **kwargs)
        return self.result

    def setup(self):
        kv = geometry.parse_key_values(str(REFERENCE_CFG))
        self.config = harness.with_seed(harness.sweep_config_from_dict(kv), self.seed)
        # cli.main hands the drop table to nobody; keep it for the checks
        cli.run_sweep = self._keep_result
        warm = _write_cfg(OUT / f"{self.name}-warmup.cfg", {**kv, "n_drops": "1"})
        self._sweep(warm, OUT / f"{self.name}-warmup.csv")

    def job(self):
        try:
            self._sweep(REFERENCE_CFG, self.csv)
        except Exception:
            traceback.print_exc()
            return None, 1
        return (self.csv.read_bytes(), self.result), 0

    def check(self, output):
        return [] if output is None else checks.check_sweep(self.config, *output)

    @staticmethod
    def same(a, b):
        if a is None or b is None:
            return a is b
        return a[0] == b[0] and all(np.array_equal(a[1].per_drop[k], b[1].per_drop[k])
                                    for k in a[1].per_drop)


class Oracle:
    """`pcdl verify` on fixed combos: per combo build the drop, its MMSE
    statistics and the oracle rows, each combo with its own fixed stream."""

    def __init__(self, name, seed, combos):
        self.combos = combos
        self.ops_per_job = len(combos)

    def setup(self):
        self.scen = harness.load_sweep_config(str(REFERENCE_CFG)).scenario
        scenario = geometry.build_scenario(self.scen, ORACLE_DROP)
        stats = estimation.compute_alpha(scenario)
        for prec in (Precoder.MRT, Precoder.ZF):  # smallest legal ZF size
            mc_oracle.verification_rows(scenario, stats, self.scen.K + 1, prec, (0, 0),
                                        (0,), ORACLE_TRIALS, np.random.default_rng(0))

    def job(self):
        rows, failed = [], 0
        for c, (prec, M, receiver, omega) in enumerate(self.combos):
            try:
                scenario = geometry.build_scenario(self.scen, ORACLE_DROP)
                stats = estimation.compute_alpha(scenario)
                rng = np.random.default_rng(np.random.SeedSequence((ORACLE_ENTROPY, c)))
                rows.append(mc_oracle.verification_rows(
                    scenario, stats, M, Precoder.parse(prec), receiver, omega,
                    ORACLE_TRIALS, rng))
            except Exception:
                traceback.print_exc()
                rows.append(None)
                failed += 1
        return rows, failed

    def check(self, output):
        done = [(c, r) for c, r in zip(self.combos, output) if r is not None]
        return checks.check_oracle(self.scen, ORACLE_DROP, [c for c, _ in done],
                                   [r for _, r in done])

    @staticmethod
    def same(a, b):
        return a == b


# oracle combos: (precoder, M, receiver (pilot i, cell l), decode set)
WORKLOADS = {
    "sweep-reference": (Sweep, None),
    "oracle-verify": (Oracle, [
        ("MRT", 64, (0, 0), (0,)),
        ("ZF", 64, (0, 1), (1,)),
        ("MRT", 256, (0, 1), (0, 1)),
        ("ZF", 256, (0, 0), (0, 1)),
    ]),
    "oracle-large-m": (Oracle, [
        ("ZF", 1024, (0, 1), (0, 1)),
        ("MRT", 4096, (0, 0), (0, 1)),
    ]),
}


def _write_cfg(path, kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    return path


def _import_s():
    """Start-up of a fresh interpreter that imports pcdl, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pcdl.cli"], env=env, check=True)
    return time.perf_counter() - t0


def _usage():
    """(CPU seconds, minor page faults) of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    OUT.mkdir(exist_ok=True)
    kind, spec = WORKLOADS[args.workload]
    workload = kind(args.workload, args.seed, spec)
    # set-up = interpreter start and imports, then config and warm-up. The
    # imports are timed in fresh interpreters (median of a few), since this
    # one has them done; config and warm-up are timed once, cold, here.
    imports_s = statistics.median(_import_s() for _ in range(IMPORT_REPEATS))
    t0 = time.perf_counter()
    workload.setup()
    setup_s = imports_s + time.perf_counter() - t0

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    job_s, cpu_s, faults, layer_runs, outputs = [], [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer:
            tracer.reset()
        (c0, f0), t0 = _usage(), time.perf_counter()
        output, n_failed = workload.job()
        t1 = time.perf_counter()
        c1, f1 = _usage()
        cpu_s.append(c1 - c0)
        faults.append(f1 - f0)
        job_s.append(t1 - t0)
        attempted += workload.ops_per_job
        failed += n_failed
        outputs.append(output)
        if tracer:
            layer_runs.append(tracer.job_metrics(t1 - t0))
            if len(layer_runs) == 1:
                tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", t0)
        if t1 + (t1 - t0) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    problems = workload.check(outputs[0])
    if not all(workload.same(outputs[0], o) for o in outputs[1:]):
        problems.append("repeated jobs on the same inputs gave different outputs")
    for p in problems:
        print(f"CHECK FAILED [{args.workload}]: {p}", file=sys.stderr)

    if tracer:
        metrics = {}
        for name, unit in spans.PER_LAYER_UNITS.items():
            values = [run[name] for run in layer_runs]
            value = statistics.median(values) if unit == "s" else values[0]
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": statistics.median(job_s), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpu_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            # the first job's: later jobs reuse the memory it left mapped
            "minor_faults": {"value": faults[0], "unit": "count"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(f"{args.workload}: {len(job_s)} jobs, job_s {job_s}, minor faults {faults}",
          file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
