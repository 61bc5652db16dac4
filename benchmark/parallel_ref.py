"""Reference figure: `monosplit --parallelism 2 sweep` against the default 1 on sweep-dense inputs.

    python3 benchmark/parallel_ref.py --seed 1 --pairs 5 --step 20

Sweeps the sweep-dense model in pairs, alternating which setting goes first,
checks that both settings write the same CSV, and prints each setting's median
wall time and their ratio.  The step is finer than the benchmark's so that the
pool's start-up does not decide the figure.
"""

import argparse
import os
import shutil
import statistics

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--step", type=int, default=20)
    args = parser.parse_args()
    directory = os.path.join(run.ROOT, ".bench_work", f"parallel-{os.getpid()}")
    try:
        workload = run.WORKLOADS["sweep-dense"]()
        workload.setup(args.seed, directory)
        csv = os.path.join(directory, "results.csv")
        argv = ["sweep", "--history", workload.history, "--accesses", workload.accesses,
                "--codebase", workload.name, "--step", str(args.step), "--out", csv]
        times: dict = {1: [], 2: []}
        outputs = set()
        for pair in range(args.pairs):
            for workers in ((1, 2) if pair % 2 == 0 else (2, 1)):
                times[workers].append(run.cli(["--parallelism", str(workers), *argv]))
                outputs.add(run.read(csv))
        if len(outputs) != 1:
            raise SystemExit("the sweep output depends on --parallelism")
        one, two = statistics.median(times[1]), statistics.median(times[2])
        print(f"cpu_count {os.cpu_count()}  parallelism 1: {one:.3f} s  parallelism 2: {two:.3f} s  "
              f"speed-up {one / two:.2f}x  ({args.pairs} pairs, seed {args.seed}, step {args.step})")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
