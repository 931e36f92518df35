"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Run from the root of the repository; it takes about a minute.  For every
workload and both --trace values it runs run.py on the tiny pools
(BENCH_SIZE=tiny) and checks the result line: exactly the four keys, every
metric of BENCHMARK.json with its unit, nothing failed.  Then it spoils one
expected answer per workload (BENCH_SIZE=wrong) and checks that the run
counts a failure and reports correct: false.  Last, it runs run.py in a
directory that holds only BENCHMARK.json and bench/, where it must exit
nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("closure", "probe", "specialize", "qsl")


def run(cwd, size, workload, trace):
    env = dict(os.environ, BENCH_SIZE=size)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith(
        '{"correct"') else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = run(ROOT, "tiny", workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or res is None:
                problems.append(f"{where}: exit {code}, no result\n{err}")
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: keys {sorted(res)}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            if not all(isinstance(m["value"], (int, float))
                       for m in res["metrics"].values()):
                problems.append(f"{where}: a value is not a number")
            if res["failed"] or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['attempted']} attempted, "
                                f"{res['failed']} failed\n{err}")
        code, res, err = run(ROOT, "wrong", workload, 0)
        if code != 0 or res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{workload}: a wrong expected value was not "
                            f"counted (exit {code}, result {res})")
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, res, _ = run(bare, "full", "closure", 0)
        if code == 0 or res is not None:
            problems.append(f"bare directory: exit {code}, result {res}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
