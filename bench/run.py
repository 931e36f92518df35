"""Benchmark of the qschur engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  Workloads (why each one is there is
in BENCHMARK.json and NOTES.md):
  closure     span closure, presentation and truncation checks over Q(v);
  probe       separation probes of the criterion-6 family on A2 and B2;
  specialize  lattice bases and specialized algebras at 1, 2, i and w3;
  qsl         the `qsl` job mix, a cold pass on an empty cache directory
              followed by a warm pass on the same directory.
Every library pass runs in a fresh interpreter, and every qsl job is its own
process, so module-level memo tables never turn a repetition into a lookup.
One child process runs at a time, with PYTHONHASHSEED fixed.

--trace 0 measures the end-to-end metrics: it repeats passes while the time
left covers one more and reports medians.  --trace 1 runs one pass with
layer spans (layers.py) and one cold pass under cProfile, and reports the
per-layer metrics.  Every result is checked; a wrong answer, an exception
or a nonzero exit counts as a failed operation and the run goes on.  The
last line of stdout is the result as one JSON object.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("closure", "probe", "specialize", "qsl")
SETUP_CHILDREN = 6


class Runner:
    """Starts one child process at a time inside a private work directory."""

    def __init__(self, work):
        self.work = work
        self.serial = 0
        self.env = dict(os.environ)
        self.env.pop("QHAT_CACHE_DIR", None)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")

    def path(self, stem):
        self.serial += 1
        return os.path.join(self.work, f"{self.serial:05d}-{stem}")

    def spawn(self, argv):
        """Run argv to completion; returns (exit code, wall seconds, peak
        RSS in MiB, start time, stdout text, stderr text)."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0, start,
                stdout, stderr)

    def child(self, workload, seed, mode):
        """One child.py process; returns (its JSON result or None, peak RSS
        in MiB, setup seconds at nominal speed or None)."""
        out = self.path("result.json")
        code, _, rss, start, _, err = self.spawn(
            [sys.executable, os.path.join(HERE, "child.py"), workload,
             str(seed), mode, out])
        if code != 0 or not os.path.exists(out):
            sys.stderr.write(f"child {workload} {mode} exited {code}\n"
                             + err[-2000:])
            return None, rss, None
        with open(out) as fh:
            res = json.load(fh)
        setup = (res["ready"] - start) * speed.factor(res["reference"])
        return res, rss, setup


class Tally:
    """Operations attempted, and the failed ones as [kind, message]: kind
    "wrong" for a wrong answer, "error" for an exception or a bad exit."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, attempted, failures=()):
        self.attempted += attempted
        self.failures.extend(failures)

    def error(self, message):
        self.add(1, [["error", message]])


# -- qsl -------------------------------------------------------------------


def strip_elapsed(text):
    return "\n".join(line for line in text.splitlines()
                     if '"elapsed"' not in line)


def check_job(job, code, stdout, cold_stdout):
    """None if the job's report is right, else [kind, what is wrong]."""
    if code != 0:
        return ["error", f"exit code {code}"]
    if cold_stdout is not None and (strip_elapsed(stdout)
                                    != strip_elapsed(cold_stdout)):
        return ["wrong", "warm stdout differs from cold stdout"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return ["wrong", f"stdout is not JSON ({exc})"]
    report.pop("elapsed", None)
    if job["golden"] is not None:
        golden = dict(job["golden"])
        golden.pop("elapsed", None)
        if report != golden:
            return ["wrong", "report differs from the golden report"]
        return None
    if report.get("pass") is not True:
        return ["wrong", "report does not pass"]
    dim = report["result"].get("dimension")
    if job["dimension"] is not None and dim != job["dimension"]:
        return ["wrong", f"dimension {dim}, expected {job['dimension']}"]
    return None


def qsl_pass(runner, jobs, tally, mode="time"):
    """Cold round on a fresh cache directory, then the warm round on it
    (profile mode: the cold round only).  Each job runs through qsl_job.py
    in MODE.  Returns per-round seconds at nominal speed, per-job rows and
    the cache size after the cold round."""
    cache = runner.path("cache")
    for job in jobs:
        job["path"] = os.path.join(runner.work, job["name"] + ".qs")
        with open(job["path"], "w") as fh:
            fh.write(job["spec"])
    rounds = ("cold",) if mode == "profile" else ("cold", "warm")
    seconds = {}
    rows = []
    cold_out = {}
    cache_bytes = 0
    for rnd in rounds:
        total = 0.0
        for job in jobs:
            args = [job["task"], "--spec", job["path"], "--cache-dir", cache,
                    "--format", "json"]
            job_file = runner.path("job.json")
            code, wall, rss, start, out, err = runner.spawn(
                [sys.executable, os.path.join(HERE, "qsl_job.py"), mode,
                 job_file] + args)
            info = {"ready": start, "reference": [], "spent": 0.0,
                    "layers": None}
            if os.path.exists(job_file):
                with open(job_file) as fh:
                    info = json.load(fh)
            scale = (speed.factor(info["reference"]) if info["reference"]
                     else 1.0)
            nominal = (wall - info["spent"]) * scale
            total += nominal
            problem = check_job(job, code, out, cold_out.get(job["name"]))
            tally.add(1, [] if problem is None else
                      [[problem[0], f"{rnd} {job['name']}: {problem[1]}"]])
            if rnd == "cold":
                cold_out[job["name"]] = out if code == 0 else None
            rows.append({"round": rnd, "task": job["task"], "wall": nominal,
                         "raw": wall, "rss": rss, "stderr": err,
                         "layers": info["layers"],
                         "startup": (info["ready"] - start) * scale})
        seconds[rnd] = total
        if rnd == "cold" and os.path.isdir(cache):
            cache_bytes = sum(os.path.getsize(os.path.join(cache, f))
                              for f in os.listdir(cache))
    return seconds, rows, cache_bytes


# -- the two kinds of run --------------------------------------------------


def setup_samples(runner, workload, seed, tally):
    """Set-up time of SETUP_CHILDREN fresh children, and the inputs one of
    them generated."""
    samples, inputs = [], None
    for _ in range(SETUP_CHILDREN):
        res, _, setup = runner.child(workload, seed, "setup")
        if res is None:
            tally.error(f"{workload} setup child failed")
            continue
        samples.append(setup)
        inputs = res["inputs"]
    return samples, inputs


def measure(runner, workload, seed, seconds, tally):
    """End-to-end metrics: medians over the passes that fit the time."""
    setups, inputs = setup_samples(runner, workload, seed, tally)
    if inputs is None:
        return None
    start = time.monotonic()
    cold, warm, rss, raw = [], [], [], []
    while True:
        t0 = time.monotonic()
        if workload == "qsl":
            secs, rows, _ = qsl_pass(runner, inputs["jobs"], tally)
            cold.append(secs["cold"])
            warm.append(secs["warm"])
            rss.append(max(row["rss"] for row in rows))
            raw.append(sum(row["raw"] for row in rows))
        else:
            res, peak, setup = runner.child(workload, seed, "pass")
            if res is None:
                tally.error(f"{workload} pass child failed")
                break
            tally.add(res["attempted"], res["failures"])
            setups.append(setup)
            cold.append(res["cold_s"])
            warm.append(res["warm_s"])
            rss.append(peak)
            raw.append(res["cold_raw_s"] + res["warm_raw_s"])
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    if not cold or not setups:
        return None
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c + w for c, w in zip(cold, warm)),
        "cold_s": statistics.median(cold),
        "warm_s": statistics.median(warm),
        "peak_rss_mib": max(rss),
        "passes": len(cold),
        "measured_wall_s": statistics.median(raw),
    }


def note_counts(rows):
    """cache.hits / misses / rejects from the stderr notes of qsl jobs."""
    hits = misses = rejects = 0
    for row in rows:
        for line in row["stderr"].splitlines():
            if "from cache" in line:
                hits += 1
            elif "and cached it" in line:
                misses += 1
            elif line.startswith("cache file ") and "ignoring it" in line:
                rejects += 1
    return {"cache.hits": hits, "cache.misses": misses,
            "cache.rejects": rejects}


def add_layers(total, layers):
    for name, value in (layers or {}).items():
        total[name] = total.get(name, 0) + value


def trace(runner, workload, seed, tally):
    """Per-layer metrics: one traced pass and one profiled cold round."""
    out = {}
    if workload == "qsl":
        _, inputs = setup_samples(runner, workload, seed, tally)
        if inputs is None:
            return None
        secs, rows, cache_bytes = qsl_pass(runner, inputs["jobs"], tally,
                                           "trace")
        out["trace.wall_s"] = secs["cold"] + secs["warm"]
        for row in rows:
            add_layers(out, row["layers"])
            key = f"cli.{row['task']}.{row['round']}_s"
            out[key] = out.get(key, 0.0) + row["wall"]
            out["cli.startup_s"] = (out.get("cli.startup_s", 0.0)
                                    + row["startup"])
        out.update(note_counts(rows))
        out["cache.bytes"] = cache_bytes
        _, rows, _ = qsl_pass(runner, inputs["jobs"], tally, "profile")
        for row in rows:
            add_layers(out, row["layers"])
    else:
        for mode in ("trace", "profile"):
            res, _, _ = runner.child(workload, seed, mode)
            if res is None:
                tally.error(f"{workload} {mode} child failed")
                continue
            tally.add(res["attempted"], res["failures"])
            add_layers(out, res["layers"])
            if mode == "trace":
                out["trace.wall_s"] = res["cold_s"] + res["warm_s"]
    probes = out.pop("ulimit.probes", 0)
    tried = out.get("ulimit.sets_tried", 0)
    out["ulimit.hit_ratio"] = probes / tried if tried else 0.0
    return out


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "seed": seed, "pythonhashseed": "0"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qschur", "cli.py")):
        sys.stderr.write("error: run from the root of a qschur checkout "
                         "(src/qschur is missing)\n")
        return 2
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    tally = Tally()
    try:
        runner = Runner(work)
        if args.trace:
            values = trace(runner, args.workload, args.seed, tally)
        else:
            values = measure(runner, args.workload, args.seed, args.seconds,
                             tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if not values or tally.attempted == 0:
        sys.stderr.write("error: no pass completed\n")
        return 1
    if not args.trace:
        values["ok_ratio"] = 1.0 - len(tally.failures) / tally.attempted
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"], 0),
                              "unit": m["unit"]}
    wrong = [msg for kind, msg in tally.failures if kind == "wrong"]
    info = {"environment": environment(args.seed), "failures": tally.failures}
    if not args.trace:
        info.update(passes=values["passes"],
                    measured_wall_s=values["measured_wall_s"],
                    warm_over_cold=values["warm_s"] / values["cold_s"])
    print(json.dumps(info))
    print(json.dumps({"correct": not wrong, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
