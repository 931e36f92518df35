"""Inputs and checked passes of the benchmark workloads, one per process.

    python3 bench/child.py WORKLOAD SEED MODE OUT

MODE is
  setup    import the library and generate the inputs, nothing else (for
           qsl the inputs are the job list, which run.py then runs);
  pass     closure, probe or specialize: the cold round (empty memo tables),
           then the same requests again in this process with freshly built
           inputs (the warm round);
  trace    the cold and the warm round with the layer spans of layers.py;
  profile  the cold round under cProfile.
The result goes to OUT as JSON.  A failed or wrong operation is recorded
and the pass goes on.  run.py starts this from the root of the repository
with PYTHONPATH=src and a fixed PYTHONHASHSEED.

BENCH_SIZE=tiny (or wrong: tiny with one wrong expected value) swaps every
pool for a small one; selftest.py uses it.
"""

import json
import os
import random
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SIZE = os.environ.get("BENCH_SIZE", "full")

import qschur.cli  # noqa: E402,F401 - part of the import the qsl jobs pay
import qschur.intspec as intspec  # noqa: E402
import qschur.rings as rings  # noqa: E402
import qschur.rootdata as rootdata  # noqa: E402
import qschur.schur as schur  # noqa: E402
import qschur.ulimit as ulimit  # noqa: E402
import qschur.weylmod as weylmod  # noqa: E402
from qschur.jobspec import parse_spec  # noqa: E402
from qschur.words import WordExpr  # noqa: E402

import speed  # noqa: E402

# closure: the anchor plus one seed-chosen set of comparable size.  Each row
# is (datum, generators of pi, generators of the truncation target,
# dimension = sum of squared Weyl dimensions).
CLOSURE_ANCHOR = ("A2", [(2, 2)], [(1, 1)], 994)
CLOSURE_POOL = (
    ("B2", [(2, 0)], [(1, 0)], 322),
    ("A1", [(10,)], [(4,)], 286),
    ("B2", [(1, 1)], [(0, 1)], 272),
    ("A2", [(2, 1)], [(1, 0)], 270),
)

# specialize: generators of pi and of the truncation target, and the
# realized dimension at each point.  At a primitive 4th root of unity
# [2] = 0 and the A2 algebra is a proper quotient.
POINTS = {"1": ("rational", 1), "2": ("rational", 2),
          "i": ("cyclotomic", 4), "w3": ("cyclotomic", 3)}
SPEC_SETS = {
    "A2": ([(2, 1)], [(1, 0)], {"1": 270, "2": 270, "i": 162, "w3": 270}),
    "B2": ([(1, 1)], [(0, 1)], {"1": 272, "2": 272, "i": 272, "w3": 272}),
}
# (datum, degree bound, height bound, point, word count, final kernel dim)
KERNEL_POOL = (
    ("A1", 2, 3, "i", 31, 11),
    ("A1", 2, 4, "i", 31, 8),
    ("A1", 2, 3, "w3", 31, 13),
    ("A1", 2, 4, "w3", 31, 13),
)

# probe: the criterion-6 family on these data; hit sets in expected_probe.json
PROBE_DATA = ("A2", "B2")
PROBE_HEIGHT = 4

# qsl: the nine golden job descriptions, checked against their golden
# reports, plus larger jobs checked against known dimensions.  The rank-8
# fundamental weight exits 3 today (the tensor path recurses without end).
QSL_GOLDEN = ("a1_build", "a1_dims", "a1_probe", "a1_spec_cyclo",
              "a1_spec_one", "a1xa1_limit", "a1xa1_maps", "a2_verify",
              "matrix_dims")


def type_a(rank):
    return ";".join(",".join(str(2 if i == j else -1 if abs(i - j) == 1
                                 else 0) for j in range(rank))
                    for i in range(rank))


def weight(rank, first):
    return "(" + ",".join([str(first)] + ["0"] * (rank - 1)) + ")"


QSL_LARGE = (
    ("a2_21_build", "datum preset A2 / pi gens [(2,1)] / task build", 270),
    ("a2_21_verify", "datum preset A2 / pi gens [(2,1)] / task verify", None),
    ("b2_11_dims", "datum preset B2 / pi gens [(1,1)] / task dims", 272),
    ("a2_spec_cyclo3", "datum preset A2 / pi gens [(1,0),(0,1)] / "
     "ring cyclotomic 3 / task specialize", 18),
    ("a6_w1_dims", f"datum matrix {type_a(6)} / pi gens [{weight(6, 1)}] / "
     "task dims", 49),
    ("a8_zero_dims", f"datum matrix {type_a(8)} / pi gens [{weight(8, 0)}] / "
     "task dims", 1),
    ("a8_w1_dims", f"datum matrix {type_a(8)} / pi gens [{weight(8, 1)}] / "
     "task dims", 81),
)

# BENCH_SIZE=tiny pools; "wrong" adds one to the first expected dimension
TINY = {
    "closure": [("A1", [(2,)], [(0,)], 10)],
    "probe_max_height": 1,
    "specialize": {"A1": ([(2,)], [(0,)],
                          {"1": 10, "2": 10, "i": 7, "w3": 10})},
    "qsl_golden": ("a1_build", "matrix_dims"),
    "qsl_large": (("a1_2_build", "datum preset A1 / pi gens [2] / task build",
                   10),),
}


def qsl_jobs(golden_names, large):
    """Every job as {name, task, spec, golden, dimension}."""
    data = os.path.join(os.path.dirname(HERE), "tests", "data")
    jobs = []
    for name in golden_names:
        with open(os.path.join(data, name + ".qs")) as fh:
            spec = fh.read()
        with open(os.path.join(data, name + ".json")) as fh:
            golden = json.load(fh)
        jobs.append({"name": name, "spec": spec, "golden": golden,
                     "dimension": None})
    for name, spec, dim in large:
        jobs.append({"name": name, "spec": spec + "\n", "golden": None,
                     "dimension": dim})
    for job in jobs:
        job["task"] = parse_spec(job["spec"]).tasks[0][0]
    return jobs


def probe_family(datum, max_height):
    """Criterion-6 family: 1_lam, E_i^(a) 1_lam and F_i^(a) 1_lam for a <= 2
    and lam up to the height, each with the probe height that reaches the
    weight the element needs."""
    out = []
    for lam in rootdata.dominant_weights_up_to_height(datum, max_height):
        lam = tuple(lam)
        out.append((lam, None, 0, 0, max(6, datum.height(lam))))
        for a in (1, 2):
            for i in range(datum.rank):
                for sign in (1, -1):
                    shifted = tuple(x + sign * a * y for x, y
                                    in zip(lam, datum.simple_roots[i]))
                    need = datum.dominant_representative(shifted)
                    out.append((lam, i, a, sign,
                                max(6, datum.height(need))))
    return out


def probe_name(name, lam, i, a, sign):
    if i is None:
        return f"{name} 1_{list(lam)}"
    return f"{name} {'E' if sign > 0 else 'F'}{i}^({a})1_{list(lam)}"


def make_inputs(workload, seed):
    """The seed picks inputs from fixed pools and their order; the result
    holds plain data only, expected answers included."""
    rng = random.Random(f"{workload}:{seed}")
    tiny = SIZE != "full"
    if workload == "closure":
        if tiny:
            sets = [list(row) for row in TINY["closure"]]
        else:
            sets = [list(CLOSURE_ANCHOR), list(rng.choice(CLOSURE_POOL))]
            rng.shuffle(sets)
        out = {"sets": sets}
    elif workload == "probe":
        with open(os.path.join(HERE, "expected_probe.json")) as fh:
            hits = json.load(fh)
        height = TINY["probe_max_height"] if tiny else PROBE_HEIGHT
        probes = []
        for name in PROBE_DATA:
            for row in probe_family(rootdata.preset(name), height):
                probes.append([name, *row, hits[probe_name(name, *row[:4])]])
        rng.shuffle(probes)
        out = {"probes": probes}
    elif workload == "specialize":
        sets = TINY["specialize"] if tiny else SPEC_SETS
        sets = {name: [gens, target, dict(dims)]
                for name, (gens, target, dims) in sets.items()}
        pairs = [(name, pt) for name in sorted(sets) for pt in POINTS]
        rng.shuffle(pairs)
        out = {"sets": sets, "pairs": pairs,
               "truncation": rng.choice(pairs),
               "kernel": KERNEL_POOL[0] if tiny else rng.choice(KERNEL_POOL)}
    elif workload == "qsl":
        jobs = (qsl_jobs(TINY["qsl_golden"], TINY["qsl_large"]) if tiny
                else qsl_jobs(QSL_GOLDEN, QSL_LARGE))
        rng.shuffle(jobs)
        out = {"jobs": jobs}
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    if SIZE == "wrong":
        make_wrong(workload, out)
    return out


def make_wrong(workload, inputs):
    """Spoil one expected answer, so that the self-test sees it fail."""
    if workload == "closure":
        inputs["sets"][0][3] += 1
    elif workload == "probe":
        inputs["probes"][0][-1] = [[9, 9]]
    elif workload == "specialize":
        name, pt = inputs["pairs"][0]
        inputs["sets"][name][2][pt] += 1
    else:
        job = next(j for j in inputs["jobs"] if j["dimension"] is not None)
        job["dimension"] += 1


def ring_point(key):
    kind, arg = POINTS[key]
    if kind == "rational":
        return rings.RingPoint.rational(arg)
    return rings.RingPoint.cyclotomic(arg)


class Round:
    """Runs checked operations and, given a speed.Sampler, sums their time
    as measured and at nominal speed; a wrong answer or an exception is
    recorded as a failure and never stops the round."""

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.attempted = 0
        self.failures = []
        self.raw_s = 0.0
        self.nominal_s = 0.0

    def op(self, name, fn):
        self.attempted += 1
        try:
            if self.sampler is None:
                problem, raw, nominal = fn(), 0.0, 0.0
            else:
                problem, raw, nominal = self.sampler.timed(fn)
        except Exception as exc:  # noqa: BLE001 - counted, then go on
            traceback.print_exc(file=sys.stderr)
            self.failures.append(["error", f"{name}: {exc!r}"])
            return
        self.raw_s += raw
        self.nominal_s += nominal
        if problem:
            self.failures.append(["wrong", f"{name}: {problem}"])


def expect(got, want, what):
    return None if got == want else f"{what} is {got!r}, expected {want!r}"


def all_ok(rows, what):
    bad = [row.get("relation", row.get("check")) for row in rows
           if not row["ok"]]
    return f"{what} failed: {bad}" if bad else None


def closure_round(rnd, inputs):
    for name, gens, target_gens, dim in inputs["sets"]:
        label = f"{name} {gens}"
        datum = rootdata.preset(name)
        pi = datum.saturate([tuple(g) for g in gens])
        oracle = [weylmod.weyl_dim_oracle(datum, lam) for lam in pi]
        S = schur.build_schur(pi)
        rnd.op(f"{label} modules",
               lambda: (expect([m.dim for m in S.modules], oracle,
                               "block dims")
                        or expect(S.expected_dim, sum(d * d for d in oracle),
                                  "sum of squared block dims")))
        rnd.op(f"{label} dimension",
               lambda: expect(S.dimension(), dim, "dimension"))
        rnd.op(f"{label} presentation",
               lambda: all_ok(S.verify_presentation(), "relations"))
        target = datum.saturate([tuple(g) for g in target_gens])
        rnd.op(f"{label} truncation",
               lambda: all_ok(schur.TruncationMap(target, pi).verify(),
                              "truncation checks"))


def probe_round(rnd, inputs):
    for name, lam, i, a, sign, height, hit in inputs["probes"]:
        datum = rootdata.preset(name)
        expr = WordExpr.idem(tuple(lam))
        if i is not None:
            expr = WordExpr.divided(i, a, sign) * expr

        def probe():
            found = ulimit.separation_probe(datum, expr, height)
            got = None if found is None else [list(w) for w in found]
            return expect(got, hit, "hit set")
        rnd.op(probe_name(name, lam, i, a, sign), probe)


def specialize_round(rnd, inputs):
    points = {key: ring_point(key) for key in POINTS}
    lattices_done = set()
    for name, pt in inputs["pairs"]:
        datum = rootdata.preset(name)
        gens, _, dims = inputs["sets"][name]
        pi = datum.saturate([tuple(g) for g in gens])
        if name not in lattices_done:
            lattices_done.add(name)

            def lattices():
                for lam in pi:
                    lb = intspec.lattice_basis(weylmod.weyl_module(datum, lam))
                    if any(lam) and not lb.check_integrality():
                        return f"no divided powers checked for {lam}"
            rnd.op(f"{name} lattice bases", lattices)
        S = intspec.specialize_schur(pi, points[pt])
        oracle = sum(weylmod.weyl_dim_oracle(datum, lam) ** 2 for lam in pi)
        rnd.op(f"{name} {gens} at {pt} dimension",
               lambda: (expect(S.generic_dim, oracle, "generic dimension")
                        or expect(S.dimension(), dims[pt],
                                  "realized dimension")))
        rnd.op(f"{name} {gens} at {pt} relations",
               lambda: all_ok(S.verify_relations(), "relations"))
    name, pt = inputs["truncation"]
    datum = rootdata.preset(name)
    gens, target_gens, _ = inputs["sets"][name]
    rnd.op(f"{name} {gens} -> {target_gens} at {pt} truncation",
           lambda: all_ok(intspec.r_truncation_map(
               datum.saturate([tuple(g) for g in target_gens]),
               datum.saturate([tuple(g) for g in gens]),
               points[pt]).verify(), "truncation checks"))
    name, degree, height, pt, words, kernel = inputs["kernel"]

    def kernel_probe():
        got = intspec.kernel_probe_RU(rootdata.preset(name), degree, height,
                                      points[pt])
        return (expect(got["word_count"], words, "word count")
                or expect(got["final_kernel_dim"], kernel, "kernel dim"))
    rnd.op(f"kernel probe {name} {degree} {height} at {pt}", kernel_probe)


ROUNDS = {"closure": closure_round, "probe": probe_round,
          "specialize": specialize_round}

# The profiled round of `probe` runs the A2 probes only: under cProfile the
# whole family takes about 100 s, which with the traced pass comes too near
# the 180 s a run may take.  A2 is a third of the work.
PROFILED = {"probe": lambda inputs: {
    "probes": [p for p in inputs["probes"] if p[0] == "A2"]}}


def run_round(workload, seed, sampler=None, keep=None):
    """One round on freshly generated inputs, or on the part of them that
    keep[workload] selects."""
    inputs = make_inputs(workload, seed)
    if keep and workload in keep:
        inputs = keep[workload](inputs)
    rnd = Round(sampler)
    ROUNDS[workload](rnd, inputs)
    return rnd


def main(argv):
    workload, seed, mode, out_path = argv
    seed = int(seed)
    inputs = make_inputs(workload, seed)
    result = {"ready": time.monotonic(),
              "reference": [speed.reference() for _ in range(5)]}
    rounds = []
    if mode == "setup":
        result["inputs"] = inputs
    elif mode in ("pass", "trace"):
        if mode == "trace":
            import layers
            tracer = layers.Tracer()
            layers.instrument(tracer)
        with speed.Sampler() as sampler:
            rounds = [run_round(workload, seed, sampler) for _ in range(2)]
        for key, rnd in zip(("cold", "warm"), rounds):
            result[key + "_s"] = rnd.nominal_s
            result[key + "_raw_s"] = rnd.raw_s
        if mode == "trace":
            result["layers"] = tracer.summary()
    elif mode == "profile":
        import cProfile
        import layers
        prof = cProfile.Profile()
        rounds = [prof.runcall(run_round, workload, seed, None, PROFILED)]
        result["layers"] = layers.profile_layers(prof)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["attempted"] = sum(r.attempted for r in rounds)
    result["failures"] = [f for r in rounds for f in r.failures]
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
