"""Command-line driver.

Usage:
    qsl <task> --spec FILE [--cache-dir DIR] [--format human|json]

where <task> is one of build, verify, dims, maps, limit, probe, specialize.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .jobspec import PROBE_SETS, TASK_NAMES, SpecParseError, parse_spec
from .rings import PoleError

# each task imports the layers it runs, so a job loads no others


def load_or_build(pi, cache_dir, notes):
    from .cache import cache_load, cache_store, default_cache_dir
    from .schur import SchurAlgebra
    cache_dir = cache_dir or default_cache_dir()
    alg = cache_load(pi, cache_dir, warn=notes.append)
    if alg is None:
        alg = SchurAlgebra(pi)
        cache_store(alg, cache_dir)
        notes.append(f"built algebra for pi={list(pi)} and cached it")
    else:
        notes.append(f"loaded algebra for pi={list(pi)} from cache")
    return alg


def _chain(pi0):
    """The chain pi0 < pi1 < pi2 of the map-level and limit-level tasks:
    each step saturates the last weight (pi0 is in height order) plus the
    lowest dominant positive root, of positive height, so it is strict."""
    datum = pi0.datum
    step = next(r for r, _ in datum.positive_roots() if datum.is_dominant(r))
    mu1 = tuple(a + b for a, b in zip(list(pi0)[-1], step))
    pi1 = pi0.union(datum.saturate([mu1]))
    mu2 = tuple(a + b for a, b in zip(mu1, step))
    pi2 = pi1.union(datum.saturate([mu2]))
    return pi0, pi1, pi2


def _project(report, key):
    """The {key, ok} rows of a report and its failing rows, the witnesses;
    the report passes when it has none."""
    return ([{key: row[key], "ok": row["ok"]} for row in report],
            [row for row in report if not row["ok"]])


def task_build(spec, pi, cache_dir, params, notes):
    alg = load_or_build(pi, cache_dir, notes)
    dim = alg.dimension()
    result = {
        "pi": [list(lam) for lam in pi],
        "block_dims": alg.block_dims,
        "dimension": dim,
        "expected_dimension": alg.expected_dim,
    }
    return result, [], dim == alg.expected_dim


def task_dims(spec, pi, cache_dir, params, notes):
    from .weylmod import weyl_dim_oracle
    alg = load_or_build(pi, cache_dir, notes)
    datum = pi.datum
    per_module = []
    ok = True
    for lam, d in zip(pi, alg.block_dims):
        oracle = weyl_dim_oracle(datum, lam)
        per_module.append({"lam": list(lam), "dim": d, "oracle": oracle})
        ok = ok and d == oracle
    dim = alg.dimension()
    result = {
        "modules": per_module,
        "dimension": dim,
        "expected_dimension": alg.expected_dim,
    }
    return result, [], ok and dim == alg.expected_dim


def task_verify(spec, pi, cache_dir, params, notes):
    alg = load_or_build(pi, cache_dir, notes)
    rows, witnesses = _project(alg.verify_presentation(), "relation")
    return {"relations": rows}, witnesses, not witnesses


def task_maps(spec, pi, cache_dir, params, notes):
    from .schur import TruncationMap
    pi0, pi1, pi2 = _chain(pi)
    f10 = TruncationMap(pi0, pi1)
    f21 = TruncationMap(pi1, pi2)
    f20 = TruncationMap(pi0, pi2)
    maps, witnesses = {}, []
    for name, f in sorted({"f10": f10, "f21": f21, "f20": f20}.items()):
        maps[name], failing = _project(f.verify(), "check")
        witnesses += ({"map": name, **row} for row in failing)
    # block restrictions compose and restrict to the identity by index
    comp_ok = (f21.target.same_algebra(f10.source)
               and f20.target.same_algebra(f10.target)
               and f20._indices == [f21._indices[k] for k in f10._indices])
    fid = TruncationMap(pi0, pi0)
    ident_ok = (fid.target.same_algebra(fid.source)
                and fid._indices == list(range(len(pi0))))
    result = {
        "chain": [[list(lam) for lam in p] for p in (pi0, pi1, pi2)],
        "maps": maps,
        "composition": comp_ok,
        "identity": ident_ok,
    }
    return result, witnesses, not witnesses and comp_ok and ident_ok


def task_limit(spec, pi, cache_dir, params, notes):
    from .ulimit import (check_Kh_identity, check_u_relations, hat_K,
                         hat_one, verify_coherence)
    pi0, pi1, pi2 = _chain(pi)
    datum = pi0.datum
    chain = [pi0, pi1, pi2]
    kh, kh_failing = _project(check_Kh_identity(pi0), "relation")
    urel, urel_failing = _project(check_u_relations(pi0), "relation")
    coherence = []
    for h in datum.simple_coroots:
        coherence.append({"element": f"K{list(h)}",
                          **verify_coherence(hat_K(datum, h), chain)})
    for lam in pi0:
        coherence.append({"element": f"1_{list(lam)}",
                          **verify_coherence(hat_one(datum, lam), chain)})
    coh, coh_failing = _project(coherence, "element")
    result = {
        "chain": [[list(lam) for lam in p] for p in chain],
        "k_idempotent_sums": kh,
        "relations": urel,
        "coherence": coh,
    }
    witnesses = kh_failing + urel_failing + coh_failing
    return result, witnesses, not witnesses


def task_probe(spec, pi, cache_dir, params, notes):
    from .rootdata import dominant_weights_up_to_height
    from .ulimit import probe_schedule, separation_probe
    from .words import WordExpr
    height = params.get("height", 4)
    datum = pi.datum
    if len(dominant_weights_up_to_height(datum, height, PROBE_SETS)) \
            > PROBE_SETS:
        raise SpecParseError(
            f"height {height} schedules more than {PROBE_SETS} sets",
            spec.lines.get("task probe"))
    exprs = []
    for lam in spec.pi_gens:
        exprs.append((f"1_{list(lam)}", WordExpr.idem(lam)))
        for a in (1, 2):
            for i in range(datum.rank):
                exprs.append(
                    (f"E{i}^({a})1_{list(lam)}",
                     WordExpr.divided(i, a, 1) * WordExpr.idem(lam)))
                exprs.append(
                    (f"F{i}^({a})1_{list(lam)}",
                     WordExpr.divided(i, a, -1) * WordExpr.idem(lam)))
    found = []
    for name, expr in exprs:
        pi = separation_probe(datum, expr, height)
        found.append({"expr": name,
                      "found": pi is not None,
                      "pi": None if pi is None else [list(x) for x in pi]})
    result = {
        "height_bound": height,
        "schedule": [[list(lam) for lam in p]
                     for p in probe_schedule(datum, height)],
        "probes": found,
    }
    # a probe that finds nothing is inconclusive, not a failure
    return result, [], True


def task_specialize(spec, pi, cache_dir, params, notes):
    from .intspec import r_truncation_map, specialize_schur
    point = spec.ring_point()
    if point is None:
        raise SpecParseError("the specialize task needs a ring statement")
    pi0, pi1, _ = _chain(pi)
    S = specialize_schur(pi0, point)
    relations, rel_failing = _project(S.verify_relations(), "relation")
    tmap = r_truncation_map(pi0, pi1, point)
    truncation, trunc_failing = _project(tmap.verify(), "check")
    # project-then-specialize against specialize-then-project on the
    # generating divided powers of the larger algebra
    commute_ok = all(row["ok"] for row in truncation
                     if row["check"].startswith("generator"))
    result = {
        "ring": repr(point),
        "dimension": S.dimension(),
        "generic_dimension": S.expected_dim,
        "relations": relations,
        "truncation": truncation,
        "projection_commutes": commute_ok,
    }
    witnesses = rel_failing + trunc_failing
    return result, witnesses, not witnesses and commute_ok


TASKS = {
    "build": task_build,
    "dims": task_dims,
    "verify": task_verify,
    "maps": task_maps,
    "limit": task_limit,
    "probe": task_probe,
    "specialize": task_specialize,
}


def _render_human(report, out):
    print(f"datum: {report['datum']}", file=out)
    print(f"pi: {report['pi']}", file=out)
    print(f"task: {report['task']}", file=out)
    for line in _human_lines(report["result"]):
        print(line, file=out)
    if report["witnesses"]:
        print(f"witnesses: {json.dumps(report['witnesses'], sort_keys=True)}",
              file=out)
    print("status: " + ("pass" if report["pass"] else "FAIL"), file=out)
    print(f"elapsed: {report['elapsed']:.3f}s", file=out)


def _human_lines(result, prefix="  "):
    for key in sorted(result):
        val = result[key]
        if isinstance(val, (list, dict)):
            yield f"{prefix}{key}: {json.dumps(val, sort_keys=True)}"
        else:
            yield f"{prefix}{key}: {val}"


def run(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = argparse.ArgumentParser(
        prog="qsl",
        description="exact computations in truncated quantized enveloping "
                    "algebras")
    sub = parser.add_subparsers(dest="task")
    for name in TASK_NAMES:
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--format", choices=("human", "json"),
                       default="human")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.task is None:
        parser.print_usage(err)
        return 2

    t0 = time.monotonic()
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read spec file: {exc}", file=err)
        return 2
    try:
        spec = parse_spec(text)
        pi = spec.pi()  # resolved once: validates datum and generators
        params = dict()
        for name, p in spec.tasks:
            if name == args.task:
                params.update(p)
        notes = []
        result, witnesses, passed = TASKS[args.task](
            spec, pi, args.cache_dir, params, notes)
    except SpecParseError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except PoleError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except Exception as exc:  # noqa: BLE001 - the contract is exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return 3

    # cache bookkeeping goes to stderr so that stdout is deterministic
    # across cold and warm runs
    for note in notes:
        print(f"note: {note}", file=err)
    report = {
        "datum": pi.datum.name,
        "pi": [list(lam) for lam in pi],
        "task": args.task,
        "result": result,
        "witnesses": witnesses,
        "pass": passed,
        "elapsed": time.monotonic() - t0,
    }
    if args.format == "json":
        json.dump(report, out, sort_keys=True, indent=1, default=str)
        print(file=out)
    else:
        _render_human(report, out)
    return 0 if passed else 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
