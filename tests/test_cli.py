"""Job description parsing, the on-disk cache, and the command-line
driver's golden-file determinism."""

import glob
import hashlib
import io
import json
import os
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import cache, weylmod
from qschur.cache import (algebras_equal, cache_load, cache_store)
from qschur.laurent import RatFunc
from qschur.cli import _chain, run, task_limit
from qschur.jobspec import (PROBE_SETS, TASK_NAMES, TASK_PARAMS, JobSpec,
                            SpecParseError, parse_spec)
from qschur.rootdata import PRESET_NAMES, CartanDatum, RootDatum, \
    dominant_weights_up_to_height, preset, simply_connected
from qschur.schur import SchurAlgebra, build_schur

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestParsing:
    def test_preset_spec(self):
        spec = parse_spec("datum preset A1\npi gens [2]\ntask build\n")
        assert spec.datum_spec == ("preset", "A1")
        assert spec.pi_gens == [(2,)]
        assert spec.tasks == [("build", {})]
        assert list(spec.pi()) == [(0,), (2,)]

    def test_slash_separated_statements(self):
        spec = parse_spec("datum preset A2 / pi gens [(1,1),(2,0)] / "
                          "task probe height 6")
        assert spec.pi_gens == [(1, 1), (2, 0)]
        assert spec.tasks == [("probe", {"height": 6})]

    def test_matrix_datum(self):
        spec = parse_spec("datum matrix 2,-1;-1,2\npi gens [(1,0)]\n"
                          "task dims\n")
        datum = spec.datum()
        assert datum.rank == 2
        assert datum.cartan.cartan_entry(0, 1) == -1

    def test_ring_statements(self):
        spec = parse_spec("datum preset A1\npi gens [1]\n"
                          "ring rational xi 1/1\ntask specialize\n")
        assert spec.ring_point().xi == 1
        spec = parse_spec("datum preset A1\npi gens [1]\n"
                          "ring cyclotomic 4\ntask specialize\n")
        assert spec.ring_point().field.order == 4

    def test_non_dominant_generator_is_rejected(self):
        spec = parse_spec("datum preset A1\npi gens [-1]\ntask dims\n")
        with pytest.raises(SpecParseError, match="not dominant"):
            spec.pi()

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(SpecParseError, match="line 2"):
            parse_spec("datum preset A1\nbogus statement\n")
        with pytest.raises(SpecParseError, match="unknown preset"):
            parse_spec("datum preset Z9\n")
        with pytest.raises(SpecParseError, match="unknown task"):
            parse_spec("datum preset A1\ntask frobnicate\n")
        with pytest.raises(SpecParseError):
            parse_spec("datum preset A1\npi gens [oops]\n")
        with pytest.raises(SpecParseError):
            parse_spec("datum preset A1\nring rational xi 0/1\n")

    def test_task_parameters_are_checked(self):
        for stmt in ("task probe height foo", "task probe height -3",
                     "task probe depth 3", "task build height 4",
                     "task probe height 33", "task probe height 0033",
                     "task probe height " + "9" * 5000):
            with pytest.raises(SpecParseError, match="line 2"):
                parse_spec(f"datum preset A1\n{stmt}\n")
        assert parse_spec("task probe height 0").tasks == [
            ("probe", {"height": 0})]
        assert parse_spec("task probe height 032").tasks == [
            ("probe", {"height": 32})]

    def test_serialize_round_trip(self):
        text = ("datum preset B2\npi gens [(1,0),(0,2)]\n"
                "ring cyclotomic 6\ntask build\ntask probe height 4\n")
        spec = parse_spec(text)
        again = parse_spec(spec.serialize())
        assert spec == again

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_serialize_round_trip_property(self, data):
        spec = data.draw(job_specs())
        assert parse_spec(spec.serialize()) == spec
        if spec.ring_spec and spec.ring_spec[0] == "rational":
            # the same point written as a fraction that is not reduced
            xi = spec.ring_spec[1]
            k = data.draw(st.integers(-5, 5).filter(bool))
            text = f"ring rational xi {xi.numerator * k}/{xi.denominator * k}"
            assert parse_spec(text).ring_spec == spec.ring_spec

    def test_comments_and_blank_lines_are_skipped(self):
        spec = parse_spec("# header\n\ndatum preset A1\npi gens [1]\n"
                          "task build\n")
        assert spec.datum_spec == ("preset", "A1")


nonzero = st.integers(-30, 30).filter(bool)


@st.composite
def job_specs(draw):
    """A job description: preset or matrix datum, weights of rank 1 and
    more, a signed rational or cyclotomic ring, tasks with parameters;
    every part may be missing."""
    datum = draw(st.one_of(
        st.none(),
        st.tuples(st.just("preset"), st.sampled_from(PRESET_NAMES)),
        st.integers(1, 4).flatmap(lambda n: st.tuples(
            st.just("matrix"),
            st.lists(st.tuples(*[st.integers(-9, 9)] * n),
                     min_size=n, max_size=n).map(tuple)))))
    weights = draw(st.lists(
        st.lists(st.integers(-20, 20), min_size=1, max_size=4).map(tuple),
        max_size=4))
    ring = draw(st.one_of(
        st.none(),
        st.tuples(st.just("rational"), st.builds(Fraction, nonzero, nonzero)),
        st.tuples(st.just("cyclo"), st.integers(1, 60))))
    tasks = draw(st.lists(st.sampled_from(TASK_NAMES).flatmap(
        lambda name: st.tuples(st.just(name), st.fixed_dictionaries(
            {}, optional={k: st.integers(0, top) for k, top
                          in TASK_PARAMS.get(name, {}).items()}))),
        max_size=4))
    return JobSpec(datum, weights, tasks, ring)


# tampers of the body of the cache file of A1 down (2): each changes what
# the checksum covers, and each meets another check of `cache_load`


def _entry(body):
    return body["modules"][-1]["e"][0][0]     # an entry of E on Delta(2)


def _double_value(body):
    x = RatFunc.parse(_entry(body)[2])
    _entry(body)[2] = (x + x).to_string()


def _move_out_of_range(body):
    _entry(body)[0] = 99


def _divide_by_v_plus_2(body):
    x = RatFunc.parse(_entry(body)[2])
    _entry(body)[2] = (x / RatFunc.parse("v + 2")).to_string()


def _next_version(body):
    body["version"] += 1


def _other_datum(body):
    body["datum"] = repr(preset("A1adj").key())


def _other_set(body):
    body["pi"] = [[2]]


def _drop_a_module(body):
    del body["modules"][0]


def _drop_a_matrix(body):
    del body["modules"][-1]["e"][0]


def _pad_the_zero_weight(body):
    # a second basis vector of weight 0, which E and F kill, so the vector
    # of weight -2 moves from index 2 to 3: the commutator still holds on
    # every weight, and the module is one dimension too large
    record = body["modules"][-1]
    record["dims"][record["weights"].index([0])] += 1
    for mat in record["e"] + record["f"]:
        for entry in mat:
            entry[:2] = [x + (x == 2) for x in entry[:2]]


class TestCache:
    def test_round_trip_structural_equality(self, tmp_path):
        pi = preset("A1").saturate([(2,)])
        alg = SchurAlgebra(pi)
        cache_store(alg, str(tmp_path))
        warns = []
        loaded = cache_load(pi, str(tmp_path), warn=warns.append)
        assert warns == []
        assert loaded is not None
        assert algebras_equal(alg, loaded)
        assert loaded.dimension() == alg.dimension()
        assert all(r["ok"] for r in loaded.verify_presentation())

    def test_miss_returns_none(self, tmp_path):
        pi = preset("A1").saturate([(6,)])
        assert cache_load(pi, str(tmp_path), warn=lambda m: None) is None

    def test_checksum_failure_is_reported_and_ignored(self, tmp_path):
        pi = preset("A1").saturate([(1,)])
        path = cache_store(SchurAlgebra(pi), str(tmp_path))
        version = f'"version": {cache.FORMAT_VERSION}'
        wrong = f'"version": {cache.FORMAT_VERSION + 1}'
        blob = open(path).read().replace(version, wrong)
        assert wrong in blob
        with open(path, "w") as fh:
            fh.write(blob)
        warns = []
        assert cache_load(pi, str(tmp_path), warn=warns.append) is None
        assert any("checksum" in w for w in warns)

    @pytest.mark.parametrize("tamper,reason", [
        (_double_value, "module check"), (_move_out_of_range, "unreadable"),
        (_divide_by_v_plus_2, "not in Z[v,v^-1]"),
        (_next_version, "has version"), (_other_datum, "different root datum"),
        (_other_set, "different saturated set"),
        (_drop_a_module, "wrong number of modules"),
        (_drop_a_matrix, "malformed module record"),
        (_pad_the_zero_weight, "the Weyl formula gives 3")])
    def test_wrong_content_under_a_valid_checksum_is_rebuilt(
            self, tmp_path, tamper, reason):
        # the body changed and the checksum recomputed: the file is
        # refused, and the driver rebuilds the algebra
        spec_path = os.path.join(DATA, "a1_build.qs")
        args = ["build", "--spec", spec_path, "--format", "json"]
        assert run_cli(args, tmp_path)[0] == 0
        [path] = glob.glob(str(tmp_path / "*.json"))
        with open(path) as fh:
            body = json.load(fh)["body"]
        tamper(body)
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(text.encode()).hexdigest()
        with open(path, "w") as fh:
            json.dump({"checksum": checksum, "body": body}, fh,
                      sort_keys=True)
        pi = preset("A1").saturate([(2,)])
        warns = []
        assert cache_load(pi, str(tmp_path), warn=warns.append) is None
        assert any(reason in w for w in warns)

        code, out, err = run_cli(args, tmp_path)
        assert code == 0
        assert "built algebra" in err
        got = json.loads(out)
        got.pop("elapsed")
        with open(spec_path[:-3] + ".json") as fh:
            assert got == json.load(fh)
        assert cache_load(pi, str(tmp_path), warn=warns.append) is not None

    def test_truncated_file_is_reported_and_ignored(self, tmp_path):
        pi = preset("A1").saturate([(1,)])
        path = cache_store(SchurAlgebra(pi), str(tmp_path))
        with open(path, "w") as fh:
            fh.write("{not json")
        warns = []
        assert cache_load(pi, str(tmp_path), warn=warns.append) is None
        assert warns


def run_cli(args, cache_dir):
    out, err = io.StringIO(), io.StringIO()
    code = run(args + ["--cache-dir", str(cache_dir)], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def task_of(spec_path):
    for line in open(spec_path):
        for stmt in line.split(" / "):
            if stmt.strip().startswith("task"):
                return stmt.split()[1]
    raise AssertionError(f"no task in {spec_path}")


GOLDEN_SPECS = sorted(glob.glob(os.path.join(DATA, "*.qs")))


class TestGoldenFiles:
    def test_at_least_six_golden_specs(self):
        assert len(GOLDEN_SPECS) >= 6

    @pytest.mark.parametrize("spec_path", GOLDEN_SPECS,
                             ids=[os.path.basename(p) for p in GOLDEN_SPECS])
    def test_json_report_matches_golden(self, spec_path, tmp_path,
                                        monkeypatch):
        # the run resolves pi once and hands it to the task and the report
        calls = []
        resolve = JobSpec.pi
        monkeypatch.setattr(JobSpec, "pi",
                            lambda spec: calls.append(1) or resolve(spec))
        task = task_of(spec_path)
        code, out, _ = run_cli(
            [task, "--spec", spec_path, "--format", "json"], tmp_path)
        assert code == 0
        assert len(calls) == 1
        got = json.loads(out)
        got.pop("elapsed")
        with open(spec_path[:-3] + ".json") as fh:
            expect = json.load(fh)
        assert got == expect

    def test_cold_and_warm_cache_are_byte_identical(self, tmp_path):
        spec_path = os.path.join(DATA, "a1_dims.qs")
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                ["dims", "--spec", spec_path, "--format", "json"], tmp_path)
            assert code == 0
            outs.append("\n".join(
                line for line in out.splitlines()
                if '"elapsed"' not in line))
        assert outs[0] == outs[1]

    def test_human_format_is_deterministic_too(self, tmp_path):
        spec_path = os.path.join(DATA, "a1_build.qs")
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                ["build", "--spec", spec_path, "--format", "human"],
                tmp_path)
            assert code == 0
            outs.append("\n".join(line for line in out.splitlines()
                                  if not line.startswith("elapsed")))
        assert outs[0] == outs[1]
        assert "status: pass" in outs[0]


# one malformed spec per SpecParseError raise site: (task, spec text, the
# line of the faulty statement or None where there is none, a message part)
MALFORMED = [
    ("dims", "bogus statement", 1, "unknown statement"),
    ("dims", "pi gens [1]\ndatum preset", 2, "kind and an argument"),
    ("dims", "datum preset Z9", 1, "unknown preset"),
    ("dims", "datum matrix 2,x;-1,2", 1, "bad matrix row"),
    ("dims", "datum matrix 2,-1;-1", 1, "not square"),
    ("dims", "datum lattice A1", 1, "unknown datum kind"),
    ("dims", "datum preset A1\npi foo [1]", 2, "pi gens"),
    ("dims", "datum preset A1\npi gens 1", 2, "bracketed"),
    ("dims", "datum preset A1\npi gens []", 2, "empty"),
    ("dims", "datum preset A2\npi gens [(1,0]", 2, "unbalanced"),
    ("dims", "datum preset A2\npi gens [(1,x)]", 2, "bad weight tuple"),
    ("dims", "datum preset A1\npi gens [x]", 2, "bad weight"),
    ("dims", "datum preset A1\npi gens [1,]", 2, "bad weight ''"),
    ("dims", "datum preset A1\npi gens [1]\ntask", 3, "needs a name"),
    ("dims", "datum preset A1\npi gens [1]\ntask frob", 3, "unknown task"),
    ("probe", "datum preset A1 / pi gens [1]\n\ntask probe height", 3,
     "key value pairs"),
    ("build", "datum preset A1\npi gens [1]\ntask build height 4", 3,
     "no parameter"),
    ("probe", "datum preset A1\npi gens [1]\ntask probe height foo", 3,
     "nonnegative integer"),
    ("probe", "datum preset A1\npi gens [1]\ntask probe height 33", 3,
     "at most 32"),
    ("dims", "datum preset A1\nring\npi gens [1]", 2, "needs a kind"),
    ("dims", "datum preset A1\nring rational 1/2", 2, "ring rational xi"),
    ("dims", "datum preset A1\nring rational xi a/b", 2, "bad rational"),
    ("dims", "datum preset A1\nring rational xi 0/1", 2, "invertible"),
    ("dims", "datum preset A1\nring cyclotomic", 2, "ring cyclotomic n"),
    ("dims", "datum preset A1\nring cyclotomic x", 2, "bad order"),
    ("dims", "datum preset A1\nring cyclotomic 0", 2, ">= 1"),
    ("dims", "datum preset A1\nring complex 1", 2, "unknown ring kind"),
    ("dims", "pi gens [1]\ntask dims", None, "no datum statement"),
    ("dims", "# a comment\n\ndatum matrix 2,-1;-2,2\npi gens [(1,0)]", 3,
     "invalid Cartan form"),
    ("dims", "datum preset A1\ntask dims", None, "no pi statement"),
    ("dims", "datum preset A2\n\npi gens [1]", 3, "has rank 1"),
    ("dims", "datum preset A1\ntask dims\npi gens [-1]", 3, "not dominant"),
    ("specialize", "datum preset A1\npi gens [1]\ntask specialize", None,
     "needs a ring statement"),
    # a second datum, pi or ring statement would replace the first
    ("dims", "datum preset A1 / datum preset A2\npi gens [1]", 1,
     "repeated datum"),
    ("dims", "datum preset A1\npi gens [1]\npi gens [2]\ntask dims", 3,
     "repeated pi"),
    ("specialize", "datum preset A1\npi gens [1]\nring cyclotomic 3\n"
     "ring cyclotomic 4\ntask specialize", 4, "repeated ring"),
]


class TestExitCodes:
    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.qs"
        bad.write_text("datum preset A1\npi gens [-1]\ntask dims\n")
        code, _, err = run_cli(["dims", "--spec", str(bad)], tmp_path)
        assert code == 2
        assert "not dominant" in err

    @pytest.mark.parametrize("task,text,line,part", MALFORMED,
                             ids=[case[3] for case in MALFORMED])
    def test_a_malformed_spec_exits_2_naming_its_line(self, tmp_path, task,
                                                      text, line, part):
        bad = tmp_path / "bad.qs"
        bad.write_text(text + "\n")
        code, out, err = run_cli([task, "--spec", str(bad)], tmp_path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and part in err
        if line is None:
            assert "(line" not in err
        else:
            assert f"(line {line}" in err

    def test_missing_spec_file_exits_2(self, tmp_path):
        code, _, err = run_cli(
            ["dims", "--spec", str(tmp_path / "nope.qs")], tmp_path)
        assert code == 2

    def test_a_spec_that_is_not_utf8_exits_2(self, tmp_path):
        spec = tmp_path / "spec.qs"
        body = "\ndatum preset A1\npi gens [1]\ntask dims\n"
        spec.write_bytes("# caf\u00e9".encode("latin-1") + body.encode())
        code, out, err = run_cli(["dims", "--spec", str(spec)], tmp_path)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read spec file")
        spec.write_bytes("# caf\u00e9".encode("utf-8") + body.encode())
        assert run_cli(["dims", "--spec", str(spec)], tmp_path)[0] == 0

    def test_missing_ring_for_specialize_exits_2(self, tmp_path):
        bad = tmp_path / "bad.qs"
        bad.write_text("datum preset A1\npi gens [1]\ntask specialize\n")
        code, _, err = run_cli(["specialize", "--spec", str(bad)], tmp_path)
        assert code == 2
        assert "ring" in err

    def test_tall_fundamental_weight_is_built(self, tmp_path):
        # the first fundamental weight of A8 and A10 has height 8 and 10;
        # its module is lowered like every other
        for n in (8, 10):
            rows = ";".join(",".join(str(2 if i == j else -1 if abs(i - j)
                                         == 1 else 0) for j in range(n))
                            for i in range(n))
            lam = ",".join(str(int(k == 0)) for k in range(n))
            spec = tmp_path / f"a{n}.qs"
            spec.write_text(f"datum matrix {rows}\npi gens [({lam})]\n"
                            "task dims\n")
            code, out, _ = run_cli(["dims", "--spec", str(spec), "--format",
                                    "json"], tmp_path)
            assert code == 0, n
            result = json.loads(out)["result"]
            assert result["dimension"] == (n + 1) ** 2, n

    @pytest.mark.parametrize("value", ["foo", "-3"])
    def test_bad_probe_height_exits_2(self, tmp_path, value):
        bad = tmp_path / "bad.qs"
        bad.write_text(f"datum preset A1\npi gens [2]\ntask probe height "
                       f"{value}\n")
        code, _, err = run_cli(["probe", "--spec", str(bad)], tmp_path)
        assert code == 2
        assert err.startswith("error: ")
        assert "line 3" in err

    def test_a_probe_of_too_many_sets_exits_2_before_saturating(
            self, tmp_path, monkeypatch):
        # the fundamental weights of A1^r have height 1, so height 32 has
        # C(32 + r, r) dominant weights: 6,545 on A1^3, 58,905 on A1^4
        a13 = simply_connected(CartanDatum(((2, 0, 0), (0, 2, 0),
                                            (0, 0, 2))))
        assert len(dominant_weights_up_to_height(a13, 32)) == 6545 \
            <= PROBE_SETS
        calls = []
        saturate = RootDatum.saturate
        monkeypatch.setattr(RootDatum, "saturate", lambda self, gens:
                            calls.append(gens) or saturate(self, gens))
        bad = tmp_path / "bad.qs"
        bad.write_text("task probe height 32\n"
                       "datum matrix 2,0,0,0;0,2,0,0;0,0,2,0;0,0,0,2\n"
                       "pi gens [(1,0,0,0)]\ntask dims\n")
        code, out, err = run_cli(["probe", "--spec", str(bad)], tmp_path)
        assert (code, out) == (2, "")
        assert err.startswith("error: height 32 schedules more than 10000")
        assert "(line 1)" in err
        assert calls == [[(1, 0, 0, 0)]]     # the spec's own pi, no more

    def test_a_refused_probe_stops_the_walk_past_the_bound(self, tmp_path):
        # A1^5 has 435,897 dominant weights up to height 32; the walk stops
        # once it passes PROBE_SETS of them
        bad = tmp_path / "bad.qs"
        form = ";".join(",".join("2" if i == j else "0" for j in range(5))
                        for i in range(5))
        bad.write_text(f"datum matrix {form}\npi gens [(0,0,0,0,0)]\n"
                       "task probe height 32\n")
        start = time.perf_counter()
        code, out, err = run_cli(["probe", "--spec", str(bad)], tmp_path)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: height 32 schedules more than 10000")
        assert "(line 3)" in err

    def test_env_cache_dir_is_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QHAT_CACHE_DIR", str(tmp_path / "envcache"))
        spec_path = os.path.join(DATA, "a1_build.qs")
        out, err = io.StringIO(), io.StringIO()
        code = run(["build", "--spec", spec_path, "--format", "json"],
                   out=out, err=err)
        assert code == 0
        assert os.listdir(tmp_path / "envcache")


# the chains of `qsl maps` and `limit`, pinned: each step adds the
# saturation of the last weight plus the lowest dominant positive root
CHAINS = {
    ("A2", "(2,2)"): [
        [[0, 0], [1, 1], [0, 3], [3, 0], [2, 2]],
        [[0, 0], [1, 1], [0, 3], [3, 0], [2, 2], [1, 4], [4, 1], [3, 3]],
        [[0, 0], [1, 1], [0, 3], [3, 0], [2, 2], [1, 4], [4, 1], [0, 6],
         [3, 3], [6, 0], [2, 5], [5, 2], [4, 4]]],
    ("B2", "(2,1)"): [
        [[0, 1], [1, 1], [0, 3], [2, 1]],
        [[0, 1], [1, 1], [0, 3], [2, 1], [1, 3], [3, 1]],
        [[0, 1], [1, 1], [0, 3], [2, 1], [1, 3], [0, 5], [3, 1], [2, 3],
         [4, 1]]],
}


class TestChain:
    """`maps`, `limit` and `specialize` finish on sets whose `dims` is
    cheap: a chain that grew with pi0 made them run for minutes."""

    @pytest.fixture
    def budget(self):
        def expire(signum, frame):
            raise TimeoutError("over the 10 s budget")
        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    @pytest.mark.parametrize("task", ["maps", "limit", "specialize"])
    @pytest.mark.parametrize("name,gens", sorted(CHAINS))
    def test_chain_tasks_finish(self, name, gens, task, tmp_path, budget):
        spec = tmp_path / "job.qs"
        spec.write_text(f"datum preset {name}\npi gens [{gens}]\n"
                        "ring cyclotomic 3\n")
        code, out, err = run_cli([task, "--spec", str(spec), "--format",
                                  "json"], tmp_path)
        assert code == 0, err
        result = json.loads(out)["result"]
        if task == "specialize":
            assert result["projection_commutes"]
        else:
            assert result["chain"] == CHAINS[name, gens]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_step_is_strict_and_saturated(self, name):
        datum = preset(name)
        for mu in dominant_weights_up_to_height(datum, 4):
            pi0, pi1, pi2 = chain = _chain(datum.saturate([mu]))
            assert all(p.is_saturated() for p in chain), mu
            assert pi0.issubset(pi1) and pi1.issubset(pi2), mu
            assert len(pi0) < len(pi1) < len(pi2), mu


def test_limit_lowers_no_module_outside_pi0(monkeypatch):
    # the coherence rows of 1_lam and K_h read only diagonal lifts at pi1
    # and pi2, which take the weights of a module and lower none of it
    lowered = set()
    lower = weylmod._lower

    def spy(datum, lam, *args):
        lowered.add(lam)
        return lower(datum, lam, *args)
    monkeypatch.setattr(weylmod, "_lower", spy)
    weylmod.weyl_module.cache_clear()
    build_schur.cache_clear()
    spec = parse_spec("datum preset B2\npi gens [(2,2)]\ntask limit\n")
    pi0 = spec.pi()
    _, witnesses, passed = task_limit(spec, pi0, None, {}, [])
    assert passed and witnesses == []
    pi2 = _chain(pi0)[2]
    assert len(set(pi2) - set(pi0)) == 7
    assert weylmod.weyl_module.cache_info().currsize == len(pi2)
    assert lowered == set(pi0)
