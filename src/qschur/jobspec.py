"""Line-oriented job descriptions for the command-line driver.

Grammar (statements separated by newlines or " / "):

    datum preset <name>
    datum matrix <r1c1,r1c2,...;r2c1,...>     # symmetric Cartan form rows
    pi gens [<weights>]                        # ints or (a,b,...) tuples
    task <name> [<key> <value> ...]
    ring rational xi <p>/<q>
    ring cyclotomic <n>
"""

from __future__ import annotations

from fractions import Fraction

from .rings import RingPoint
from .rootdata import CartanDatum, preset, simply_connected

TASK_NAMES = ("build", "verify", "dims", "maps", "limit", "probe",
              "specialize")
# each task parameter with its largest value, a nonnegative integer.  A probe
# saturates every dominant weight up to its height, at most PROBE_SETS of them
# (`cli` counts first).  On a 2-core Xeon VM: A3-A10 at height 32 under 0.05
# s, A1^3 at 32 (6,545 sets) 0.7 s, A8 at 96 (4,639 sets) 2.7 s
TASK_PARAMS = {"probe": {"height": 32}}
PROBE_SETS = 10_000


class SpecParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") \
                + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class JobSpec:
    def __init__(self, datum_spec=None, pi_gens=None, tasks=None,
                 ring_spec=None):
        self.datum_spec = datum_spec  # ("preset", name) | ("matrix", rows)
        self.pi_gens = pi_gens or []
        self.tasks = tasks or []      # [(name, params dict)]
        self.ring_spec = ring_spec    # ("rational", Fraction) | ("cyclo", n)
        self.lines = {}               # statement head -> its line, if parsed

    # -- resolution -------------------------------------------------------

    def datum(self):
        if self.datum_spec is None:
            raise SpecParseError("no datum statement")
        kind, arg = self.datum_spec
        if kind == "preset":
            return preset(arg)
        cartan = CartanDatum(arg)
        errors = cartan.validate()
        if errors:
            raise SpecParseError("invalid Cartan form: " + "; ".join(errors),
                                 self.lines.get("datum"))
        return simply_connected(cartan, name="custom")

    def pi(self):
        datum = self.datum()
        if not self.pi_gens:
            raise SpecParseError("no pi statement")
        line = self.lines.get("pi")
        for g in self.pi_gens:
            if len(g) != datum.rank_x:
                raise SpecParseError(
                    f"weight {g} has rank {len(g)}, expected {datum.rank_x}",
                    line)
            if not datum.is_dominant(g):
                raise SpecParseError(f"generator weight {g} is not dominant",
                                     line)
        return datum.saturate(self.pi_gens)

    def ring_point(self):
        if self.ring_spec is None:
            return None
        kind, arg = self.ring_spec
        if kind == "rational":
            return RingPoint.rational(arg)
        return RingPoint.cyclotomic(arg)

    # -- serialization ----------------------------------------------------

    def serialize(self):
        lines = []
        if self.datum_spec:
            kind, arg = self.datum_spec
            if kind == "preset":
                lines.append(f"datum preset {arg}")
            else:
                rows = ";".join(",".join(str(x) for x in row) for row in arg)
                lines.append(f"datum matrix {rows}")
        if self.pi_gens:
            ws = ",".join(_weight_str(w) for w in self.pi_gens)
            lines.append(f"pi gens [{ws}]")
        if self.ring_spec:
            kind, arg = self.ring_spec
            if kind == "rational":
                f = Fraction(arg)
                lines.append(f"ring rational xi {f.numerator}/{f.denominator}")
            else:
                lines.append(f"ring cyclotomic {arg}")
        for name, params in self.tasks:
            extra = "".join(f" {k} {v}" for k, v in sorted(params.items()))
            lines.append(f"task {name}{extra}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, JobSpec)
                and self.datum_spec == other.datum_spec
                and self.pi_gens == other.pi_gens
                and self.tasks == other.tasks
                and self.ring_spec == other.ring_spec)


def _weight_str(w):
    if len(w) == 1:
        return str(w[0])
    return "(" + ",".join(str(x) for x in w) + ")"


def parse_spec(text):
    """Parse a job description; raises SpecParseError with positions."""
    spec = JobSpec()
    lineno = 0
    for raw_line in text.splitlines():
        lineno += 1
        for stmt in raw_line.split(" / "):
            stmt = stmt.strip()
            if not stmt or stmt.startswith("#"):
                continue
            words = stmt.split()
            head = words[0]
            if head in spec.lines and head != "task":
                raise SpecParseError(f"repeated {head} statement", lineno, 1)
            if head == "datum":
                spec.datum_spec = _parse_datum(words, lineno)
            elif head == "pi":
                spec.pi_gens = _parse_pi(stmt, words, lineno)
            elif head == "task":
                spec.tasks.append(_parse_task(words, lineno))
                spec.lines[" ".join(words[:2])] = lineno
            elif head == "ring":
                spec.ring_spec = _parse_ring(words, lineno)
            else:
                raise SpecParseError(f"unknown statement {head!r}",
                                     lineno, 1)
            spec.lines[head] = lineno
    return spec


def _parse_datum(words, lineno):
    if len(words) < 3:
        raise SpecParseError("datum statement needs a kind and an argument",
                             lineno)
    if words[1] == "preset":
        name = words[2]
        try:
            preset(name)
        except KeyError:
            raise SpecParseError(f"unknown preset {name!r}", lineno) from None
        return ("preset", name)
    if words[1] == "matrix":
        rows = []
        for chunk in words[2].split(";"):
            try:
                rows.append(tuple(int(x) for x in chunk.split(",")))
            except ValueError:
                raise SpecParseError(
                    f"bad matrix row {chunk!r}", lineno) from None
        if any(len(r) != len(rows) for r in rows):
            raise SpecParseError("matrix is not square", lineno)
        return ("matrix", tuple(rows))
    raise SpecParseError(f"unknown datum kind {words[1]!r}", lineno)


def _parse_pi(stmt, words, lineno):
    if len(words) < 3 or words[1] != "gens":
        raise SpecParseError("pi statement must be 'pi gens [...]'", lineno)
    body = stmt.split("gens", 1)[1].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise SpecParseError("pi gens list must be bracketed", lineno,
                             stmt.index("gens") + 5)
    inner = body[1:-1].strip()
    if not inner:
        raise SpecParseError("pi gens list is empty", lineno)
    gens = []
    for tok in _split_top(inner):
        tok = tok.strip()
        if tok.startswith("("):
            if not tok.endswith(")"):
                raise SpecParseError(f"unbalanced tuple {tok!r}", lineno)
            try:
                gens.append(tuple(int(x) for x in tok[1:-1].split(",")))
            except ValueError:
                raise SpecParseError(
                    f"bad weight tuple {tok!r}", lineno) from None
        else:
            try:
                gens.append((int(tok),))
            except ValueError:
                raise SpecParseError(f"bad weight {tok!r}", lineno) from None
    return gens


def _split_top(text):
    out = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append(cur)
            cur = ""
        else:
            cur += ch
    out.append(cur)
    return out


def _parse_task(words, lineno):
    if len(words) < 2:
        raise SpecParseError("task statement needs a name", lineno)
    name = words[1]
    if name not in TASK_NAMES:
        raise SpecParseError(f"unknown task {name!r}", lineno)
    params = {}
    rest = words[2:]
    if len(rest) % 2 != 0:
        raise SpecParseError("task parameters must come in key value pairs",
                             lineno)
    for k, v in zip(rest[::2], rest[1::2]):
        if k not in TASK_PARAMS.get(name, ()):
            raise SpecParseError(f"task {name} takes no parameter {k!r}",
                                 lineno)
        if not v.isdecimal():
            raise SpecParseError(
                f"{k} must be a nonnegative integer, not {v!r}", lineno)
        # more digits than the bound are above it, and int() refuses more
        # than 4300 of them
        digits, top = v.lstrip("0") or "0", TASK_PARAMS[name][k]
        if len(digits) > len(str(top)) or int(digits) > top:
            raise SpecParseError(f"{k} must be at most {top}", lineno)
        params[k] = int(digits)
    return (name, params)


def _parse_ring(words, lineno):
    if len(words) < 2:
        raise SpecParseError("ring statement needs a kind", lineno)
    if words[1] == "rational":
        if len(words) != 4 or words[2] != "xi":
            raise SpecParseError("expected 'ring rational xi p/q'", lineno)
        try:
            p, _, q = words[3].partition("/")
            xi = Fraction(int(p), int(q or "1"))
        except (ValueError, ZeroDivisionError):
            raise SpecParseError(
                f"bad rational {words[3]!r}", lineno) from None
        if xi == 0:
            raise SpecParseError("xi must be invertible", lineno)
        return ("rational", xi)
    if words[1] == "cyclotomic":
        if len(words) != 3:
            raise SpecParseError("expected 'ring cyclotomic n'", lineno)
        try:
            n = int(words[2])
        except ValueError:
            raise SpecParseError(f"bad order {words[2]!r}", lineno) from None
        if n < 1:
            raise SpecParseError("cyclotomic order must be >= 1", lineno)
        return ("cyclo", n)
    raise SpecParseError(f"unknown ring kind {words[1]!r}", lineno)
