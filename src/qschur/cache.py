"""Content-addressed on-disk cache for built algebras.

Files are named by a digest of the root datum, the saturated set, and a
format version; each file carries its own checksum and is written
atomically (temp file then rename).  An entry is written as a Laurent
polynomial and read back as an element of Q(v), which must lie in
Z[v,v^-1]; a loaded module is rebuilt as the `weylmod.HighestWeightModule`
record, so it meets the same checks as a built one.  A corrupt or stale
file, or one whose modules fail those checks, is reported and ignored,
never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from .laurent import RatFunc
from .schur import SchurAlgebra
from .weylmod import (HighestWeightModule, ModuleCheckError, laurent_matrix,
                      weyl_dim_oracle)

FORMAT_VERSION = 3


def default_cache_dir():
    env = os.environ.get("QHAT_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "qschur")


def cache_key(pi):
    """Content address: digest of the root datum, the saturated set, and
    the format version."""
    payload = repr((pi.datum.key(), tuple(pi), FORMAT_VERSION))
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _to_triples(mat):
    return [[r, c, mat[r][c].to_string()]
            for r in sorted(mat) for c in sorted(mat[r])]


def _from_triples(triples, dim, lam):
    mat = {}
    for r, c, x in triples:
        x = RatFunc.parse(x)
        if not (0 <= r < dim and 0 <= c < dim) or not x:
            raise ValueError(f"bad matrix entry {[r, c, x.to_string()]}")
        mat.setdefault(r, {})[c] = x
    return laurent_matrix(mat, lam)


def serialize_algebra(algebra):
    """The saturated set and, per module, its weights, their
    multiplicities and the nonzero entries of E_i and F_i as
    [row, col, value] triples."""
    body = {
        "version": FORMAT_VERSION,
        "datum": repr(algebra.datum.key()),
        "pi": [list(lam) for lam in algebra.pi],
        "modules": [],
    }
    for m in algebra.modules:
        body["modules"].append({
            "lam": list(m.lam),
            "weights": [list(nu) for nu in m.weights],
            "dims": [m.dims[nu] for nu in m.weights],
            "e": [_to_triples(mat) for mat in m.e],
            "f": [_to_triples(mat) for mat in m.f],
        })
    return body


def cache_store(algebra, cache_dir):
    """Atomically write the algebra under its content address; returns the
    path."""
    os.makedirs(cache_dir, exist_ok=True)
    body = serialize_algebra(algebra)
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(text.encode()).hexdigest()
    payload = json.dumps({"checksum": checksum, "body": body},
                         sort_keys=True)
    path = os.path.join(cache_dir, cache_key(algebra.pi) + ".json")
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def cache_load(pi, cache_dir, warn=None):
    """Load the algebra for a saturated set; returns None on a miss or on a
    corrupt/stale file (after reporting it via `warn`)."""
    if warn is None:
        warn = lambda msg: print(msg, file=sys.stderr)
    path = os.path.join(cache_dir, cache_key(pi) + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
        body = payload["body"]
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        if hashlib.sha256(text.encode()).hexdigest() != payload["checksum"]:
            warn(f"cache file {path} failed its checksum; ignoring it")
            return None
        if body["version"] != FORMAT_VERSION:
            warn(f"cache file {path} has version {body['version']}, "
                 f"expected {FORMAT_VERSION}; ignoring it")
            return None
        if body["datum"] != repr(pi.datum.key()):
            warn(f"cache file {path} was built for a different root datum; "
                 "ignoring it")
            return None
        if [list(lam) for lam in pi] != body["pi"]:
            warn(f"cache file {path} was built for a different saturated "
                 "set; ignoring it")
            return None
        return _rebuild(pi, body)
    except ModuleCheckError as exc:
        warn(f"cache file {path} failed a module check ({exc}); "
             "ignoring it")
        return None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            OSError) as exc:
        warn(f"cache file {path} is unreadable ({exc}); ignoring it")
        return None


def _rebuild(pi, body):
    """The algebra from a file body; every module goes through the checks
    of the module record and its dimension through the Weyl formula."""
    datum = pi.datum
    if len(body["modules"]) != len(pi):
        raise ValueError("wrong number of modules")
    modules = []
    for lam, mrec in zip(pi, body["modules"]):
        if tuple(mrec["lam"]) != lam or not (
                len(mrec["e"]) == len(mrec["f"]) == datum.rank):
            raise ValueError(f"malformed module record for {lam}")
        weights = [tuple(w) for w in mrec["weights"]]
        dim = sum(mrec["dims"])
        m = HighestWeightModule(
            datum, lam, weights, dict(zip(weights, mrec["dims"])),
            [_from_triples(t, dim, lam) for t in mrec["e"]],
            [_from_triples(t, dim, lam) for t in mrec["f"]])
        if m.dim != weyl_dim_oracle(datum, lam):
            raise ModuleCheckError(
                f"module {lam} has dimension {m.dim}, the Weyl formula "
                f"gives {weyl_dim_oracle(datum, lam)}")
        modules.append(m)
    return SchurAlgebra(pi, modules)


def algebras_equal(a, b):
    """Structural equality of two built algebras: same saturated set, same
    block dimensions, same generator and idempotent matrices."""
    if list(a.pi) != list(b.pi) or a.block_dims != b.block_dims:
        return False
    for sign in (1, -1):
        for i in range(a.datum.rank):
            if a.generator(sign, i) != b.generator(sign, i):
                return False
    for lam in sorted(a.orbit):
        if a.idempotent(lam) != b.idempotent(lam):
            return False
    return True
