"""Content-addressed on-disk cache for built algebras.

Files are named by a digest of the root datum, the saturated set, and a
format version; each file carries its own checksum and is written
atomically (temp file then rename).  A corrupt or stale file is reported
and ignored, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from .laurent import RatFunc
from .schur import SchurAlgebra

FORMAT_VERSION = 1


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


class CachedModule:
    """Read-only stand-in for a highest-weight module, reconstituted from
    stored action matrices."""

    def __init__(self, datum, lam, weights, dims, e_mats, f_mats):
        self.datum = datum
        self.lam = tuple(lam)
        self.weights = [tuple(w) for w in weights]
        self.dims = {nu: dims[i] for i, nu in enumerate(self.weights)}
        self.dim = sum(dims)
        self.offsets = {}
        off = 0
        for nu in self.weights:
            self.offsets[nu] = off
            off += self.dims[nu]
        self._e_mats = e_mats
        self._f_mats = f_mats

    def generator_matrix(self, sign, i):
        return self._e_mats[i] if sign > 0 else self._f_mats[i]


def _mat_to_strings(mat):
    return [[x.to_string() for x in row] for row in mat]


def _mat_from_strings(rows):
    return [[RatFunc.parse(x) for x in row] for row in rows]


def serialize_algebra(algebra):
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
            "e": [_mat_to_strings(m.generator_matrix(1, i))
                  for i in range(algebra.datum.rank)],
            "f": [_mat_to_strings(m.generator_matrix(-1, i))
                  for i in range(algebra.datum.rank)],
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
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        warn(f"cache file {path} is unreadable ({exc}); ignoring it")
        return None


def _rebuild(pi, body):
    modules = []
    for mrec in body["modules"]:
        e_mats = {i: _mat_from_strings(rows)
                  for i, rows in enumerate(mrec["e"])}
        f_mats = {i: _mat_from_strings(rows)
                  for i, rows in enumerate(mrec["f"])}
        modules.append(CachedModule(pi.datum, tuple(mrec["lam"]),
                                    [tuple(w) for w in mrec["weights"]],
                                    mrec["dims"], e_mats, f_mats))
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
