"""Content-addressed store of sweep-point results (the middle layer).

The experiment core is split into three layers (DESIGN.md §10):

1. **execution** (:mod:`repro.core.runner`)
   resolves :class:`~repro.core.runner.PointSpec` objects and runs them,
   serially or over a process pool;
2. **this store** maps a *content address* — a stable digest of
   (PointSpec, code fingerprint) — to the resulting
   :class:`~repro.metrics.report.RunMetrics` plus provenance metadata,
   one atomic JSON file per point under a store directory;
3. **reporting** (:mod:`repro.core.sweep`, :mod:`repro.core.figures`,
   :mod:`repro.core.compare`) reads results back out of the store, never
   from live runs, whenever a store is mounted.

The payoff: ``repro figures``/``sweep`` resume after an interruption
(already-finished points are store hits), a fully warm regeneration costs
file reads instead of ~1000 s of simulation, and editing simulation code
invalidates every cached point automatically because the code fingerprint
is part of the address.

Digest stability
----------------
Keys must be identical across processes and interpreter restarts —
independent of ``PYTHONHASHSEED``, dict insertion order, and process
identity — or resume would silently re-run everything.  :func:`canonical`
therefore reduces a spec to plain JSON types with sorted keys, never uses
``hash()``/``id()``, and refuses unknown object types instead of falling
back to ``repr`` (which may embed addresses or mutable counters).
``tests/test_store.py`` pins the cross-process round trip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..metrics.report import RunMetrics

__all__ = [
    "canonical",
    "spec_digest",
    "code_fingerprint",
    "metrics_to_dict",
    "metrics_from_dict",
    "RunStore",
]

#: Attributes of policy objects that are runtime *state*, not
#: configuration; they must never leak into a content address.
_POLICY_STATE_ATTRS = frozenset({"admitted", "shed"})


def canonical(obj) -> object:
    """Reduce ``obj`` to plain JSON types, deterministically.

    Dataclasses become ``{"__type__": name, **fields}``; tuples become
    lists; admission policies contribute their class name
    and public configuration attributes only.  Raises ``TypeError`` for
    anything unrecognised so new spec fields cannot silently produce
    unstable keys.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string dict key {key!r} in spec")
            out[key] = canonical(obj[key])
        return out
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for field in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            out[field.name] = canonical(getattr(obj, field.name))
        return out
    # Overload-control objects are plain classes holding configuration
    # plus run-time counters; address the configuration only.  Imported
    # lazily to keep the store importable without the overload package.
    from ..overload.control import OverloadControl
    from ..overload.policies import AdmissionPolicy

    if isinstance(obj, OverloadControl):
        return {
            "__type__": "OverloadControl",
            "admission": canonical(obj.admission),
            "discipline": canonical(obj.discipline),
        }
    if isinstance(obj, AdmissionPolicy):
        config = {
            name: canonical(value)
            for name, value in sorted(vars(obj).items())
            if not name.startswith("_") and name not in _POLICY_STATE_ATTRS
        }
        config["__type__"] = type(obj).__name__
        return config
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for a store key; "
        f"teach repro.core.store.canonical about it"
    )


def spec_digest(spec, fingerprint: str = "") -> str:
    """Content address of one sweep point: sha256 over the canonical
    spec plus the code fingerprint, as hex."""
    payload = {"spec": canonical(spec), "fingerprint": fingerprint}
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- code fingerprint ---------------------------------------------------------

_FINGERPRINT_CACHE: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """Digest of every ``repro`` source file.

    Any edit to the package changes the fingerprint and therefore every
    store key — conservative (a docstring tweak invalidates too) but
    never wrong.  To pin a fingerprint, pass one to
    ``RunStore(root, fingerprint=...)``.
    """
    global _FINGERPRINT_CACHE
    if _FINGERPRINT_CACHE is not None and not refresh:
        return _FINGERPRINT_CACHE
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(package_dir)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, package_dir)
            digest.update(rel.encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(fh.read())
    _FINGERPRINT_CACHE = digest.hexdigest()[:16]
    return _FINGERPRINT_CACHE


# -- RunMetrics (de)serialisation --------------------------------------------

def metrics_to_dict(metrics: RunMetrics) -> Dict:
    """JSON form of a RunMetrics row; inverse of :func:`metrics_from_dict`."""
    return dataclasses.asdict(metrics)


def metrics_from_dict(data: Dict) -> RunMetrics:
    """Rebuild a RunMetrics equal (``==``) to the one serialised."""
    return RunMetrics(**data)


# -- the store ----------------------------------------------------------------

class RunStore:
    """Directory of content-addressed run results with atomic writes.

    Layout: ``<root>/<key[:2]>/<key>.json``, one file per point, written
    via ``tempfile + os.replace`` so a killed process can never leave a
    half-written entry — a truncated or unparseable file is treated as a
    miss and overwritten on the next run.
    """

    SCHEMA = "repro-runstore/1"

    def __init__(self, root: str, fingerprint: Optional[str] = None) -> None:
        self.root = os.path.abspath(root)
        #: Fingerprint stamped into (and required of) every entry; pass
        #: an explicit value to share entries across code versions.
        self.fingerprint = (
            code_fingerprint() if fingerprint is None else fingerprint
        )
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -- addressing ----------------------------------------------------------
    def key_for(self, spec) -> str:
        """The content address of ``spec`` under this store's fingerprint."""
        return spec_digest(spec, self.fingerprint)

    def path_for(self, key: str) -> str:
        """On-disk location of ``key``'s entry (sharded by key prefix)."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- read/write ----------------------------------------------------------
    def fetch(self, key: str) -> Optional[RunMetrics]:
        """Read one entry without touching the hit/miss counters."""
        payload = self._load(self.path_for(key))
        if payload is None or payload.get("fingerprint") != self.fingerprint:
            return None
        return metrics_from_dict(payload["metrics"])

    def get(self, key: str) -> Optional[RunMetrics]:
        """The stored metrics for ``key``, or ``None`` (counted as a miss)."""
        metrics = self.fetch(key)
        if metrics is None:
            self.misses += 1
        else:
            self.hits += 1
        return metrics

    def contains(self, key: str) -> bool:
        """Whether ``key`` is present under the current fingerprint."""
        return self.fetch(key) is not None

    def put(
        self,
        key: str,
        metrics: RunMetrics,
        provenance: Optional[Dict] = None,
    ) -> str:
        """Atomically persist one result; returns the entry's path."""
        path = self.path_for(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        payload = {
            "schema": self.SCHEMA,
            "key": key,
            "fingerprint": self.fingerprint,
            "created": time.time(),
            "provenance": provenance or {},
            "metrics": metrics_to_dict(metrics),
        }
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=parent
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
        return path

    # -- maintenance ----------------------------------------------------------
    def entries(self) -> Iterator[Tuple[str, Dict]]:
        """Every readable ``(path, payload)`` in the store, sorted by path."""
        if not os.path.isdir(self.root):
            return
        for dirpath, dirnames, filenames in sorted(os.walk(self.root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                payload = self._load(path)
                if payload is not None:
                    yield path, payload

    def ls(self) -> List[Dict]:
        """Summary rows for ``repro cache ls`` (current-fingerprint aware)."""
        rows = []
        for _path, payload in self.entries():
            metrics = payload.get("metrics", {})
            provenance = payload.get("provenance", {})
            rows.append({
                "key": payload.get("key", "")[:12],
                "clients": metrics.get("clients", ""),
                "server": provenance.get("server", ""),
                "scenario": provenance.get("scenario", ""),
                "seed": provenance.get("seed", ""),
                "fingerprint": payload.get("fingerprint", ""),
                "current": payload.get("fingerprint") == self.fingerprint,
                "age_s": round(time.time() - payload.get("created", 0.0), 1),
            })
        return rows

    def gc(
        self,
        all_entries: bool = False,
        older_than_s: Optional[float] = None,
    ) -> int:
        """Drop stale entries (fingerprint mismatch); ``all_entries``
        drops everything; ``older_than_s`` additionally drops entries
        whose ``created`` timestamp is older than that age in seconds,
        regardless of fingerprint.  Returns the number of files removed.
        """
        removed = 0
        now = time.time()
        for path, payload in list(self.entries()):
            drop = all_entries or payload.get("fingerprint") != self.fingerprint
            if not drop and older_than_s is not None:
                drop = now - payload.get("created", 0.0) > older_than_s
            if drop:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    # -- reporting ------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """This process's counter snapshot: hits, misses, puts."""
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}

    def summary(self) -> str:
        """One line for CLI summaries: hits/misses/executions this process."""
        return (
            f"run store {self.root}: {self.hits} hits, "
            f"{self.misses} misses, {self.puts} points executed+stored"
        )

    # -- internals ------------------------------------------------------------
    @staticmethod
    def _load(path: str) -> Optional[Dict]:
        """Parse one entry; unreadable/corrupt/mis-schema'd files are None."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != RunStore.SCHEMA
            or "metrics" not in payload
        ):
            return None
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunStore({self.root!r}, fingerprint={self.fingerprint!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )
