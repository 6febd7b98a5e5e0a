"""Persistent tape store: compiled traces that survive a process restart.

A :class:`~repro.scorpio.trace_cache.CachedTrace` freezes to a JSON-safe
header plus named NumPy columns (:meth:`CachedTrace.freeze`, built on
:meth:`~repro.ad.compiled.CompiledTape.freeze`).  :class:`TapeStore`
writes exactly that pair to disk — the columns as one ``.bin`` file of
raw bytes, the header as a ``.json`` file — keyed by the kernel-identity
hash the :class:`~repro.scorpio.trace_cache.TraceCache` already uses, in
the spirit of ILAC's variant hashing (every variant keyed by a digest of
its identity, so repeated runs resume instead of recompute).

Loading maps the ``.bin`` file once with ``np.memmap`` (read-only),
checks its digest and hands :meth:`CachedTrace.thaw` a view per column,
as :class:`repro.mp.SharedTape` hands it views of shared memory: nothing
writes a compiled tape after compilation, and
:meth:`CompiledTape.forward` replays into per-call state.

The payoff is warm starts: ``TraceCache(store_dir=...)`` (or the
``REPRO_TAPE_DIR`` environment variable via :mod:`repro.serve`) loads a
stored tape on the first request after a restart and serves it as a
*replay* — no re-recording through Python operator overloading, no
object tape, ``X-Repro-Cache: replay`` on a stone-cold service.

Format notes (``STORE_VERSION`` 2):

* the ``.json`` file holds ``store_version``, ``repro_version``,
  ``repr(key)``, the frozen trace header under ``trace`` (op names,
  labels, guards, analysis ids, delta, simplify, op-sequence hash), the
  column manifest under ``arrays`` (dtype/shape/offset/nbytes into the
  ``.bin``; offsets 8-byte aligned), ``total_bytes`` and ``digest``;
* ``digest`` is one blake2b over the key, the trace header, the
  manifest and every byte of the ``.bin``, so a corrupt column —
  structure, values, partials, schedule or constants — or an edited
  guard can never masquerade as a valid trace;
* a file written by another store version or another repro version is
  a miss: the key is the kernel identity alone, so a stale recording
  must not replay under new code;
* floats round-trip exactly through JSON (CPython emits shortest-repr
  floats; ``Infinity``/``NaN`` tokens cover the non-finite ones), so
  guard thresholds and ``delta`` reload bit-identical;
* writes are atomic (tmp file + ``os.replace``), ``.bin`` first — the
  header is the commit point, so a torn write is an ordinary miss.

All store errors are soft: ``load`` returns ``None`` and ``save``
returns ``False`` (each counted under ``tape_store.*`` obs metrics); the
cache then records exactly as it would with no store at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any

import numpy as np

from repro import __version__ as _REPRO_VERSION
from repro.obs import metrics as _obs_metrics

__all__ = ["TapeStore", "STORE_VERSION", "store_key_digest"]

#: Bump when the on-disk layout changes; older files become misses.
STORE_VERSION = 2

# Column offsets in the .bin are multiples of this, so every mapped
# column is aligned for its dtype.
_ALIGN = 8

_C_SAVES = _obs_metrics.counter("tape_store.saves")
_C_LOADS = _obs_metrics.counter("tape_store.loads")
_C_MISSES = _obs_metrics.counter("tape_store.misses")
_C_ERRORS = _obs_metrics.counter("tape_store.errors")


def store_key_digest(key: Any) -> str:
    """Filename-safe digest of a cache key (hash-keyed kernel identity)."""
    h = hashlib.blake2b(repr(key).encode("utf-8", "replace"), digest_size=12)
    return h.hexdigest()


def _digest(header: dict[str, Any], blob: Any) -> str:
    """The integrity digest of a stored trace (see the format notes)."""
    h = hashlib.blake2b(digest_size=16)
    signed = {name: header[name] for name in ("key", "trace", "arrays")}
    h.update(json.dumps(signed, sort_keys=True).encode("utf-8"))
    h.update(blob)
    return h.hexdigest()


class TapeStore:
    """Directory of serialized compiled traces, one ``.json``+``.bin`` pair
    per cache key.  All methods are best-effort: I/O problems degrade to
    cache misses, never to exceptions in the caller's replay path.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError:
            # An uncreatable root is a store that always misses and
            # never saves (each attempt counted under tape_store.errors)
            # — the cache degrades to plain recording instead of taking
            # the whole service down over a bad REPRO_TAPE_DIR.
            _C_ERRORS.inc()

    def __repr__(self) -> str:
        return f"TapeStore({self.root!r})"

    def paths_for(self, key: Any) -> tuple[str, str]:
        """``(header_path, blob_path)`` this key serializes to."""
        digest = store_key_digest(key)
        stem = os.path.join(self.root, f"tape-{digest}")
        return stem + ".json", stem + ".bin"

    def entries(self) -> list[str]:
        """Digests of every complete (header present) stored tape."""
        out = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in sorted(names):
            if name.startswith("tape-") and name.endswith(".json"):
                out.append(name[len("tape-") : -len(".json")])
        return out

    def has(self, key: Any) -> bool:
        return os.path.exists(self.paths_for(key)[0])

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save(self, key: Any, trace: Any) -> bool:
        """Write a :class:`CachedTrace`'s frozen form; False on error."""
        try:
            self._save(key, trace)
        except Exception:
            _C_ERRORS.inc()
            return False
        _C_SAVES.inc()
        return True

    def _save(self, key: Any, trace: Any) -> None:
        trace_header, columns = trace.freeze()
        header_path, blob_path = self.paths_for(key)
        manifest: dict[str, dict[str, Any]] = {}
        offset = 0
        for name, col in columns.items():
            offset = -(-offset // _ALIGN) * _ALIGN
            manifest[name] = {
                "dtype": col.dtype.str,
                "shape": list(col.shape),
                "offset": offset,
                "nbytes": int(col.nbytes),
            }
            offset += int(col.nbytes)
        blob = bytearray(offset)
        for name, col in columns.items():
            start = manifest[name]["offset"]
            blob[start : start + col.nbytes] = col.tobytes()
        header = {
            "store_version": STORE_VERSION,
            "repro_version": _REPRO_VERSION,
            "key": repr(key),
            "trace": trace_header,
            "arrays": manifest,
            "total_bytes": offset,
        }
        header["digest"] = _digest(header, blob)
        # .bin first, header last: the header is the commit point, so a
        # crash between the two renames leaves a harmless orphan blob.
        fd, tmp_blob = tempfile.mkstemp(dir=self.root, suffix=".bin.tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp_blob, blob_path)
        except BaseException:
            try:
                os.unlink(tmp_blob)
            except OSError:
                pass
            raise
        fd, tmp_header = tempfile.mkstemp(dir=self.root, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(header, f, indent=1)
            os.replace(tmp_header, header_path)
        except BaseException:
            try:
                os.unlink(tmp_header)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(self, key: Any) -> "Any | None":
        """Rebuild the stored :class:`CachedTrace` for ``key``, or None.

        Missing, version-mismatched, truncated or corrupt files are all
        plain misses (counted apart from parse/IO errors): a file whose
        bytes or header disagree with its stored digest is refused.
        """
        header_path, blob_path = self.paths_for(key)
        if not os.path.exists(header_path):
            _C_MISSES.inc()
            return None
        try:
            trace = self._load(header_path, blob_path)
        except Exception:
            _C_ERRORS.inc()
            return None
        if trace is None:
            _C_MISSES.inc()
        else:
            _C_LOADS.inc()
        return trace

    def _load(self, header_path: str, blob_path: str) -> "Any | None":
        from .trace_cache import CachedTrace

        with open(header_path, "r", encoding="utf-8") as f:
            header = json.load(f)
        if (
            header.get("store_version") != STORE_VERSION
            or header.get("repro_version") != _REPRO_VERSION
        ):
            return None
        total = int(header["total_bytes"])
        try:
            if os.path.getsize(blob_path) < total:
                return None
        except OSError:
            return None
        # One read-only map: the digest checks the very bytes the columns
        # then view, and nothing writes a compiled tape after compilation.
        blob = np.memmap(blob_path, dtype=np.uint8, mode="r", shape=(total,))
        if _digest(header, blob) != header["digest"]:
            return None
        columns = {}
        for name, spec in header["arrays"].items():
            start = int(spec["offset"])
            columns[name] = (
                blob[start : start + int(spec["nbytes"])]
                .view(np.dtype(spec["dtype"]))
                .reshape(spec["shape"])
            )
        return CachedTrace.thaw(header["trace"], columns)
