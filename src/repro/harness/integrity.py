"""Integrity-framed pickle publishing: the crash-consistency layer
every on-disk payload of the execution pipeline goes through.

Spool units and results, checkpoint-journal entries and memo-store
entries are all pickles published with ``os.replace``.  Atomic rename
protects readers from *torn* writes, but not from a disk flipping
bits, a writer dying mid-``write`` on the temp file of a filesystem
without ordered metadata, or an operator truncating a file -- and a
silently corrupt pickle is the one failure mode a deterministic
reproduction harness cannot tolerate (``pickle.loads`` on garbage can
return *anything*, including a plausible-looking wrong result).

So every publish is framed::

    RPF1 | 8-byte big-endian payload length | payload | sha256(payload)

and every load verifies the frame before unpickling.  A file that
fails verification is **quarantined** -- moved aside into a
``corrupt/`` sibling directory (never deleted: it is evidence) -- the
failure is recorded as an ``integrity.corrupt`` telemetry event, and
the caller sees a plain miss, never an exception.  An unframed file
is unverifiable and quarantined like any other: every journal, memo
and spool key folds in ``code_fingerprint()``, so a file written by
pre-framing code is never looked up under a key current code produces.

:func:`atomic_pickle` is also the harness-hazard injection seam: an
armed :mod:`repro.harness.hazards` plan may corrupt/truncate the
framed bytes or fail the publish with ENOSPC/EIO at deterministic
opportunity indices (zero cost when disarmed -- one module-attribute
test).
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import struct
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from ..obs.telemetry import NULL_TELEMETRY

__all__ = ["MAGIC", "IntegrityError", "frame", "unframe", "atomic_pickle",
           "load_verified", "quarantine_file", "gc_tmp"]

_LOG = logging.getLogger("repro.harness.integrity")

#: Frame marker.  :func:`unframe` rejects any blob not starting with
#: it, a bare pickle (``\x80`` protocol opcode) included.
MAGIC = b"RPF1"

_HEADER = struct.Struct(">4sQ")           # magic + payload length
_DIGEST_LEN = hashlib.sha256().digest_size


class IntegrityError(ValueError):
    """A framed payload failed verification (bad magic, short read,
    length mismatch, digest mismatch)."""


def frame(payload: bytes) -> bytes:
    """Wrap serialized bytes in the length + sha256-trailer frame."""
    return (_HEADER.pack(MAGIC, len(payload)) + payload
            + hashlib.sha256(payload).digest())


def unframe(data: bytes) -> bytes:
    """Verify a framed blob and return the payload; raises
    :class:`IntegrityError` on any mismatch."""
    if len(data) < _HEADER.size:
        raise IntegrityError(f"short frame: {len(data)} bytes")
    magic, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise IntegrityError(f"bad magic {magic!r}")
    if len(data) != _HEADER.size + length + _DIGEST_LEN:
        raise IntegrityError(
            f"length mismatch: header says {length} payload bytes, "
            f"file holds {len(data) - _HEADER.size - _DIGEST_LEN}")
    payload = data[_HEADER.size:_HEADER.size + length]
    digest = data[_HEADER.size + length:]
    if hashlib.sha256(payload).digest() != digest:
        raise IntegrityError("sha256 digest mismatch")
    return payload


def atomic_pickle(obj, path: Path, what: str = "entry") -> None:
    """Frame-pickle ``obj`` and atomically publish it at ``path``.

    Same-directory temp file + ``os.replace``; the temp file is
    unlinked on any failure so a failing publish never litters.
    ``what`` labels the publish site for hazard injection ("unit" /
    "result" / "journal" / "memo") -- an armed hazard plan may rewrite
    the bytes or raise ``OSError`` here, which propagates to the
    caller exactly like a real full disk.
    """
    from . import hazards                   # local: hazards has no deps on us
    path = Path(path)
    data = frame(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    plan = hazards.current()
    if plan is not None:
        data = plan.on_publish(what, path, data)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_verified(path: Path, quarantine_to: Optional[Path] = None,
                  telemetry=NULL_TELEMETRY, what: str = "entry",
                  unit: Optional[str] = None):
    """Load a framed pickle, verifying integrity; None on miss.

    A missing file is a plain miss.  A present-but-unverifiable file
    (truncated, bit-flipped, not a pickle at all) is moved into
    ``quarantine_to`` (kept in place if no quarantine dir was given or
    the move fails), recorded as an ``integrity.corrupt`` event, and
    reported as a miss -- corruption must never be worse than
    re-executing the unit.  An unframed pickle is unverifiable, so it
    is quarantined too.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    try:
        return pickle.loads(unframe(data))
    except Exception as exc:                # noqa: BLE001 - quarantined
        moved = quarantine_file(path, quarantine_to)
        telemetry.emit("integrity.corrupt", unit=unit, what=what,
                       file=path.name, error=f"{exc}"[:200],
                       quarantined=str(moved) if moved else None)
        telemetry.count("integrity.corrupt")
        _LOG.warning("integrity: corrupt %s %s (%s)%s", what, path.name,
                     exc, f" -> quarantined to {moved}" if moved else "")
        return None


def quarantine_file(path: Path, root: Optional[Path]) -> Optional[Path]:
    """Move a corrupt file under ``root`` (kept as evidence, out of
    every reader's glob); None when no root was given or the move
    failed (the file stays put and will re-quarantine next read)."""
    if root is None:
        return None
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
        target = root / path.name
        n = 0
        while target.exists():
            n += 1
            target = root / f"{path.name}.{n}"
        os.replace(path, target)
        return target
    except OSError:
        return None


def gc_tmp(directory: Path, older_than_s: float = 0.0) -> List[Path]:
    """Collect ``*.tmp`` litter a writer killed between ``mkstemp``
    and ``os.replace`` left behind.

    Only files older than ``older_than_s`` are removed (a live
    writer's in-flight temp file must survive); readers never match
    ``*.tmp`` in the first place, so litter is cosmetic until it is
    collected here.
    """
    directory = Path(directory)
    removed: List[Path] = []
    if not directory.is_dir():
        return removed
    now = time.time()
    for tmp in directory.glob("*.tmp"):
        try:
            if now - tmp.stat().st_mtime >= older_than_s:
                tmp.unlink()
                removed.append(tmp)
        except OSError:
            continue
    return removed
