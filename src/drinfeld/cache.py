"""Content-addressed JSON cache for enumeration results.

Records carry a header (format version, configuration, content hash) and a
body; the hash is recomputed on load and stale or corrupted records are
rejected.

Only `hecke graph --cache` reaches this module's functions, so `hashlib`
and `tempfile` are imported inside the functions that use them: every
other command starts without paying for them."""

from __future__ import annotations

import json
import os

FORMAT_VERSION = 1


class CacheError(RuntimeError):
    pass


def _canonical(body) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def body_hash(body) -> str:
    """sha256 of the canonical JSON text of `body`."""
    import hashlib
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


def save_record(path: str, config: dict, body) -> dict:
    record = {
        "header": {
            "format": FORMAT_VERSION,
            "config": config,
            "hash": body_hash(body),
        },
        "body": body,
    }
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # write beside the target and rename over it, so that a reader never
    # sees a half-written record
    import tempfile
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(record, fh, sort_keys=True, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return record


def load_record(path: str, config: dict | None = None):
    with open(path) as fh:
        record = json.load(fh)
    header = record.get("header") if isinstance(record, dict) else None
    if not isinstance(header, dict):
        raise CacheError("cache record has no header")
    if header.get("format") != FORMAT_VERSION:
        raise CacheError(f"stale cache format {header.get('format')!r} "
                         f"(want {FORMAT_VERSION})")
    body = record.get("body")
    if body_hash(body) != header.get("hash"):
        raise CacheError("cache content hash mismatch; record corrupted")
    if config is not None and header.get("config") != config:
        raise CacheError("cache config mismatch")
    return body


def cache_path(cache_dir: str, kind: str, config: dict) -> str:
    tag = body_hash(config)[:16]
    return os.path.join(cache_dir, f"{kind}-{tag}.json")
