"""Versioned on-disk cache of coinvariant tables.

One JSON document per group, holding the format version, the group's
code, field and order, and per degree the recorded layout of its
coinvariant table (derivative multi-indices and standard monomials).
Absent or version-mismatched files are regenerated.  The group itself is
rebuilt on every load, and so are the tables' pairing inverses, block by
block from the layout as in a cold build.  The layout is a hint, not a
result: it lets the tables skip their pivot searches, every exact
certification still runs on it, and a layout that does not fit is
replaced by a fresh build.  Only this module and ``coinvariants`` read
the layout; the Lie side builds its tables itself
(``lie_bridge.build_lie``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .coinvariants import CoinvariantBasis
from .groups import ReflectionGroup, build_group
from .poly import unpack

CACHE_VERSION = 5

DEFAULT_ENV = "COXCOV_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(DEFAULT_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "coxcov"


def cache_path(cache_dir: Path, code: str) -> Path:
    safe = code.replace("(", "_").replace(")", "")
    return Path(cache_dir) / f"group_{safe}.json"


def save_group(cache_dir: Path, group: ReflectionGroup,
               cb: CoinvariantBasis) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": CACHE_VERSION,
        "code": group.code,
        "field": group.field.name,
        "order": group.order,
        "tables": {str(d): {"indices": [list(a) for a in t.indices],
                            "monomials": [list(unpack(m, group.rank))
                                          for m in t.monos]}
                   for d, t in cb.tables.items()},
    }
    path = cache_path(cache_dir, group.code)
    # write beside the target, then rename over it: a reader sees the old
    # file or the new one, never a partial write
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _load_layout(cache_dir: Path, code: str):
    """The recorded {degree: (indices, monomials)} of the group's cache
    file when it is present and of the current version, else None.  Never
    writes a file."""
    try:
        doc = json.loads(cache_path(Path(cache_dir), code).read_text())
        if doc.get("version") != CACHE_VERSION:
            return None
        return {int(d): ([tuple(a) for a in t["indices"]],
                         [tuple(m) for m in t["monomials"]])
                for d, t in doc["tables"].items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def load_stack(cache_dir: Path, code: str, allow_long=False):
    """(group, coinvariant basis) from cache when fresh, else rebuilt (and
    the cache file rewritten).  Returns (group, cb, from_cache)."""
    group = build_group(code, allow_long=allow_long)
    cb = CoinvariantBasis(group, precomputed=_load_layout(cache_dir, code))
    if not cb.from_layout:
        save_group(Path(cache_dir), group, cb)
    return group, cb, cb.from_layout


def inspect_cache(cache_dir: Path):
    cache_dir = Path(cache_dir)
    out = []
    if not cache_dir.exists():
        return out
    for p in sorted(cache_dir.glob("group_*.json")):
        try:
            doc = json.loads(p.read_text())
            out.append({"file": p.name, "code": doc.get("code"),
                        "version": doc.get("version"),
                        "order": doc.get("order"),
                        "bytes": p.stat().st_size})
        except (ValueError, OSError, AttributeError):     # or not an object
            out.append({"file": p.name, "code": None, "version": None,
                        "order": None, "bytes": p.stat().st_size})
    return out


def purge_cache(cache_dir: Path, code: str | None = None) -> int:
    cache_dir = Path(cache_dir)
    if not cache_dir.exists():
        return 0
    n = 0
    for p in sorted(cache_dir.glob("group_*.json")):
        if code is None or p == cache_path(cache_dir, code):
            p.unlink()
            n += 1
    return n
