"""The one disk primitive under every persistent layer.

* :func:`atomic_write` puts a whole file in place at once: the bytes go
  to a unique temporary name beside the target, which is then renamed
  over it, so a reader sees the old file or the new one, never part of
  one.  On failure the temporary file is removed and the error
  re-raised.  The service's ``DiskBackend`` writes job records with it.
* :class:`ContentStore` is a content-addressed map: a dict in memory
  over an optional disk layer of ``<dir>/<digest[:2]>/<digest>.pkl``
  files, each holding the pickled ``(key, value)`` pair.  It is a cache,
  so its disk layer never fails a run: an entry that does not unpickle,
  names another key or holds a value of the wrong type is unlinked and
  read as a miss, and a write that fails costs only the write.
  ``StageStore`` holds one per stage; ``WarmStateStore`` is one.  Keys
  carry their own version prefix, so a layout change is a key change.

Trust boundary: a store unpickles whatever it finds under its
directory, and unpickling runs code.  A cache directory is trusted
local state; never point one at a shared or downloaded directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import threading
import uuid
from pathlib import Path
from typing import Dict, Optional

__all__ = ["ContentStore", "atomic_write"]


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` by one rename (see the module doc)."""
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


class ContentStore:
    """``key → value`` in memory, over an optional disk layer.

    Every value is a ``value_type``.  The entry map and the ``hits``,
    ``misses`` and ``stores`` counters change under one lock, since one
    store may serve several threads (the experiment service runs jobs on
    its job worker thread while request threads read the counters).
    Pickling drops the lock, so a copy shipped to a pool worker gets its
    own.
    """

    def __init__(
        self, value_type: type, cache_dir: Optional[os.PathLike] = None
    ):
        self.value_type = value_type
        self.cache_dir = cache_dir
        self._memory: Dict[str, object] = {}
        self.hits = self.misses = self.stores = 0
        self._lock = threading.RLock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def cache_dir(self) -> Optional[Path]:
        """The disk layer's directory, or ``None`` for memory only."""
        return self._cache_dir

    @cache_dir.setter
    def cache_dir(self, cache_dir: Optional[os.PathLike]) -> None:
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        # Entry paths are joined onto this string on every disk lookup,
        # where building pathlib objects took several times as long.
        self._root = (
            None if cache_dir is None else os.fspath(self._cache_dir) + os.sep
        )

    def lookup(self, key: str) -> Optional[object]:
        """The value stored under ``key``, or ``None`` (a miss)."""
        with self._lock:
            value = self._memory.get(key)
            if value is None:
                value = self._load(key)
                if value is not None:
                    self._memory[key] = value
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def store(self, key: str, value: object) -> None:
        """Publish a freshly computed value."""
        with self._lock:
            self._memory[key] = value
            self.stores += 1
        self._save(key, value)

    def counts(self) -> Dict[str, int]:
        """The hit, miss and store counters (a copy)."""
        with self._lock:
            return {
                "hits": self.hits, "misses": self.misses, "stores": self.stores
            }

    def clear(self) -> None:
        """Drop every entry, in memory and on disk, and every temporary
        file an interrupted write left behind."""
        with self._lock:
            self._memory.clear()
        if self.cache_dir is None:
            return
        for pattern in ("*/*.pkl", "*/*.tmp.*"):
            for path in self.cache_dir.glob(pattern):
                with contextlib.suppress(OSError):
                    path.unlink()

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return f"{self._root}{digest[:2]}{os.sep}{digest}.pkl"

    def _load(self, key: str) -> Optional[object]:
        if self._root is None:
            return None
        path = self._path(key)
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        try:
            with handle:
                stored_key, value = pickle.load(handle)
            if stored_key != key or not isinstance(value, self.value_type):
                raise ValueError("foreign or misplaced entry")
            return value
        except Exception:
            # Garbage, truncated, foreign or misplaced: disk rot must
            # never fail a run.  Drop the file and recompute.
            with contextlib.suppress(OSError):
                os.unlink(path)
            return None

    def _save(self, key: str, value: object) -> None:
        if self._root is None:
            return
        path = Path(self._path(key))
        data = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)
        except OSError:
            pass  # best effort: the value is still served from memory
