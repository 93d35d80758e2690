"""Lightweight array / state-dict persistence on top of ``numpy.savez``.

Model parameters and experiment result grids are persisted as compressed
``.npz`` archives of flat ``name -> array`` mappings.  JSON-friendly
metadata can ride along under a reserved key.

Writes are atomic (temp file + ``os.replace``), so concurrent writers —
e.g. engine worker processes checkpointing trained weights into a shared
cache directory — never leave a half-written archive behind.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

_METADATA_KEY = "__repro_metadata__"


def atomic_write(path: Path, data: str | bytes, *, exclusive: bool = False) -> bool:
    """Write ``data`` to ``path`` so no reader ever sees a partial file.

    The bytes go to a hidden ``.<name>.<pid>.<thread>.tmp`` sibling first,
    then move into place with :func:`os.replace` — or, with ``exclusive``,
    are hard-linked into place, the portable full-content
    ``O_CREAT|O_EXCL``: returns ``False`` (writing nothing) when ``path``
    already exists.  The temp name is unique per process *and* thread, so
    concurrent writers of one path in one process (a heartbeat thread
    refreshing a lease beside a claim) never rename or unlink each
    other's temp file; the ``.tmp`` suffix is what ``cache gc`` sweeps
    after a killed writer.  Strings are written as UTF-8.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        if not exclusive:
            os.replace(tmp, path)
            return True
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        return True
    finally:
        tmp.unlink(missing_ok=True)


def save_npz(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    metadata: dict | None = None,
) -> Path:
    """Atomically save ``arrays`` (plus optional JSON-serialisable ``metadata``).

    Returns the path written.  Parent directories are created on demand.
    The archive appears under its final name only once fully written, so
    readers racing a writer see either the old file or the new one, never
    a torn archive.
    """
    path = Path(path)
    if path.suffix != ".npz":
        # numpy appends ".npz" to names missing the suffix, which would
        # break the temp-file rename below; normalise up front instead.
        path = path.with_name(path.name + ".npz")
    if _METADATA_KEY in arrays:
        raise ValueError(f"array name {_METADATA_KEY!r} is reserved")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(arrays)
    if metadata is not None:
        encoded = json.dumps(metadata, sort_keys=True)
        payload[_METADATA_KEY] = np.frombuffer(encoded.encode("utf-8"), dtype=np.uint8)
    # Leading dot: temp files must never match the final-archive naming
    # scheme, or directory scans (e.g. the engine's cache maintenance)
    # would count — and could delete — an archive mid-write.
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
    try:
        np.savez_compressed(tmp, **payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_npz(path: str | Path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Load arrays and metadata previously written by :func:`save_npz`."""
    with np.load(Path(path)) as archive:
        arrays = {name: archive[name] for name in archive.files if name != _METADATA_KEY}
        metadata = None
        if _METADATA_KEY in archive.files:
            raw = archive[_METADATA_KEY].tobytes().decode("utf-8")
            metadata = json.loads(raw)
    return arrays, metadata


def load_npz_metadata(path: str | Path) -> dict | None:
    """Load *only* the metadata of an archive written by :func:`save_npz`.

    ``np.load`` maps npz members lazily, so this decompresses just the
    metadata record — the bulk arrays are never touched.  Directory-wide
    scans (weight-cache neighbour index, GC ancestor tracking) rely on
    this staying cheap for archives holding megabytes of parameters.
    Returns ``None`` when the archive carries no metadata.
    """
    with np.load(Path(path)) as archive:
        if _METADATA_KEY not in archive.files:
            return None
        raw = archive[_METADATA_KEY].tobytes().decode("utf-8")
    return json.loads(raw)
