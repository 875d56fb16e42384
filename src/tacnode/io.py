"""Deterministic table output and the on-disk cache of ``tw`` scalars.

All reals are rendered in scientific notation with 17 significant digits,
which round-trips float64 exactly; nothing time- or host-dependent is ever
written into a data section, so identical invocations produce byte-identical
files.  CSV cells are quoted minimally in the usual CSV style: only a cell
holding a comma, a double quote or a line break is quoted, so files of plain
cells carry no quotes at all.  A kernel grid is written without the per-cell
route of a :class:`Table`: each axis value and each kernel value is formatted
once, by :func:`fmt`, and joined into ``u,v,value`` lines, since a float cell
never needs quoting; the bytes are those of the same cells written as a table.

A resolvent cache file (``TACNODE_CACHE_DIR``) holds what ``tacnode tw``
prints of a resolvent build, one ``tag value`` line each, under the header
``TACNODE-RESOLVENT v3``: ``sigma=``, ``m=``, ``T=``, ``det=``, ``q=``,
``p=``, ``u=``, ``v=``, then ``crc32=``, the ``zlib.crc32`` of every line
above it.  A load parses these lines and makes no Airy call and no solve.
:func:`tw_scalars` reads the valid cache file of each shift it is given.
The other shifts, all of them when the variable is unset, are built in one
batched pass, which writes each of their files as it reaches the shift.
Cache paths are plain strings: ``pathlib`` (CPython 3.10, 3.11) interns every
part of a path for good, so a ``Path`` per new shift would leak memory.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .airy_operator import Resolution, build_airy_resolvents
from .errors import CacheInvalidError

CACHE_ENV = "TACNODE_CACHE_DIR"
_CACHE_HEADER = "TACNODE-RESOLVENT v3"
# the cache file's lines between its header and its last line, "crc32= <checksum>", in file order
_CACHE_TAGS = ("sigma=", "m=", "T=", "det=", "q=", "p=", "u=", "v=")


def fmt(x: float) -> str:
    """17-significant-digit scientific rendering; parses back bit-identically."""
    return format(float(x), ".16e")


@dataclass(frozen=True)
class Table:
    """A header, rows of formatted-on-write cells, and a metadata echo."""

    header: tuple[str, ...]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KernelGrid:
    """Kernel values on a cartesian grid plus everything needed to reproduce them."""

    us: np.ndarray
    vs: np.ndarray
    values: np.ndarray
    meta: dict


def _cell(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (float, np.floating)):
        return fmt(x)
    return str(x)


def _grid_csv_lines(grid: KernelGrid) -> list[str]:
    """The CSV body of a kernel grid: one ``u,v,value`` line per cell, row-major, each axis value formatted once."""
    cells = itertools.product([fmt(u) for u in grid.us], [fmt(v) for v in grid.vs])
    values = map(fmt, grid.values.ravel().tolist())
    return [f"{u},{v},{value}\n" for (u, v), value in zip(cells, values, strict=True)]


def write_table(obj, fmt_name: str, path, banner: bool = True) -> None:
    """Write a :class:`Table` or :class:`KernelGrid` as CSV or JSON.

    CSV gets a long-format layout (row-major cells) under an optional
    ``#`` banner line; cells are quoted minimally, so a cell with a comma,
    a double quote or a line break still reads back as one cell, and float
    cells still round-trip bit-identically.  JSON mirrors the object: a
    kernel grid keeps its axes and value matrix.
    """
    path = Path(path)
    if fmt_name == "csv":
        with path.open("w", encoding="utf-8", newline="") as fh:
            if banner:
                meta = " ".join(f"{k}={_cell(v)}" for k, v in sorted(obj.meta.items()))
                fh.write(f"# tacnode {__version__} {meta}".rstrip() + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            if isinstance(obj, KernelGrid):
                writer.writerow(("u", "v", "value"))
                fh.writelines(_grid_csv_lines(obj))
            else:
                writer.writerow(obj.header)
                writer.writerows([_cell(x) for x in row] for row in obj.rows)
    elif fmt_name == "json":
        meta = dict(obj.meta)
        if banner:
            meta["generator"] = f"tacnode {__version__}"
        if isinstance(obj, KernelGrid):
            data = {
                "u": [float(x) for x in obj.us],
                "v": [float(x) for x in obj.vs],
                "values": np.asarray(obj.values, dtype=float).tolist(),
            }
        else:
            data = {"header": list(obj.header), "rows": [list(r) for r in obj.rows]}
        payload = {"meta": meta, "data": data}
        path.write_text(json.dumps(payload, sort_keys=True, indent=1, default=float) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown table format {fmt_name!r}")


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv_table(path) -> Table:
    """Parse a CSV written by :func:`write_table`; floats return bit-identical.

    The ``key=value`` tokens of the ``# tacnode <version> ...`` banner come
    back as ``meta``, each value converted like a cell (float if it parses,
    else str); a file without a banner reads back with ``meta == {}``.
    Quoted cells are unquoted, so commas, double quotes and line breaks
    inside a cell come back intact.
    """
    meta = {}
    with Path(path).open(encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            for token in first.split()[3:]:
                key, _, value = token.partition("=")
                meta[key] = _parse_cell(value)
        else:
            fh.seek(0)
        header, *lines = csv.reader(fh)
    rows = [tuple(_parse_cell(cell) for cell in line) for line in lines]
    return Table(tuple(header), rows, meta)


def cache_resolvent(ar, path) -> None:
    """Write the cache file of an :class:`~tacnode.airy_operator.AiryResolvent` build (see the module docstring)."""
    res = ar.resolution
    values = (fmt(ar.sigma), res.m, fmt(res.T), fmt(ar.det), fmt(ar.q), fmt(ar.p), fmt(ar.u), fmt(ar.v))
    text = _CACHE_HEADER + "\n" + "".join(f"{tag} {value}\n" for tag, value in zip(_CACHE_TAGS, values))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{text}crc32= {zlib.crc32(text.encode())}\n")


def load_resolvent(sigma: float, resolution: Resolution, path) -> tuple[float, float, float, float, float]:
    """``(q, p, u, v, det)`` from a cache file written by :func:`cache_resolvent`.

    ``CacheInvalidError`` (callers then rebuild) is raised for an unreadable file, another header
    (a ``v2`` file among them), a missing, extra or misordered tag line, a value that does not
    parse, ``sigma``, ``m`` or ``T`` other than requested, and a checksum that does not match the
    lines above it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CacheInvalidError(f"cannot read cache file {path}") from exc
    if not lines or lines[0] != _CACHE_HEADER:
        raise CacheInvalidError(f"unsupported cache header {lines[0] if lines else ''!r}")
    tags = (*_CACHE_TAGS, "crc32=")
    if len(lines) != 1 + len(tags):
        raise CacheInvalidError(f"cache file has {len(lines)} lines, expected {1 + len(tags)}")
    values = []
    for tag, line in zip(tags, lines[1:]):
        if not line.startswith(tag):
            raise CacheInvalidError(f"expected {tag!r}, found {line!r}")
        try:
            values.append(float(line[len(tag):]))
        except ValueError as exc:
            raise CacheInvalidError(f"bad value for {tag!r}") from exc
    file_sigma, m, T, det, q, p, u, v, crc = values
    if (file_sigma, m, T) != (float(sigma), resolution.m, resolution.T):
        raise CacheInvalidError(f"cache file is not for sigma={sigma}, m={resolution.m}, T={resolution.T}")
    if crc != zlib.crc32("".join(f"{line}\n" for line in lines[:-1]).encode()):
        raise CacheInvalidError(f"cache file {path} fails its checksum")
    return q, p, u, v, det


def _cache_filename(sigma: float, resolution: Resolution) -> str:
    tag = f"{float(sigma).hex()}_{resolution.m}_{float(resolution.T).hex()}"
    return "resolvent_" + tag.replace("/", "_") + ".txt"


def tw_scalars(sigmas, resolution: Resolution = Resolution()) -> list[tuple[float, float, float, float, float]]:
    """The ``tw`` scalars ``(q, p, u, v, det)`` at each shift of ``sigmas``, in order.

    With ``TACNODE_CACHE_DIR`` set, each valid cache file is read; every
    other shift, and every shift without the variable, is a miss.  The
    misses are built in one :func:`~tacnode.airy_operator.build_airy_resolvents`
    pass, which checks them all against ``SIGMA_MIN`` first; with the
    variable set, each miss's file is written as the pass reaches it.
    """
    sigmas = [float(s) for s in sigmas]
    cache_dir = os.environ.get(CACHE_ENV)
    paths = [os.path.join(cache_dir, _cache_filename(s, resolution)) if cache_dir else None for s in sigmas]
    rows = [_cached_scalars(s, resolution, path) for s, path in zip(sigmas, paths)]
    misses = [k for k, row in enumerate(rows) if row is None]
    if not misses:
        return rows
    built = build_airy_resolvents([sigmas[k] for k in misses], resolution)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    for k, ar in zip(misses, built):
        if cache_dir:
            cache_resolvent(ar, paths[k])
        rows[k] = (ar.q, ar.p, ar.u, ar.v, ar.det)
    return rows


def _cached_scalars(sigma: float, resolution: Resolution, path: str | None):
    """The scalars of a valid cache file at ``path``, or ``None`` for no path or a missing or invalid file."""
    if path and os.path.exists(path):
        try:
            return load_resolvent(sigma, resolution, path)
        except CacheInvalidError:
            pass
    return None
