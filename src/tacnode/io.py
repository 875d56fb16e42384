"""Deterministic table output and the portable resolvent cache.

All reals are rendered in scientific notation with 17 significant digits,
which round-trips float64 exactly; nothing time- or host-dependent is ever
written into a data section, so identical invocations produce byte-identical
files.  CSV cells are quoted minimally in the usual CSV style: only a cell
holding a comma, a double quote or a line break is quoted, so files of plain
cells carry no quotes at all.

The resolvent cache layout is declared once, in ``_CACHE_LAYOUT``, for both
writer and reader.  A load takes the operator part of the resolvent from the
build's own assembly, and rejects nodes or weights not bit-equal to its rule.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .airy_operator import AiryResolvent, Resolution, _operator_fields, build_airy_resolvent, get_resolvent
from .errors import CacheInvalidError

CACHE_ENV = "TACNODE_CACHE_DIR"
_CACHE_HEADER = "TACNODE-RESOLVENT v2"
# the resolvent cache file below its header line, in file order: a tag ending in "="
# is one "tag value" line, a tag ending in ":" heads a block of m values, one a line
_CACHE_LAYOUT = (
    "sigma=", "m=", "T=", "nodes:", "weights:", "det=", "r0:", "qvec:", "pvec:", "q=", "p=", "u=", "v=",
)


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

    def table(self) -> Table:
        rows = [
            (self.us[i], self.vs[j], self.values[i, j])
            for i in range(len(self.us))
            for j in range(len(self.vs))
        ]
        return Table(("u", "v", "value"), rows, self.meta)


def _cell(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (float, np.floating)):
        return fmt(x)
    return str(x)


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
        table = obj.table() if isinstance(obj, KernelGrid) else obj
        with path.open("w", encoding="utf-8", newline="") as fh:
            if banner:
                meta = " ".join(f"{k}={_cell(v)}" for k, v in sorted(table.meta.items()))
                fh.write(f"# tacnode {__version__} {meta}".rstrip() + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.header)
            writer.writerows([_cell(x) for x in row] for row in table.rows)
    elif fmt_name == "json":
        meta = dict(obj.meta)
        if banner:
            meta["generator"] = f"tacnode {__version__}"
        if isinstance(obj, KernelGrid):
            data = {
                "u": [float(x) for x in obj.us],
                "v": [float(x) for x in obj.vs],
                "values": [[float(x) for x in row] for row in obj.values],
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


def cache_resolvent(ar: AiryResolvent, path) -> None:
    """Serialize a resolvent build to the portable text format of :data:`_CACHE_LAYOUT`."""
    lines = [_CACHE_HEADER]
    for tag in _CACHE_LAYOUT:
        name = tag[:-1]
        value = getattr(ar.resolution if name in ("m", "T") else ar, name)
        if tag.endswith(":"):
            lines += [tag, *map(fmt, value)]
        else:
            lines.append(f"{tag} {value if name == 'm' else fmt(value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_resolvent(sigma: float, resolution: Resolution, path) -> AiryResolvent:
    """Load a cached resolvent: the build's operator assembly plus the solved values in the file.

    ``CacheInvalidError`` (callers then rebuild) is raised for an unreadable file, another header,
    a wrong tag, truncation or a value that does not parse; for ``sigma``, ``m`` or ``T`` other
    than requested, or nodes or weights not bit-equal to the rule's, which the loaded resolvent
    shares with builds; and for a ``qvec`` residual above 1e-9 at a probe node.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CacheInvalidError(f"cannot read cache file {path}") from exc
    if not lines or lines[0] != _CACHE_HEADER:
        raise CacheInvalidError(f"unsupported cache header {lines[0] if lines else ''!r}")
    sigma, m = float(sigma), resolution.m
    op, kmat = _operator_fields(sigma, resolution)
    w = op["rule"].weights
    # blocks compare as lists of floats: equal lists hold bit-equal values
    expected = {"sigma": sigma, "m": m, "T": resolution.T, "nodes": op["rule"].nodes.tolist(), "weights": w.tolist()}
    solved, idx = {}, 1
    for tag in _CACHE_LAYOUT:
        name, block = tag[:-1], tag.endswith(":")
        if idx >= len(lines):
            raise CacheInvalidError(f"cache file truncated before {tag!r}")
        line = lines[idx]
        if (line != tag) if block else not line.startswith(tag):
            raise CacheInvalidError(f"expected {tag!r}, found {line!r}")
        cells = lines[idx + 1:idx + 1 + m] if block else [line[len(tag):]]
        if block and len(cells) < m:
            raise CacheInvalidError(f"cache file truncated inside {tag!r}")
        idx += 1 + (m if block else 0)
        try:
            value = [float(c) for c in cells] if block else float(cells[0])
        except ValueError as exc:
            raise CacheInvalidError(f"bad value for {tag!r}") from exc
        if name not in expected:
            solved[name] = np.array(value) if block else value
        elif value != expected[name]:
            raise CacheInvalidError(f"cache {name} does not match the request sigma={sigma}, m={m}, T={resolution.T}")

    probe = m // 3
    qvec = solved["qvec"]
    residual = qvec[probe] - kmat[probe] @ (w * qvec) - op["ai_nodes"][probe]
    if abs(residual) > 1e-9:
        raise CacheInvalidError(f"cached solution fails its defining equation by {residual:.3e}")
    return AiryResolvent(**op, **solved)


def _cache_filename(sigma: float, resolution: Resolution) -> str:
    tag = f"{float(sigma).hex()}_{resolution.m}_{float(resolution.T).hex()}"
    return "resolvent_" + tag.replace("/", "_") + ".txt"


def load_or_build(sigma: float, resolution: Resolution = Resolution()) -> AiryResolvent:
    """Resolvent via the on-disk cache when ``TACNODE_CACHE_DIR`` is set."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return get_resolvent(sigma, resolution)
    path = Path(cache_dir) / _cache_filename(sigma, resolution)
    if path.exists():
        try:
            return load_resolvent(sigma, resolution, path)
        except CacheInvalidError:
            pass
    ar = build_airy_resolvent(sigma, resolution)
    path.parent.mkdir(parents=True, exist_ok=True)
    cache_resolvent(ar, path)
    return ar
