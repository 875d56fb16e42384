"""Deterministic table output and the portable resolvent cache.

All reals are rendered in scientific notation with 17 significant digits,
which round-trips float64 exactly; nothing time- or host-dependent is ever
written into a data section, so identical invocations produce byte-identical
files.  CSV cells are quoted minimally in the usual CSV style: only a cell
holding a comma, a double quote or a line break is quoted, so files of plain
cells carry no quotes at all.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .airy import airy_ai_pair
from .airy_operator import AiryResolvent, Resolution, _kernel_matrix, build_airy_resolvent, get_resolvent
from .errors import CacheInvalidError
from .quadrature import QuadratureRule

CACHE_ENV = "TACNODE_CACHE_DIR"
_CACHE_HEADER = "TACNODE-RESOLVENT v1"


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
    """Serialize a resolvent build to the portable text format."""
    lines = [
        _CACHE_HEADER,
        f"sigma= {fmt(ar.sigma)}",
        f"m= {ar.resolution.m}",
        f"T= {fmt(ar.resolution.T)}",
        "nodes:",
        *map(fmt, ar.nodes),
        "weights:",
        *map(fmt, ar.weights),
        f"det= {fmt(ar.det)}",
        "r0:",
        *map(fmt, ar.r0),
        "qvec:",
        *map(fmt, ar.qvec),
        "pvec:",
        *map(fmt, ar.pvec),
        f"q= {fmt(ar.q)}",
        f"p= {fmt(ar.p)}",
        f"u= {fmt(ar.u)}",
        f"v= {fmt(ar.v)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _take(lines: list[str], idx: int, tag: str) -> tuple[str, int]:
    if idx >= len(lines):
        raise CacheInvalidError(f"cache file truncated before {tag}")
    return lines[idx], idx + 1


def _take_scalar(lines: list[str], idx: int, tag: str) -> tuple[float, int]:
    line, idx = _take(lines, idx, tag)
    if not line.startswith(tag):
        raise CacheInvalidError(f"expected {tag!r}, found {line!r}")
    try:
        return float(line[len(tag):]), idx
    except ValueError as exc:
        raise CacheInvalidError(f"bad value for {tag!r}: {line!r}") from exc


def _take_block(lines: list[str], idx: int, tag: str, count: int) -> tuple[np.ndarray, int]:
    line, idx = _take(lines, idx, tag)
    if line != tag:
        raise CacheInvalidError(f"expected block {tag!r}, found {line!r}")
    if idx + count > len(lines):
        raise CacheInvalidError(f"cache file truncated inside {tag!r}")
    try:
        values = np.array([float(v) for v in lines[idx:idx + count]])
    except ValueError as exc:
        raise CacheInvalidError(f"bad value inside {tag!r}") from exc
    return values, idx + count


def load_resolvent(sigma: float, resolution: Resolution, path) -> AiryResolvent:
    """Load a cached resolvent, validating the header and one solve residual.

    Any mismatch with the requested ``(sigma, resolution)``, malformed
    content, or a residual above 1e-9 raises ``CacheInvalidError``; callers
    fall back to a rebuild.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CacheInvalidError(f"cannot read cache file {path}") from exc
    idx = 0
    line, idx = _take(lines, idx, "header")
    if line != _CACHE_HEADER:
        raise CacheInvalidError(f"unsupported cache header {line!r}")
    file_sigma, idx = _take_scalar(lines, idx, "sigma=")
    m_val, idx = _take_scalar(lines, idx, "m=")
    file_T, idx = _take_scalar(lines, idx, "T=")
    m = int(m_val)
    if m != resolution.m or file_T != resolution.T or file_sigma != float(sigma):
        raise CacheInvalidError(
            f"cache is for sigma={file_sigma}, m={m}, T={file_T}; "
            f"requested sigma={sigma}, m={resolution.m}, T={resolution.T}"
        )
    nodes, idx = _take_block(lines, idx, "nodes:", m)
    weights, idx = _take_block(lines, idx, "weights:", m)
    det, idx = _take_scalar(lines, idx, "det=")
    r0, idx = _take_block(lines, idx, "r0:", m)
    qvec, idx = _take_block(lines, idx, "qvec:", m)
    pvec, idx = _take_block(lines, idx, "pvec:", m)
    q, idx = _take_scalar(lines, idx, "q=")
    p, idx = _take_scalar(lines, idx, "p=")
    u, idx = _take_scalar(lines, idx, "u=")
    v, idx = _take_scalar(lines, idx, "v=")

    # reconstruct the kernel matrix and factorization on the stored grid
    import scipy.linalg

    ai, aip = airy_ai_pair(np.concatenate(([0.0], nodes)) + file_sigma)
    ai0, aip0 = float(ai[0]), float(aip[0])
    ai_nodes, aip_nodes = ai[1:], aip[1:]
    kmat = _kernel_matrix(nodes, file_sigma, ai_nodes, aip_nodes)

    probe = m // 3
    residual = qvec[probe] - kmat[probe] @ (weights * qvec) - ai_nodes[probe]
    if abs(residual) > 1e-9:
        raise CacheInvalidError(f"cached solution fails its defining equation by {residual:.3e}")

    sqrt_w = np.sqrt(weights)
    s = np.eye(m) - sqrt_w[:, None] * kmat * sqrt_w[None, :]
    lu = scipy.linalg.lu_factor(s, check_finite=False)
    rule = QuadratureRule(nodes, weights, (0.0, float(file_T)), m)
    return AiryResolvent(
        sigma=file_sigma,
        resolution=resolution,
        rule=rule,
        det=det,
        r0=r0,
        qvec=qvec,
        pvec=pvec,
        q=q,
        p=p,
        u=u,
        v=v,
        ai_nodes=ai_nodes,
        aip_nodes=aip_nodes,
        ai0=ai0,
        aip0=aip0,
        _lu=lu,
        _sqrt_w=sqrt_w,
    )


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
