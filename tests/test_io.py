import json
import sys
import zlib

import numpy as np
import pytest

from tacnode._version import __version__
from tacnode.airy_operator import Resolution, build_airy_resolvent, get_resolvent
from tacnode.cli import run_cli
from tacnode.errors import CacheInvalidError
from tacnode.io import (
    _CACHE_HEADER,
    KernelGrid,
    Table,
    cache_resolvent,
    fmt,
    load_resolvent,
    read_csv_table,
    tw_scalars,
    write_table,
)

RES = Resolution()


def test_seventeen_digit_roundtrip():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        assert float(fmt(x)) == x


def test_csv_write_and_parse_bit_identical(tmp_path):
    rows = [(0.1 + 0.7 * i, np.pi * i, np.exp(-i)) for i in range(5)]
    table = Table(("a", "b", "c"), rows, {"m": 80})
    path = tmp_path / "t.csv"
    write_table(table, "csv", path)
    back = read_csv_table(path)
    assert back.header == ("a", "b", "c")
    assert back.rows == rows
    assert back.meta == {"m": 80}


def test_csv_quoted_cells_roundtrip(tmp_path):
    rows = [(1.5, "a, b"), (-2.0, 'say "hi"'), (np.pi, "two\nlines"), (0.0, "plain")]
    table = Table(("x", "note, quoted"), rows, {"suite": "compat"})
    path = tmp_path / "q.csv"
    write_table(table, "csv", path)
    back = read_csv_table(path)
    assert back.header == table.header
    assert back.rows == rows
    assert back.meta == {"suite": "compat"}


def test_plain_cells_written_unquoted(tmp_path):
    path = tmp_path / "p.csv"
    write_table(Table(("a", "b"), [(1.0, "x")], {"m": 80}), "csv", path, banner=False)
    assert path.read_bytes() == b"a,b\n1.0000000000000000e+00,x\n"
    assert read_csv_table(path).meta == {}


def test_empty_table_is_header_only(tmp_path):
    path = tmp_path / "e.csv"
    write_table(Table(("x", "y"), [], {}), "csv", path, banner=False)
    assert path.read_text() == "x,y\n"


def test_json_meta_echoes_parameters(tmp_path):
    grid = KernelGrid(
        np.array([0.0, 1.0]), np.array([-1.0, 1.0]), np.zeros((2, 2)),
        {"lambda": 1.0, "Sigma": 1.0, "tau1": 0.0, "tau2": 0.0, "m": 80, "T": 16.0},
    )
    path = tmp_path / "g.json"
    write_table(grid, "json", path)
    payload = json.loads(path.read_text())
    for key in ("lambda", "Sigma", "tau1", "tau2", "m", "T"):
        assert key in payload["meta"]
    assert payload["data"]["u"] == [0.0, 1.0]
    assert np.array(payload["data"]["values"]).shape == (2, 2)


def _grid_with_edge_values():
    us = np.array([-0.0, 5e-324, -1.5])
    vs = np.array([1e308, -1e308, 0.1, -7.25e-12])
    values = np.array([
        [-0.0, 5e-324, -5e-324, 1e308],
        [-1e308, np.pi, -np.e, 0.0],
        [1.0 / 3.0, -2.5e-300, 123456789.0, -0.1],
    ])
    return KernelGrid(us, vs, values, {"lambda": 1.3, "m": 80, "T": 16.0})


def test_kernel_grid_csv_matches_float_table(tmp_path):
    grid = _grid_with_edge_values()
    rows = [(u, v, grid.values[i, j]) for i, u in enumerate(grid.us) for j, v in enumerate(grid.vs)]
    assert all(isinstance(x, np.floating) for row in rows for x in row)
    # a Table takes the per-cell route: every float cell through _cell and csv.writer
    table = Table(("u", "v", "value"), rows, grid.meta)
    for banner in (False, True):
        path = tmp_path / f"grid-{banner}.csv"
        write_table(grid, "csv", path, banner=banner)
        table_path = tmp_path / f"table-{banner}.csv"
        write_table(table, "csv", table_path, banner=banner)
        assert path.read_bytes() == table_path.read_bytes()
    back = read_csv_table(tmp_path / "grid-True.csv")
    assert back.meta == grid.meta
    got = np.array(back.rows, dtype=float)
    assert got.view(np.uint64).tolist() == np.array(rows, dtype=float).view(np.uint64).tolist()


def test_kernel_grid_json_values_bit_identical(tmp_path):
    grid = _grid_with_edge_values()
    path = tmp_path / "g.json"
    write_table(grid, "json", path)
    data = {
        "u": [float(x) for x in grid.us],
        "v": [float(x) for x in grid.vs],
        "values": [[float(x) for x in row] for row in grid.values],
    }
    meta = dict(grid.meta, generator=f"tacnode {__version__}")
    expected = json.dumps({"meta": meta, "data": data}, sort_keys=True, indent=1, default=float) + "\n"
    assert path.read_text(encoding="utf-8") == expected
    back = np.array(json.loads(path.read_text())["data"]["values"])
    assert back.view(np.uint64).tolist() == grid.values.view(np.uint64).tolist()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_table(Table(("x",), [], {}), "xml", tmp_path / "t.xml")


def test_cache_roundtrip_reproduces_scalars(tmp_path):
    ar = build_airy_resolvent(-0.7, RES)
    path = tmp_path / "r.txt"
    cache_resolvent(ar, path)
    assert load_resolvent(-0.7, RES, path) == (ar.q, ar.p, ar.u, ar.v, ar.det)


def _cache_lines(tmp_path, sigma=0.3):
    path = tmp_path / "r.txt"
    cache_resolvent(build_airy_resolvent(sigma, RES), path)
    return path, path.read_text().splitlines()


def _rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_cache_layout_is_pinned(tmp_path):
    path, lines = _cache_lines(tmp_path)
    assert lines[0] == "TACNODE-RESOLVENT v3"
    tags = ["sigma=", "m=", "T=", "det=", "q=", "p=", "u=", "v=", "crc32="]
    assert [line.split(" ")[0] for line in lines[1:]] == tags
    assert lines[2] == f"m= {RES.m}"
    # the checksum covers every line above it, header included
    text = path.read_text()
    assert int(lines[-1].split(" ")[1]) == zlib.crc32(text[: text.rindex("crc32=")].encode())
    ar = build_airy_resolvent(0.3, RES)
    assert [float(line.split(" ")[1]) for line in lines[1:-1]] == [0.3, RES.m, RES.T, ar.det, ar.q, ar.p, ar.u, ar.v]


@pytest.mark.parametrize("tag", ["det=", "q=", "p=", "u=", "v="])
def test_cache_scalar_off_by_one_ulp_rejected(tmp_path, tag):
    path, lines = _cache_lines(tmp_path)
    at = next(i for i, line in enumerate(lines) if line.startswith(tag))
    lines[at] = f"{tag} {fmt(np.nextafter(float(lines[at].split(' ')[1]), np.inf))}"
    _rewrite(path, lines)
    with pytest.raises(CacheInvalidError, match="checksum"):
        load_resolvent(0.3, RES, path)


def test_hand_edited_scalar_fails_checksum(tmp_path):
    for tag, value in (("det=", "0.5"), ("q=", "123")):
        path, lines = _cache_lines(tmp_path)
        at = next(i for i, line in enumerate(lines) if line.startswith(tag))
        lines[at] = f"{tag} {value}"
        _rewrite(path, lines)
        with pytest.raises(CacheInvalidError, match="checksum"):
            load_resolvent(0.3, RES, path)


def test_wrong_tag_rejected(tmp_path):
    path, lines = _cache_lines(tmp_path)
    lines[4], lines[5] = lines[5], lines[4]  # det= and q= swapped
    _rewrite(path, lines)
    with pytest.raises(CacheInvalidError, match="expected"):
        load_resolvent(0.3, RES, path)


def test_non_numeric_scalar_rejected(tmp_path):
    path, lines = _cache_lines(tmp_path)
    det_at = next(i for i, line in enumerate(lines) if line.startswith("det="))
    lines[det_at] = "det= not-a-number"
    _rewrite(path, lines)
    with pytest.raises(CacheInvalidError):
        load_resolvent(0.3, RES, path)


def test_truncated_cache_rejected(tmp_path):
    ar = build_airy_resolvent(0.3, RES)
    path = tmp_path / "r.txt"
    cache_resolvent(ar, path)
    content = path.read_text().splitlines()
    path.write_text("\n".join(content[: len(content) // 2]))
    with pytest.raises(CacheInvalidError):
        load_resolvent(0.3, RES, path)


def test_version_mismatch_rejected(tmp_path):
    ar = build_airy_resolvent(0.3, RES)
    path = tmp_path / "r.txt"
    cache_resolvent(ar, path)
    content = path.read_text().replace(_CACHE_HEADER, "TACNODE-RESOLVENT v1", 1)
    path.write_text(content)
    with pytest.raises(CacheInvalidError):
        load_resolvent(0.3, RES, path)


def test_parameter_mismatch_rejected(tmp_path):
    ar = build_airy_resolvent(0.3, RES)
    path = tmp_path / "r.txt"
    cache_resolvent(ar, path)
    with pytest.raises(CacheInvalidError):
        load_resolvent(0.4, RES, path)
    with pytest.raises(CacheInvalidError):
        load_resolvent(0.3, Resolution(m=60), path)


def test_cache_dir_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("TACNODE_CACHE_DIR", str(tmp_path))
    (first,) = tw_scalars([1.3], RES)
    files = list(tmp_path.glob("resolvent_*.txt"))
    assert len(files) == 1
    (second,) = tw_scalars([1.3], RES)
    assert second == first
    # a stale file falls back to a rebuild and gets replaced
    files[0].write_text("garbage\n")
    (third,) = tw_scalars([1.3], RES)
    assert third == first
    ar = get_resolvent(1.3, RES)
    assert (ar.q, ar.p, ar.u, ar.v, ar.det) == first


def _v2_lines(sigma):
    return ["TACNODE-RESOLVENT v2", f"sigma= {fmt(sigma)}", f"m= {RES.m}", "T= 1.6000000000000000e+01", "nodes:"]


def _tampered_lines(written):
    return [f"det= {fmt(0.5)}" if line.startswith("det=") else line for line in written.splitlines()]


def test_v2_and_tampered_files_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("TACNODE_CACHE_DIR", str(tmp_path))
    expected = tw_scalars([0.3], RES)
    (path,) = tmp_path.glob("resolvent_*.txt")
    written = path.read_text()
    for stale in (_v2_lines(0.3), _tampered_lines(written)):
        _rewrite(path, stale)
        assert tw_scalars([0.3], RES) == expected
        assert path.read_text() == written


@pytest.mark.parametrize("grid", [np.linspace(7.0, 8.0, 11), [0.3]], ids=["airy-seam", "one-shift"])
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_tw_rows_equal_single_builds(tmp_path, monkeypatch, grid, cached):
    if cached:
        monkeypatch.setenv("TACNODE_CACHE_DIR", str(tmp_path / "cache"))
    else:
        monkeypatch.delenv("TACNODE_CACHE_DIR", raising=False)
    singles = [build_airy_resolvent(s, RES) for s in grid]
    expected = np.array([(ar.q, ar.p, ar.u, ar.v, ar.det) for ar in singles])
    for _ in range(1 + cached):  # with the cache: the writing pass, then the reading one
        rows = np.array(tw_scalars(grid, RES))
        assert rows.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_tw_reads_the_cache_on_its_second_pass(tmp_path, monkeypatch, count_calls):
    monkeypatch.setenv("TACNODE_CACHE_DIR", str(tmp_path / "cache"))
    builds = count_calls("build_airy_resolvents")
    airy = count_calls("airy_ai_pair")
    solves = []
    solve = np.linalg.solve

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    counts = []
    for out in outs:
        assert run_cli(["tw", "--sigma-grid", "8.1:13.9:7", "--out", str(out)]) == 0
        counts.append(([len(args[0]) for args in builds], len(airy), len(solves)))
        for calls in (builds, airy, solves):
            calls.clear()
    assert counts[0] == ([7], 1, 7)  # one pass on all 7 shifts: one Airy call, one solve per shift
    assert counts[1] == ([], 0, 0)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_mixed_cache_builds_only_the_misses_in_one_pass(tmp_path, monkeypatch, count_calls):
    plain, mixed = tmp_path / "plain.csv", tmp_path / "mixed.csv"
    argv = ["tw", "--sigma-grid", "8:14:7", "--out"]
    monkeypatch.delenv("TACNODE_CACHE_DIR", raising=False)
    assert run_cli(argv + [str(plain)]) == 0
    # a cold cache of the whole grid, the files that the mixed run must end up with
    monkeypatch.setenv("TACNODE_CACHE_DIR", str(tmp_path / "cold"))
    assert run_cli(argv + [str(tmp_path / "cold.csv")]) == 0
    cold = {path.name: path.read_bytes() for path in (tmp_path / "cold").iterdir()}
    # a cache of every other shift: 8 and 14 valid, 10 tampered, 12 in the v2 layout; 9, 11 and 13 missing
    cache = tmp_path / "mixed"
    monkeypatch.setenv("TACNODE_CACHE_DIR", str(cache))
    assert run_cli(["tw", "--sigma-grid", "8:14:4", "--out", str(tmp_path / "warm.csv")]) == 0
    by_shift = {float.fromhex(path.name.split("_")[1]): path for path in cache.iterdir()}
    _rewrite(by_shift[10.0], _tampered_lines(by_shift[10.0].read_text()))
    _rewrite(by_shift[12.0], _v2_lines(12.0))
    builds = count_calls("build_airy_resolvents")
    assert run_cli(argv + [str(mixed)]) == 0
    assert [list(args[0]) for args in builds] == [[9.0, 10.0, 11.0, 12.0, 13.0]]
    assert mixed.read_bytes() == plain.read_bytes()
    assert {path.name: path.read_bytes() for path in cache.iterdir()} == cold


def test_cache_paths_intern_no_strings(tmp_path, monkeypatch):
    # pathlib interns every part of a path it builds, so Path cache names would leak one entry per shift
    monkeypatch.setenv("TACNODE_CACHE_DIR", str(tmp_path / "cache"))
    interned = []
    intern = sys.intern

    def counted(s):
        interned.append(s)
        return intern(s)

    monkeypatch.setattr(sys, "intern", counted)
    written = tw_scalars((8.25, 9.5), RES)  # builds and writes into a new directory
    assert tw_scalars((8.25, 9.5), RES) == written  # reads back
    monkeypatch.undo()
    assert interned == []
    assert len(list((tmp_path / "cache").glob("resolvent_*.txt"))) == 2
