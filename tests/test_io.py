import dataclasses
import json

import numpy as np
import pytest

from tacnode.airy_operator import AiryResolvent, Resolution, build_airy_resolvent, get_resolvent
from tacnode.errors import CacheInvalidError
from tacnode.io import (
    _CACHE_HEADER,
    KernelGrid,
    Table,
    cache_resolvent,
    fmt,
    load_or_build,
    load_resolvent,
    read_csv_table,
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


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_table(Table(("x",), [], {}), "xml", tmp_path / "t.xml")


def test_cache_roundtrip_reproduces_scalars(tmp_path):
    ar = build_airy_resolvent(-0.7, RES)
    path = tmp_path / "r.txt"
    cache_resolvent(ar, path)
    loaded = load_resolvent(-0.7, RES, path)
    assert loaded.q == ar.q
    assert loaded.det == ar.det
    assert np.array_equal(loaded.r0, ar.r0)
    assert np.array_equal(loaded.qvec, ar.qvec)
    # loaded object is a working resolvent
    g = np.cos(loaded.nodes)
    residual = loaded.solve(g) - loaded.kmat @ (loaded.weights * loaded.solve(g)) - g
    assert np.max(np.abs(residual)) < 1e-12
    # every field equals a fresh build's, and the rule is the build's own object
    fresh = build_airy_resolvent(-0.7, RES)
    assert loaded.rule is fresh.rule
    for f in dataclasses.fields(AiryResolvent):
        a, b = getattr(loaded, f.name), getattr(fresh, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
    assert not loaded._system.flags.writeable


def _cache_lines(tmp_path, sigma=0.3):
    path = tmp_path / "r.txt"
    cache_resolvent(build_airy_resolvent(sigma, RES), path)
    return path, path.read_text().splitlines()


def test_cache_layout_is_pinned(tmp_path):
    _, lines = _cache_lines(tmp_path)
    m = RES.m
    assert len(lines) == 5 * m + 14
    assert lines[0] == "TACNODE-RESOLVENT v2"
    skeleton = []
    for tag in ("sigma=", "m=", "T=", "nodes:", "weights:", "det=", "r0:", "qvec:", "pvec:", "q=", "p=", "u=", "v="):
        skeleton += [tag, *["value"] * m] if tag.endswith(":") else [tag]
    # a scalar line reads "tag value"; block values are bare numbers, one a line
    assert [line.split(" ")[0] if line[0].isalpha() else "value" for line in lines[1:]] == skeleton
    assert lines[2] == f"m= {m}"


@pytest.mark.parametrize("block", ["nodes:", "weights:"])
def test_cache_rule_off_by_one_ulp_rejected(tmp_path, block):
    path, lines = _cache_lines(tmp_path)
    at = lines.index(block) + 1 + 7
    lines[at] = fmt(np.nextafter(float(lines[at]), np.inf))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheInvalidError):
        load_resolvent(0.3, RES, path)


def test_wrong_block_tag_rejected(tmp_path):
    path, lines = _cache_lines(tmp_path)
    lines[lines.index("r0:")] = "rr:"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheInvalidError):
        load_resolvent(0.3, RES, path)


def test_non_numeric_scalar_rejected(tmp_path):
    path, lines = _cache_lines(tmp_path)
    det_at = next(i for i, line in enumerate(lines) if line.startswith("det="))
    lines[det_at] = "det= not-a-number"
    path.write_text("\n".join(lines) + "\n")
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


def test_corrupted_solution_fails_residual_check(tmp_path):
    ar = build_airy_resolvent(0.3, RES)
    path = tmp_path / "r.txt"
    cache_resolvent(ar, path)
    lines = path.read_text().splitlines()
    qvec_at = lines.index("qvec:") + 1 + RES.m // 3
    lines[qvec_at] = fmt(float(lines[qvec_at]) + 1e-6)
    path.write_text("\n".join(lines) + "\n")
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
    first = load_or_build(1.3, RES)
    files = list(tmp_path.glob("resolvent_*.txt"))
    assert len(files) == 1
    second = load_or_build(1.3, RES)
    assert second.q == first.q
    # a stale file falls back to a rebuild and gets replaced
    files[0].write_text("garbage\n")
    third = load_or_build(1.3, RES)
    assert third.q == first.q
    assert get_resolvent(1.3, RES).q == first.q
