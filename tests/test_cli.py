"""Scenario CLI: config validation, artifact writing, determinism, sweeps."""
import ast
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from poismech import bracket, cli, generators, groupoid, kappa, minkowski2d, su2
from poismech import model as model_module
from poismech.cli import MODELS, load_config, main, validate_config
from poismech.errors import ConfigError, ContractViolation
from poismech.model import CERT_POINTS, INT, ArtifactData, CertCheck
from poismech.su2 import LOG_SQRT_DBL_MAX

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))

SU2_CFG = {
    "model": "su2",
    "params": {"epsilon": 0.2, "t_end": 0.2, "step": 1e-2},
    "outputs": ["trajectory"],
    "seed": 3,
}

MINK_CFG = {
    "model": "minkowski2d",
    "params": {"epsilon": 0.2, "n_samples": 21},
    "outputs": ["trajectory", "scattering", "projection"],
    "seed": 0,
}


def write_cfg(tmp_path, cfg, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def collect_files(out_dir):
    return sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())


# --- validation ------------------------------------------------------------

def test_unknown_model_rejected():
    with pytest.raises(ConfigError, match="model"):
        validate_config({"model": "heisenberg", "params": {"epsilon": 0.1}})
    with pytest.raises(ConfigError, match="model"):
        validate_config({"model": ["su2"], "params": {"epsilon": 0.1}})


def test_missing_required_parameter_names_field():
    with pytest.raises(ConfigError, match=r"params\.epsilon"):
        validate_config({"model": "su2", "params": {}})


def test_unknown_parameter_names_field():
    with pytest.raises(ConfigError, match=r"params\.alpha"):
        validate_config({"model": "su2", "params": {"epsilon": 0.2, "alpha": 1.0}})


def test_wrong_parameter_type_names_field():
    with pytest.raises(ConfigError, match=r"params\.n_samples"):
        validate_config({"model": "minkowski2d",
                         "params": {"epsilon": 0.2, "n_samples": 2.5}})
    with pytest.raises(ConfigError, match=r"params\.mass"):
        validate_config({"model": "minkowski2d",
                         "params": {"epsilon": 0.2, "mass": "heavy"}})


@pytest.mark.parametrize("epsilon", [0.5, -0.5])
def test_kappa_momenta_past_projection_pole_rejected(epsilon):
    """sqrt(m^2 + p^2) <= |eps| p^2 / 2 puts a projection past its pole:
    the right one for eps > 0, the left one for eps < 0."""
    with pytest.raises(ConfigError, match=r"params\.p_max"):
        validate_config({"model": "kappa", "params": {"epsilon": epsilon, "p_max": 5.0}})
    with pytest.raises(ConfigError, match=r"params\.p\b"):
        validate_config({"model": "kappa", "params": {"epsilon": epsilon, "p": 5.0}})
    validate_config({"model": "kappa", "params": {"epsilon": epsilon, "p": 2.0, "p_max": 2.0,
                                                  "p_min": 0.2}})


@pytest.mark.parametrize("params, field", [
    ({"mass": 1.0e4}, "params.mass"),
    ({"mass": 1.0e200}, "params.mass"),
    ({"p_max": 7.2e3}, "params.p_max"),
    ({"p": 7.2e3, "p_max": 5.0}, "params.p"),
], ids=["mass_1e4", "mass_1e200", "p_max", "p"])
def test_kappa_projection_flow_overflow_rejected(params, field):
    """The projections scale the shell by exp(-+(eps/2) p0), p0 = sqrt(mass^2
    + p^2): past log(DBL_MAX) in the exponent (720 here, or 1000 and more)
    exp overflows, and past DBL_MAX so does mass^2 + p^2 (mass 1e200).  The
    larger of mass and momentum is named."""
    with pytest.raises(ConfigError, match=rf"{field}\b.*overflows"):
        validate_config({"model": "kappa", "params": {"epsilon": 0.2, **params}})


def test_kappa_config_just_inside_the_overflow_bound_runs(tmp_path):
    """An exponent |eps| p0 / 2 just inside log(DBL_MAX), at epsilon 0.2 and
    p_max 2, runs at the default t_span with finite, positive speeds."""
    exponent = 0.995 * math.log(sys.float_info.max)
    mass = math.sqrt((exponent / 0.1) ** 2 - 2.0**2)
    cfg = write_cfg(tmp_path, {"model": "kappa", "params": {"epsilon": 0.2, "mass": mass},
                               "outputs": ["trajectory", "projection", "profile"]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(out)]) == 0
    profile = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(profile)) and np.all(profile > 0)


@pytest.mark.parametrize("epsilon, mass", [(1.0, 720.0), (-1.0, 1000.0)])
def test_kappa_runs_past_the_old_squared_speed_bound(epsilon, mass, tmp_path):
    """Exponents 360 and -500, past the log(DBL_MAX) / 2 that squared speeds
    once needed, run all four outputs to finite values under warnings as
    errors, and the certificate PASSes."""
    outputs = ["trajectory", "projection", "profile", "certificate"]
    cfg = write_cfg(tmp_path, {"model": "kappa", "params": {"epsilon": epsilon, "mass": mass},
                               "outputs": outputs})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    for name in outputs:
        rows = json.loads((out / f"{name}.json").read_text())["rows"]
        assert all(math.isfinite(v) for row in rows for v in row if isinstance(v, float)), name


def test_kappa_exponent_edge_names_the_mass_unless_a_smaller_t_span_fits():
    """At epsilon 1 the coordinates grow like exp(p0 / 2) and the chords
    shrink like exp(-p0 / 2).  At mass 1414 (exponent 707) t_span must lie
    in [1.24, 2.02]: the default 3 names params.t_span, and 2 fits.  From
    mass 1415 no t_span fits, and from 1420 exp itself overflows: the mass
    is named at any t_span, with no warning."""
    def config(**params):
        return validate_config({"model": "kappa", "params": {"epsilon": 1.0, **params}})

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"params\.t_span\b.*t_span <= 2\.01"):
            config(mass=1414.0)
        config(mass=1414.0, t_span=2.0)
        for mass in (1415.0, 1416.0, 1418.0, 1420.0, 1.0e5):
            for t_span in (3.0, 1.0, 1e-3):
                with pytest.raises(ConfigError, match=r"params\.mass\b"):
                    config(mass=mass, t_span=t_span)


def test_kappa_subnormal_smallest_momentum_names_its_field():
    """A smallest momentum of 1e-320 makes its chord's speed subnormal at
    any t_span, so no t_span fits; the momentum is named, not the mass."""
    with pytest.raises(ConfigError, match=r"params\.p_min\b.*no t_span fits"):
        validate_config({"model": "kappa", "params": {"epsilon": 0.5, "p": 1e-320, "p_min": 1e-320}})


def test_unknown_output_and_duplicates_rejected():
    with pytest.raises(ConfigError, match=r"outputs\[1\]"):
        validate_config({"model": "su2", "params": {"epsilon": 0.2},
                         "outputs": ["trajectory", "profile"]})
    with pytest.raises(ConfigError, match=r"outputs\[1\]"):
        validate_config({"model": "su2", "params": {"epsilon": 0.2},
                         "outputs": ["trajectory", "trajectory"]})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="grid"):
        validate_config({"model": "su2", "params": {"epsilon": 0.2}, "grid": 4})


def test_invalid_yaml_exits_with_usage_error(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("model: [unclosed\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "model: [unclosed\n",  # a flow sequence that never closes
    "model: su2\nparams:\n\tepsilon: 0.2\n",  # a tab indent
])
def test_malformed_yaml_is_a_config_error_naming_the_path(tmp_path, text):
    bad = tmp_path / "broken.yaml"
    bad.write_text(text)
    with pytest.raises(ConfigError, match="not parseable") as info:
        load_config(bad)
    assert info.value.path == str(bad)


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "epsilon", "--values", "0.1"]])
def test_config_that_is_not_utf8_exits_with_usage_error(tmp_path, capsys, command):
    """A byte that does not decode is a config error naming the file, not a
    traceback from the decoder."""
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"model: su2\n\xff\n")
    argv = [command[0], str(bad), *command[1:], "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"config error: {bad}: not parseable: 'utf-8' codec can't decode")
    assert not (tmp_path / "out").exists()


def _reference_load(path):
    """PyYAML's pure-Python safe loader, then the same validation."""
    text = Path(path).read_text(encoding="utf-8")
    return validate_config(yaml.load(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_parse_equal_under_both_yaml_parsers(path):
    assert load_config(path) == _reference_load(path)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="libyaml is not installed")
def test_load_config_parses_with_libyaml(monkeypatch):
    """Where libyaml is installed, configs go through its C parser."""
    built = []
    init = yaml.CSafeLoader.__init__

    def spy(self, stream):
        built.append(stream)
        init(self, stream)

    monkeypatch.setattr(yaml.CSafeLoader, "__init__", spy)
    load_config(CONFIGS[0])
    assert len(built) == 1


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": "x"}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "params.epsilon" in out


# --- run -------------------------------------------------------------------

def test_run_writes_manifest_covering_every_file(tmp_path):
    cfg = write_cfg(tmp_path, SU2_CFG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = collect_files(out)
    assert manifest["files"] == on_disk
    assert "trajectory" in manifest["artifacts"]
    assert manifest["certificates_passed"] is True
    summary = manifest["artifacts"]["trajectory"]["summary"]
    assert summary["det_residual"] < 1e-8


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, MINK_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b)]) == 0
    files_a, files_b = collect_files(out_a), collect_files(out_b)
    assert files_a == files_b and files_a
    for rel in files_a:  # manifest.json included: it records no paths
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_csv_artifacts_keep_full_precision(tmp_path):
    cfg = write_cfg(tmp_path, SU2_CFG)
    out = tmp_path / "out"
    main(["run", str(cfg), "--out", str(out)])
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t" and "a_re" in header
    row = lines[1].split(",")
    assert len(row) == len(header)
    # 17 significant digits survive a float round-trip exactly
    val = float(row[header.index("a_re")])
    assert format(val, ".17g") == row[header.index("a_re")]


def test_json_format(tmp_path):
    cfg = dict(SU2_CFG)
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "trajectory.json").read_text())
    assert set(data) == {"columns", "rows", "summary"}
    assert len(data["rows"][0]) == len(data["columns"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_infinite_cell_is_an_error_in_both_formats(tmp_path, capsys, monkeypatch, fmt):
    """An artifact whose float column or summary holds an infinity, which
    neither format can carry (CSV's summary goes into the JSON manifest),
    makes the run exit 1 naming the artifact, and no file is written.  An
    infinity in a later float column, or in a row past the first chunk the
    writers render, is caught the same way."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": {"epsilon": 0.2},
                               "outputs": ["scattering"]})
    for where, data in [
        ("cell", ArtifactData("scattering", {"p": [0.0, 1.0], "q_plus": [1.0, math.inf]}, {})),
        ("summary", ArtifactData("scattering", {"p": [0.0, 1.0]}, {"fit": {"slope": math.inf}})),
    ]:
        monkeypatch.setitem(MODELS["minkowski2d"].artifacts, "scattering", lambda p: data)
        out = tmp_path / where
        rc = main(["run", str(cfg), "--out", str(out), "--format", fmt])
        assert rc == 1
        assert capsys.readouterr().out.startswith("error: scattering:")
        assert collect_files(out) == []

    probe = tmp_path / "probe"
    probe.mkdir()
    n = cli._CHUNK_ROWS + 2
    late = np.zeros(n)
    late[-1] = math.inf
    for columns, summary in [({"k": [1, 2], "a": [1.0, 2.0], "b": [0.5, -math.inf]}, {}),
                             ({"k": list(range(n)), "late": late}, {}),
                             ({"k": ["x"] * n, "late": np.zeros(n)}, {"x": [0.0, -math.inf]})]:
        with pytest.raises(ContractViolation, match="^probe: ") as raised:
            cli.write_artifact(ArtifactData("probe", columns, summary), probe, fmt)
        assert collect_files(probe) == []
        if fmt == "json" or summary:  # the stdlib encoder's text
            assert "Out of range float values are not JSON compliant: " in str(raised.value)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_first_infinity_in_row_order_is_the_one_reported(tmp_path, fmt):
    """The row-by-row reference meets the infinity of the earliest row first,
    whatever its column, and the error quotes that one."""
    data = ArtifactData("probe", {"a": [0.0, -math.inf], "s": ["x", -math.inf],
                                  "b": [math.inf, 0.0]}, {})
    with pytest.raises(ContractViolation) as raised:
        cli.write_artifact(data, tmp_path, fmt)
    with pytest.raises((ContractViolation, ValueError)) as reference:
        _ref_text(data, fmt)
    assert str(raised.value) == ("probe: " if fmt == "json" else "") + str(reference.value)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nan_cell_is_written(tmp_path, fmt):
    """NaN stays a value: nan in CSV, null in JSON."""
    data = ArtifactData("probe", {"a": [1.0], "b": [math.nan]}, {})
    written = cli.write_artifact(data, tmp_path, fmt)
    text = (tmp_path / written[0]).read_text()
    if fmt == "csv":
        assert text == "a,b\n1,nan\n"
    else:
        assert json.loads(text)["rows"] == [[1.0, None]]


def test_columns_must_share_one_length():
    with pytest.raises(ContractViolation, match="probe: columns differ in length"):
        ArtifactData("probe", {"a": np.zeros(3), "b": ["x", "y"]}, {})
    with pytest.raises(ContractViolation, match="1-D float64"):
        ArtifactData("probe", {"a": np.zeros((3, 1))}, {})
    with pytest.raises(ContractViolation, match="1-D float64"):
        ArtifactData("probe", {"a": np.arange(3)}, {})


# --- writers against the per-cell reference ----------------------------------

def _ref_cell(name, value):
    """One CSV cell as the row-wise writer formatted it."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        raise ContractViolation(f"{name}: infinite value {value}; CSV, like JSON, has no infinity")
    return format(value, ".17g")


def _ref_py(obj):
    """numpy scalars and arrays to plain python, NaN to None, value by value."""
    if isinstance(obj, dict):
        return {str(k): _ref_py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_ref_py(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return None if math.isnan(f) else f
    return obj


def _ref_text(data, fmt):
    """The row-wise writer: every cell formatted on its own."""
    rows = list(zip(*data.columns.values()))
    if fmt == "csv":
        lines = [",".join(data.columns)]
        lines.extend(",".join(_ref_cell(data.name, c) for c in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload = {"columns": list(data.columns), "rows": [list(r) for r in rows],
               "summary": data.summary}
    return json.dumps(_ref_py(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _written_text(data, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        (name,) = cli.write_artifact(data, Path(tmp), fmt)
        return (Path(tmp) / name).read_text(encoding="utf-8")


_EDGE_FLOATS = [math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7e308, -1.7e308, sys.float_info.max,
                0.1, 1 / 3, 2 / 3, 0.99999999999999989, 9.9999999999999992e22, 1e23,
                9007199254740993.0, 123456789.12345678, -1.5e-7, 1e16, 1e17]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_infinity=False))
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"),
                max_size=6)


# row counts on both sides of the writers' chunk boundaries
_CHUNK = cli._CHUNK_ROWS
_ROW_COUNTS = st.one_of(st.integers(0, 8),
                        st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]))


@st.composite
def _columnar_artifacts(draw):
    n = draw(_ROW_COUNTS)
    kinds = draw(st.lists(st.sampled_from(["float", "int", "bool", "str", "int_nan", "str_nan"]),
                          min_size=1, max_size=6))
    columns = {}
    for i, kind in enumerate(kinds):
        if kind == "float":
            values = _FLOATS
        else:
            base = {"int": st.integers(-2**70, 2**70), "bool": st.booleans(), "str": _TEXT,
                    "int_nan": st.integers(-10**6, 10**6), "str_nan": _TEXT}[kind]
            values = base if not kind.endswith("_nan") else st.one_of(base, st.just(math.nan))
        # a long column repeats a drawn run of up to 9 values from its own
        # drawn offset, so any value can land on either side of a boundary
        run = draw(st.lists(values, min_size=min(n, 1), max_size=min(n, 9)))
        shift = draw(st.integers(0, max(n - 1, 0)))
        col = [run[(r + shift) % len(run)] for r in range(n)]
        columns[f"{kind}{i}"] = np.array(col, dtype=np.float64) if kind == "float" else col
    summary = {"x": np.float64(draw(_FLOATS)), "n": draw(st.integers()), "ok": np.bool_(True),
               "words": draw(st.lists(_TEXT, max_size=2))}
    return ArtifactData("probe", columns, summary)


@settings(max_examples=150, deadline=None)
@given(_columnar_artifacts(), st.sampled_from(["csv", "json"]))
def test_columnar_writers_match_the_per_cell_reference(data, fmt):
    assert _written_text(data, fmt) == _ref_text(data, fmt)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), _FLOATS, st.text(max_size=6),
    _FLOATS.map(np.float64), st.floats(width=32, allow_infinity=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.sampled_from([math.inf, -math.inf]) | st.just(np.float64(-math.inf)),
)
_JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3))
_MANIFEST_LIKE = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.lists(_FLOATS, max_size=3).map(np.array),
                           st.dictionaries(_JSON_KEYS, kids, max_size=4)),
    max_leaves=24,
)


def _text_or_error(render):
    try:
        return render()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(_MANIFEST_LIKE)
def test_json_renderer_matches_the_stdlib_layout(obj):
    """The writers' renderer gives the text of the stdlib encoder at
    ``sort_keys=True, indent=2`` on manifest-like values (non-ASCII and
    control characters, empty containers, numpy scalars, ints past 2^63 and
    edge floats included), and an infinity anywhere raises its message."""
    expected = _text_or_error(lambda: json.dumps(_ref_py(obj), sort_keys=True, indent=2,
                                           allow_nan=False) + "\n")
    assert _text_or_error(lambda: cli._json_value(obj) + "\n") == expected


@pytest.fixture(scope="module")
def shipped_artifacts():
    """Every artifact run_scenario builds for the shipped configs."""
    built = []
    for path in CONFIGS:
        config = load_config(path)
        built += [cli.build_artifact(config, name) for name in config.outputs]
    return built


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_shipped_artifacts_match_the_per_cell_reference(shipped_artifacts, fmt):
    assert {"certificate", "trajectory", "projection", "profile", "scattering"} == {
        a.name for a in shipped_artifacts}
    for data in shipped_artifacts:
        assert _written_text(data, fmt) == _ref_text(data, fmt), data.name


def test_manifest_lists_stray_files_in_nested_directories(tmp_path):
    """A file the manifest does not list, at any depth, is named in
    ``unmanaged_files`` by its path under the output directory; a directory
    alone, a listed file and the manifest itself are not."""
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "empty" / "dir").mkdir(parents=True)
    for rel in ["a/b/x.txt", "top.txt", "listed.csv", "manifest.json"]:
        (tmp_path / rel).write_text("x")
    cli.write_manifest(tmp_path, {"files": ["listed.csv", "manifest.json"]})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["unmanaged_files"] == ["a/b/x.txt", "top.txt"]

    (tmp_path / "a" / "b" / "x.txt").unlink()
    (tmp_path / "top.txt").unlink()
    cli.write_manifest(tmp_path, {"files": ["listed.csv", "manifest.json"]})
    assert "unmanaged_files" not in json.loads((tmp_path / "manifest.json").read_text())


def test_manifest_lists_every_symlink_without_following_it(tmp_path):
    """A symlink in the output tree is an entry of the tree, whatever it
    points at: one to a file outside the tree, a dangling one and one to a
    directory are each listed as an unmanaged file, and the directory behind
    the last is not entered."""
    outside = tmp_path / "outside"
    (outside / "dir").mkdir(parents=True)
    (outside / "file.txt").write_text("x")
    (outside / "dir" / "inner.txt").write_text("x")
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / "to_file").symlink_to(outside / "file.txt")
    (out / "sub" / "dangling").symlink_to(outside / "missing.txt")
    (out / "to_dir").symlink_to(outside / "dir", target_is_directory=True)
    cli.write_manifest(out, {"files": ["manifest.json"]})
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["unmanaged_files"] == ["sub/dangling", "to_dir", "to_file"]


def test_empty_outputs_allowed(tmp_path):
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2},
                               "outputs": []})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == {}
    assert collect_files(out) == ["manifest.json"]


def test_run_replaces_a_symlink_at_an_output_path(tmp_path):
    """A symlink at an artifact's or the manifest's path becomes a regular
    file; the file it pointed to, outside the output tree, keeps its bytes."""
    cfg = write_cfg(tmp_path, SU2_CFG)
    out, outside = tmp_path / "out", tmp_path / "outside"
    out.mkdir()
    outside.mkdir()
    names = ["trajectory.csv", "trajectory.json", "manifest.json"]
    for name in names:
        (outside / name).write_text(f"keep {name}\n")
        (out / name).symlink_to(outside / name)
    for fmt in ("csv", "json"):
        assert main(["run", str(cfg), "--out", str(out), "--format", fmt]) == 0
    for name in names:
        assert (outside / name).read_text() == f"keep {name}\n"
        assert (out / name).is_file() and not (out / name).is_symlink(), name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rerun_into_one_directory_matches_a_fresh_one(tmp_path, monkeypatch, fmt):
    """Every writer creates its file anew, with mode "x" once the old file is
    gone, and never truncates one, which ext4 flushes at close.  A second
    run, sweep or certificate into one directory leaves the bytes a fresh
    directory gets, and no unmanaged files."""
    modes = []

    def spy(path, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    cfg = write_cfg(tmp_path, MINK_CFG)
    commands = {
        "run": ["run", str(cfg)],
        "sweep": ["sweep", str(cfg), "--param", "epsilon", "--values", "0,0.1"],
        "certify": ["certify", "kappa", "--epsilon", "0.3", "--points", "5"],
    }
    for command, argv in commands.items():
        trees = {}
        for where, runs in [("fresh", 1), ("again", 2)]:
            out = tmp_path / command / where
            for _ in range(runs):
                modes.clear()
                assert main([*argv, "--out", str(out), "--format", fmt]) == 0
            files = collect_files(out)
            assert "unmanaged_files" not in json.loads((out / "manifest.json").read_text())
            assert modes == ["x"] * len(files), command  # the manifest's open too
            trees[where] = {rel: (out / rel).read_bytes() for rel in files}
        assert trees["again"] == trees["fresh"], command


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_artifact_write_leaves_the_old_file(tmp_path, fmt):
    """An infinity in a float column or in the summary fails before the old
    file is removed, so the last good write stays byte for byte."""
    written = cli.write_artifact(ArtifactData("probe", {"a": [1.0, 2.0]}, {"n": 2}), tmp_path,
                                 fmt)
    old = (tmp_path / written[0]).read_bytes()
    for columns, summary in [({"a": [1.0, math.inf]}, {"n": 2}),
                             ({"a": [1.0, 2.0]}, {"fit": -math.inf})]:
        with pytest.raises(ContractViolation, match="^probe: "):
            cli.write_artifact(ArtifactData("probe", columns, summary), tmp_path, fmt)
        assert collect_files(tmp_path) == written
        assert (tmp_path / written[0]).read_bytes() == old


def test_a_failed_manifest_write_leaves_the_old_manifest(tmp_path):
    manifest = {"files": ["manifest.json"], "config": {"epsilon": 0.2}}
    cli.write_manifest(tmp_path, manifest)
    old = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(ContractViolation, match="^manifest: "):
        cli.write_manifest(tmp_path, {**manifest, "config": {"epsilon": math.inf}})
    assert (tmp_path / "manifest.json").read_bytes() == old


# --- sweep -----------------------------------------------------------------

def test_sweep_over_epsilon_includes_flat_baseline(tmp_path):
    cfg = write_cfg(tmp_path, {"model": "minkowski2d",
                               "params": {"epsilon": 0.2}, "outputs": []})
    out = tmp_path / "sweep"
    rc = main(["sweep", str(cfg), "--param", "epsilon",
               "--values", "0,0.01,0.02", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    i_eps = header.index("epsilon")
    i_dev = header.index("classical_limit_dev")
    i_status = header.index("status")
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[i_status] for r in rows] == ["ok", "ok", "ok"]
    devs = [float(r[i_dev]) for r in rows]
    assert devs[0] == 0.0
    # quadratic in the deformation strength
    assert devs[2] / devs[1] == pytest.approx(4.0, rel=0.05)


def test_sweep_marks_failed_rows_and_continues(tmp_path, monkeypatch):
    """A row whose model fails while it runs (an error injected into the
    shape read at c_plus 2; validation cannot foresee it) is marked failed,
    and the other rows are still written."""
    shape = minkowski2d._shape

    def failing(p):
        if p["c_plus"] == 2.0:
            raise ContractViolation("injected failure")
        return shape(p)

    monkeypatch.setattr(minkowski2d, "_shape", failing)
    cfg = write_cfg(tmp_path, {"model": "minkowski2d",
                               "params": {"epsilon": 0.2}, "outputs": []})
    out = tmp_path / "sweep"
    rc = main(["sweep", str(cfg), "--param", "c_plus",
               "--values", "1.0,2.0", "--out", str(out)])
    assert rc != 0
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    header = lines[0].split(",")
    status = [r[header.index("status")] for r in rows]
    assert status[0] == "ok"
    assert status[1].startswith("failed")


def test_kappa_sweep_rows_read_the_classical_limit_on_their_own_grid(tmp_path):
    """A row's classical-limit deviation is the symmetric mean of its own
    profile on [p_min, p_max]: at mass 1 and |epsilon| >= 1.118 a pole lies
    on the fixed grid p in [0.2, 2] of classical_limit_deviation, but not
    below p_max 1, so those rows are ok with finite values; on the fixed
    grid's own bounds a row reads classical_limit_deviation exactly."""
    cfg = write_cfg(tmp_path, {"model": "kappa", "params": {"epsilon": 0.3, "p_max": 1.0},
                               "outputs": []})
    out = tmp_path / "sweep"
    rc = main(["sweep", str(cfg), "--param", "epsilon", "--values", "2.0,1.5,0.3",
               "--out", str(out), "--format", "json"])
    assert rc == 0
    columns, rows = (json.loads((out / "sweep.json").read_text())[k] for k in ("columns", "rows"))
    assert [row[columns.index("status")] for row in rows] == ["ok", "ok", "ok"]
    for name in ("classical_limit_dev", "closed_speed_dev"):
        values = [row[columns.index(name)] for row in rows]
        assert all(isinstance(v, float) and math.isfinite(v) for v in values), name
    with pytest.raises(ContractViolation, match="right projection"):
        kappa.classical_limit_deviation(2.0)
    cfg = write_cfg(tmp_path, {"model": "kappa", "params": {"epsilon": 0.3}, "outputs": []})
    assert main(["sweep", str(cfg), "--param", "epsilon", "--values", "0.3",
                 "--out", str(tmp_path / "fixed"), "--format", "json"]) == 0
    columns, rows = (json.loads((tmp_path / "fixed" / "sweep.json").read_text())[k]
                     for k in ("columns", "rows"))
    assert rows[0][columns.index("classical_limit_dev")] == kappa.classical_limit_deviation(0.3)
    # a chord reads only a curve's first and last sample, so two samples run every output
    cfg = write_cfg(tmp_path, {"model": "kappa", "params": {"epsilon": 0.5, "n_samples": 2},
                               "outputs": ["trajectory", "projection", "profile"]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "n2")]) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_over_an_int_parameter_writes_ints(tmp_path, fmt):
    cfg = write_cfg(tmp_path, {"model": "minkowski2d",
                               "params": {"epsilon": 0.2}, "outputs": []})
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", "n_samples", "--values", "21,64",
                 "--out", str(out), "--format", fmt]) == 0
    if fmt == "csv":
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines] == ["n_samples", "21", "64"]
    else:
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        assert [type(r[0]) for r in rows] == [int, int] and rows[1][0] == 64


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2},
                               "outputs": []})
    rc = main(["sweep", str(cfg), "--param", "gamma", "--values", "1,2",
               "--out", str(tmp_path / "s")])
    assert rc == 2


@pytest.mark.parametrize("model, param, values", [
    ("minkowski2d", "epsilon", "nan,inf"),
    ("minkowski2d", "epsilon", "0.1,1e-200"),  # shape constant -1/(eps m)^2 overflows
    ("kappa", "n_samples", "1"),  # a chord needs two samples
    ("kappa", "spatial_dim", "41252435"),  # would allocate tens of GiB
])
def test_sweep_values_pass_validation_before_any_row(tmp_path, capsys, model, param, values):
    cfg = write_cfg(tmp_path, {"model": model, "params": {"epsilon": 0.1},
                               "outputs": []})
    out = tmp_path / "sweep"
    rc = main(["sweep", str(cfg), "--param", param, "--values", values,
               "--out", str(out)])
    assert rc == 2
    assert f"params.{param}" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("params", [{"step": 1e-9}, {"t_end": 1e9}])
def test_su2_run_that_cannot_finish_is_config_error(tmp_path, capsys, params):
    """A run stores a sample every ``step``, t_end / step of them; above
    2^21 the config names params.step and the run exits 2 before any
    sample, writing nothing."""
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2, **params},
                               "outputs": ["trajectory"]})
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main(["run", str(cfg), "--out", str(out)])
    assert time.perf_counter() - start < 2.0
    assert rc == 2
    assert "params.step" in capsys.readouterr().out
    assert not out.exists()
    at_bound = {"epsilon": 0.2, "t_end": 2.0**20, "step": 0.5}
    validate_config({"model": "su2", "params": at_bound})
    with pytest.raises(ConfigError, match=r"params\.step"):
        validate_config({"model": "su2", "params": {**at_bound, "t_end": 2.0**20 + 1}})


def test_su2_sweep_row_reads_the_certificate_flow(tmp_path):
    """An su2 sweep row reads the certificate's exact motion to t = 1,
    whatever the config's t_end and step: its field_residual column is the
    certificate's flow_field_residual at that epsilon, and its det_residual
    that motion's.  The row reads no energy pipeline, so a start past the
    pipeline's epsilon bound (epsilon -1e-300) is an ok row, and so are
    starts up to rho 1e100; a row
    past the momentum isomorphism's epsilon bound (epsilon 200) reads
    failed:ConfigError, and the other rows are still written."""
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2, "t_end": 0.02},
                               "outputs": []})
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", "epsilon", "--values", "0.2,-0.7", "--out", str(out),
                 "--format", "json"]) == 0
    table = json.loads((out / "sweep.json").read_text())
    assert table["columns"] == ["epsilon", "classical_limit_dev", "det_residual", "field_residual",
                                "status"]
    for row in table["rows"]:
        checks = {c.name: c.value for c in cli.su2_certificate(row[0], 0, 1)}
        got = dict(zip(table["columns"], row))
        assert got["field_residual"] == checks["flow_field_residual"]
        mats, _ = su2._exact_motion({**cli._DEFAULTS["su2"], "epsilon": row[0]}, su2._CERT_TIMES)
        assert got["det_residual"] == float(np.max(np.abs(su2._det(mats) - 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", str(cfg), "--param", "rho", "--values", "1.4,180,1e5,1e7,1e100",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[-1] for r in rows] == ["ok"] * 5
        assert all(float(r[-2]) <= 4 * 2.0**-53 for r in rows)  # field_residual
        assert main(["sweep", str(cfg), "--param", "epsilon", "--values=-1e-300,200,0.2",
                     "--out", str(out)]) == 1
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[-1] for r in rows] == ["ok", "failed:ConfigError", "ok"]


def test_sweep_runs_in_process_only(tmp_path):
    """A sweep computes its rows in this process; any worker count but 1 is
    refused before a row is computed or a file written."""
    config = validate_config({"model": "minkowski2d", "params": {"epsilon": 0.2}})
    out = tmp_path / "sweep"
    with pytest.raises(ContractViolation, match="workers"):
        cli.sweep_scenario(config, "epsilon", [0.1, 0.2], out, workers=2)
    assert not out.exists()


# --- certify ---------------------------------------------------------------

def test_certify_reports_and_passes(capsys):
    rc = main(["certify", "minkowski2d", "--epsilon", "0.2", "--points", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out
    assert "jacobi_shifted" in out


def test_certify_writes_artifact_when_asked(tmp_path):
    out = tmp_path / "cert"
    rc = main(["certify", "kappa", "--epsilon", "0.3", "--points", "5",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == collect_files(out)


@pytest.mark.parametrize("epsilon", ["-3", "3"])
def test_certify_kappa_past_projection_pole_is_config_error(epsilon, tmp_path, capsys):
    """The speed check's momenta reach a projection pole (left for eps < 0,
    right for eps > 0): a config error naming epsilon, not a FAIL."""
    out = tmp_path / "cert"
    rc = main(["certify", "kappa", "--epsilon", epsilon, "--points", "2", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 2
    assert text.startswith("config error: epsilon:")
    assert "FAIL" not in text
    assert not out.exists()


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_certify_non_finite_epsilon_is_config_error(model, epsilon, capsys):
    rc = main(["certify", model, f"--epsilon={epsilon}", "--points", "2"])
    text = capsys.readouterr().out
    assert rc == 2
    assert text.startswith("config error: epsilon:")
    assert "FAIL" not in text


@pytest.mark.parametrize("epsilon", ["1e-200", "-1e-200", "1e200"])
def test_certify_minkowski2d_epsilon_outside_run_range_is_config_error(epsilon, capsys):
    """The same |epsilon * mass| range as run: outside it the shape constant
    -1/(epsilon mass)^2 is not a float."""
    rc = main(["certify", "minkowski2d", f"--epsilon={epsilon}", "--points", "2"])
    text = capsys.readouterr().out
    assert rc == 2
    assert text.startswith("config error: epsilon:")


def test_certify_su2_overflowing_isomorphism_is_config_error(tmp_path, capsys):
    """At epsilon 300, far past the bound |epsilon| 1.2 sqrt(3) < log(DBL_MAX) / 2,
    sinh(epsilon r) squared overflows a float somewhere in the isomorphism's
    sampling cube: a config error naming epsilon, raised before any check runs."""
    out = tmp_path / "cert"
    rc = main(["certify", "su2", "--epsilon", "300", "--points", "2", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 2
    assert text.startswith("config error: epsilon:")
    assert "FAIL" not in text
    assert not out.exists()


# |epsilon| r reaches log(DBL_MAX) / 2 at the corners of the sampling cube
_SU2_EPSILON_BOUND = LOG_SQRT_DBL_MAX / (su2._CUBE * math.sqrt(3.0))


@pytest.mark.parametrize("seed", range(8))
def test_certify_su2_epsilon_bound_does_not_depend_on_the_seed(seed, capsys):
    """At and above the bound, certify su2 is a config error naming epsilon
    whatever the seed; just below it the isomorphism checks are finite and
    raise no overflow and no warning."""
    for epsilon in (_SU2_EPSILON_BOUND * (1 + 1e-12), -_SU2_EPSILON_BOUND * (1 + 1e-12), 300.0):
        rc = main(["certify", "su2", f"--epsilon={epsilon!r}", "--seed", str(seed), "--points", "2"])
        text = capsys.readouterr().out
        assert rc == 2
        assert text.startswith("config error: epsilon:")
    below = _SU2_EPSILON_BOUND * (1 - 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for epsilon in (below, -below):
            values = su2.isomorphism_deviation(epsilon, 100, seed + 4)
            assert np.all(np.isfinite(values))


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--points", "0"), ("--points", "-3")])
def test_certify_negative_seed_or_no_points_is_config_error(model, flag, value, tmp_path, capsys):
    """A negative seed is refused as run refuses it, and a certificate must
    check at least one point: config errors naming the field, nothing written."""
    out = tmp_path / "cert"
    rc = main(["certify", model, "--epsilon", "0.2", flag, value, "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 2
    assert text.startswith(f"config error: {flag[2:]}:")
    assert "PASS" not in text
    assert not out.exists()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_certify_past_the_point_bound_is_config_error(model, monkeypatch, tmp_path, capsys):
    """One point past the bound that keeps every certificate array within
    2^24 floats is a config error naming points, refused before the
    certificate starts; at the bound, the certificate would run."""
    started = []

    def record(*args):
        started.append(args)
        return []

    monkeypatch.setitem(MODELS, model, MODELS[model]._replace(brackets={}, certificate=record))
    out = tmp_path / "cert"
    rc = main(["certify", model, "--epsilon", "0.2", "--points", str(2**18 + 1), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().out.startswith("config error: points: need at most 262144,")
    assert not started and not out.exists()
    assert cli.certify(model, 0.2, 0, 2**18) == [] and started[0][2] == 2**18


def test_certify_kappa_ignores_config_momenta_poles(capsys):
    """At epsilon 1.2 the default config momentum p_max = 2 sits past the
    right pole, but certify checks momenta 0.5, 1.0, 1.5 only."""
    with pytest.raises(ConfigError, match=r"params\.p_max"):
        validate_config({"model": "kappa", "params": {"epsilon": 1.2}})
    rc = main(["certify", "kappa", "--epsilon", "1.2", "--points", "2"])
    assert rc == 0
    assert capsys.readouterr().out.endswith("certificates: PASS\n")


# --- shared certificate structures -----------------------------------------

# every array a certificate builds once and shares between calls
_SHARED_ARRAYS = {
    "minkowski2d hyperbola grid": lambda: minkowski2d._CERT_HYPERBOLA_GRID,
    "minkowski2d alphas": lambda: minkowski2d._CERT_ALPHAS,
    "minkowski2d betas": lambda: minkowski2d._CERT_BETAS,
    "minkowski2d x+ rates": lambda: minkowski2d._X_PLUS.rates,
    "minkowski2d x- moving mask": lambda: minkowski2d._X_MINUS._moves,
    "minkowski2d x+ lift rates": lambda: minkowski2d._X_PLUS._lift.rates,
    "minkowski2d x- lift rates": lambda: minkowski2d._X_MINUS._lift.rates,
    "minkowski2d canonical P": lambda: groupoid.canonical_bivector(2).matrix(np.zeros(4)),
    "kappa translation": lambda: kappa._generators(4)[0].vector,
    "kappa dilation": lambda: kappa._generators(4)[1].rates,
    "kappa translation lift": lambda: kappa._generators(4)[0]._lift.vector,
    "kappa dilation lift": lambda: kappa._generators(4)[1]._lift.rates,
    "kappa canonical P": lambda: groupoid.canonical_bivector(4).matrix(np.zeros(8)),
    **{f"triples {axis}": lambda axis=axis: bracket._triples(8)[axis] for axis in range(3)},
}


@pytest.mark.parametrize("name", sorted(_SHARED_ARRAYS))
def test_shared_certificate_arrays_are_read_only(name):
    """An array that every call of a certificate reads cannot be written,
    so no caller can change what the next call sees."""
    cli.certify("kappa", 0.3, 0, 2)  # the per-dim caches are filled
    array = _SHARED_ARRAYS[name]()
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.0


def _bits(checks):
    return [(c.name, float(c.value).hex(), c.threshold, c.passed, c.note) for c in checks]


def test_certify_repeats_bit_for_bit_between_other_models_and_epsilons():
    """A certificate reads its shared structures only: each model's checks
    are the same bits when certify runs again, after the other models and
    other epsilons have run in the same process."""
    calls = [(model, epsilon) for epsilon in (0.3, -0.3, 0.0) for model in sorted(MODELS)]
    first = [_bits(cli.certify(model, epsilon, 7, 8)) for model, epsilon in calls]
    again = [_bits(cli.certify(model, epsilon, 7, 8)) for model, epsilon in reversed(calls)]
    assert again[::-1] == first


def test_minkowski2d_certificate_builds_no_structure_and_reads_p_only_on_its_4_dim_chart(monkeypatch):
    """Counts, not times.  After its first call, a minkowski2d certificate
    builds no generator and no canonical structure (both are built once and
    shared), its base Jacobi check on the 2-dim chart evaluates no P, and its
    shifted check on the 4-dim chart evaluates P three times, the sum and
    its two terms, on the points alone: it compares P with the declared
    pi_r, and the proof that pi_r is Poisson reads no point."""
    cli.minkowski2d_certificate(0.3, 5, 8)  # the lifts and the canonical structure are built
    built, matrices = [], []
    post_init, matrix = generators.GeneratorField.__post_init__, bracket.BivectorSpec.matrix
    monkeypatch.setattr(generators.GeneratorField, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(bracket.BivectorSpec, "matrix",
                        lambda self, x: matrices.append((self.dim, x.shape)) or matrix(self, x))
    canonical_built = groupoid.canonical_bivector.cache_info().misses
    checks = cli.minkowski2d_certificate(0.3, 5, 8)
    assert built == [] and groupoid.canonical_bivector.cache_info().misses == canonical_built
    assert matrices == [(4, (8, 4))] * 3
    assert checks[0].name == "jacobi_base" and checks[0].note == "vacuous below dim 3"
    matrices.clear()
    base = minkowski2d.MODEL.brackets["base"].build({**cli._DEFAULTS["minkowski2d"], "epsilon": 0.3})
    assert bracket.jacobi_certificate(base, 8, 5).vacuous
    assert matrices == []


# certify(model, 0.3, 5, 8) after a first call: (chart dim, points' shape) of
# each P evaluation, in order, and the charts jacobi_certificate samples
_CERTIFY_COUNTS = {
    # base P; the shifted sum and its two terms
    "kappa": ([(4, (8, 4))] + [(8, (8, 8))] * 3, []),
    "minkowski2d": ([(4, (8, 4))] * 3, []),
    # group P; the sampled momentum Jacobi's P and complex-step dP; linear P;
    # the isomorphism's two; the dual path's; the field residual's 21 samples
    "su2": ([(8, (8, 8)), (3, (8, 3)), (3, (8, 3, 3))] + [(3, (8, 3))] * 3 + [(8, (8, 8)), (8, (21, 8))],
            [3]),
}


@pytest.mark.parametrize("model", sorted(_CERTIFY_COUNTS))
def test_certify_samples_only_the_momentum_jacobi(monkeypatch, model):
    """Counts, not times.  cli.certify proves each bracket declared with its
    data and samples the Jacobi identity only of su2's momentum bracket, the
    one declared by its P alone; the P evaluations of every check are
    pinned.  A count that falls is updated here; one that rises needs its
    reason."""
    cli.certify(model, 0.3, 5, 8)  # the proofs and shared structures are built
    matrices, sampled = [], []
    matrix, sample = bracket.BivectorSpec.matrix, model_module.jacobi_certificate
    monkeypatch.setattr(bracket.BivectorSpec, "matrix",
                        lambda self, x: matrices.append((self.dim, x.shape)) or matrix(self, x))
    monkeypatch.setattr(model_module, "jacobi_certificate",
                        lambda biv, **kw: sampled.append(biv.dim) or sample(biv, **kw))
    checks = cli.certify(model, 0.3, 5, 8)
    assert (matrices, sampled) == _CERTIFY_COUNTS[model]
    assert all(c.passed for c in checks)


def test_kappa_certificate_at_the_largest_spatial_dim_runs(tmp_path, capsys):
    """A kappa run with a certificate at spatial_dim 127, the schema's
    maximum, exits 0 and PASSes: both brackets are proved on their 128- and
    256-dim charts from their generators, with no Jacobi tensor."""
    cfg = {"model": "kappa", "params": {"epsilon": 0.5, "spatial_dim": 127}, "outputs": ["certificate"]}
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("certificates: PASS\n")
    rows = (out / "certificate.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["jacobi_base", "jacobi_shifted",
                                                    "projected_speed_closed_form"]
    assert all(row.split(",")[3] == "pass" for row in rows)


_OUTSIDE_CERTIFICATE_DOMAIN = {
    # |epsilon| 1.2 sqrt(3) is past log(DBL_MAX) / 2: the isomorphism check overflows
    "su2_isomorphism_overflow": {"model": "su2", "params": {"epsilon": 200.0, "t_end": 0.01}},
    # the config's momenta are below the right pole, the certificate's 1.0 and 1.5 are not
    "kappa_certificate_momentum_pole": {
        "model": "kappa", "params": {"epsilon": 3.0, "p": 0.25, "p_min": 0.2, "p_max": 0.3}},
}


@pytest.mark.parametrize("name", sorted(_OUTSIDE_CERTIFICATE_DOMAIN))
def test_run_checks_the_certificate_domain_before_writing(name, tmp_path, capsys):
    """A config that asks for a certificate is validated against the
    certificate's own precondition: a config error naming params.epsilon,
    and no output directory.  Without the certificate the config runs."""
    cfg = {**_OUTSIDE_CERTIFICATE_DOMAIN[name], "outputs": ["certificate"]}
    out = tmp_path / "out"
    rc = main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 2
    assert text.startswith("config error: params.epsilon:")
    assert not out.exists()
    cfg["outputs"] = ["trajectory"]
    assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()


def test_cli_import_is_lean():
    """Importing the CLI loads no scipy, no process pool, no multiprocessing
    and no PyYAML (only ``load_config`` reads with it), and builds no bracket
    coefficients; no module of the package imports scipy at all.
    ``import poismech`` alone loads no submodule of the package and no numpy,
    since each public name loads its module on first use."""
    src = Path(__file__).resolve().parents[1] / "src"
    for path in sorted((src / "poismech").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "scipy" for n in names), f"{path.name} imports scipy"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import sys, poismech; "
             "print(sorted(m for m in sys.modules if m.startswith('poismech.')), 'numpy' in sys.modules); "
             "import poismech.cli; from poismech import su2; "
             "print('scipy' in sys.modules, su2._sl2c_coefficients.cache_info().currsize, "
             "'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules, 'yaml' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[] False", "False 0 False False False"]


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")


# --- certificate folds --------------------------------------------------------

def test_a_check_passes_strictly_below_its_threshold():
    """One pass rule for every check: value < threshold, so a value on its
    threshold FAILs, one float below PASSes, and NaN FAILs."""
    assert not CertCheck("c", 1e-6, 1e-6).passed
    assert CertCheck("c", math.nextafter(1e-6, 0.0), 1e-6).passed
    assert not CertCheck("c", math.nan, 1e-6).passed
    assert cli._certificate_artifact([CertCheck("c", 1e-6, 1e-6)]).columns["status"] == ["fail"]


def _nan_pair(*_args):
    return (math.nan, math.nan)


# certificate -> (NaN-returning stand-ins for module attributes, checks folding them)
_NAN_FOLDS = {
    "su2_certificate": (
        {"su2.flow_rhs": lambda m, eps: np.full((2, 2), np.nan),
         "su2.pushforward_bivector": lambda *args: np.full((3, 3), np.nan),
         "su2.casimir_radius_squared": lambda *args: math.nan},
        ("dual_path_dynamics", "isomorphism_pushforward", "isomorphism_casimir"),
    ),
    "kappa_certificate": (
        {"kappa.closed_form_speeds": _nan_pair}, ("projected_speed_closed_form",),
    ),
    "minkowski2d_certificate": (
        {"minkowski2d.scattering_limits_numeric": _nan_pair}, ("scattering_match", "scattering_odd"),
    ),
}


def _projection_edge(reach, guess):
    """The largest float x with ``reach(x) <= minkowski2d._LOG_NORMAL``,
    searched one float at a time from ``guess``, which must lie within four
    floats of it."""
    x = guess
    while reach(x) > minkowski2d._LOG_NORMAL:
        x = math.nextafter(x, -math.inf)
    while reach(math.nextafter(x, math.inf)) <= minkowski2d._LOG_NORMAL:
        x = math.nextafter(x, math.inf)
    assert abs(x - guess) <= 4 * math.ulp(guess)
    return x


def _run_projection_finite(tmp_path, params, name):
    """Run the projection alone with RuntimeWarning as an error; every
    coordinate is a normal float, each spread is 0 or one, and the t column
    ends at t_end."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": params, "outputs": ["projection"]},
                    f"{name}.yaml")
    out = tmp_path / name
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "projection.json").read_text())
    rows = np.array(doc["rows"], dtype=float)
    assert np.all(np.isfinite(rows)) and np.all(np.abs(rows[:, 1:]) >= sys.float_info.min)
    assert rows[-1, 0] == pytest.approx(params.get("t_end", 4.0), abs=1e-12)
    assert set(doc["summary"]) == {"product_spread_left", "product_spread_right"}
    assert all(v == 0.0 or sys.float_info.min <= v < math.inf for v in doc["summary"].values())


def test_minkowski2d_projection_horizon_is_bounded(tmp_path, capsys):
    """The projection's shrinking values -0.8 e^-t and e^{-t - 0.4 |eps|}
    stay normal floats, above 2 DBL_MIN, up to t_end = -ln(2 DBL_MIN) = 707.70
    less the larger of ln(1/0.8) and 0.4 |eps|.  t_end 1e300 names
    params.t_end; one float past the bound names the larger of t_end and
    0.4 |eps|, and a run at the bound is finite."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": {"epsilon": 0.2, "t_end": 1.0e300},
                               "outputs": ["projection"]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "far")]) == 2
    assert "params.t_end" in capsys.readouterr().out
    params = {"p_min": -0.001, "p_max": 0.001, "beta": 0.001}
    for epsilon, field in ((0.2, "t_end"), (-100.0, "t_end"), (1000.0, "epsilon")):
        guess = minkowski2d._LOG_NORMAL - max(math.log(1.25), 0.4 * abs(epsilon))
        t_max = _projection_edge(lambda t: minkowski2d._projection_reach(t, epsilon), guess)
        with pytest.raises(ConfigError, match=rf"^params\.{field}: "):
            validate_config({"model": "minkowski2d", "params": {
                **params, "epsilon": epsilon, "t_end": math.nextafter(t_max, math.inf)}})
        _run_projection_finite(tmp_path, {**params, "epsilon": epsilon, "t_end": t_max}, f"at_{epsilon:g}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_minkowski2d_line_near_dbl_max_has_a_finite_shape_residual(tmp_path, capsys, fmt):
    """At epsilon 0 the trajectory is the line over p in [-1e200, 1e200];
    the collinearity residual scales its samples by a power of two before it
    squares them, so it reads about 1e-16 of the line's size.  Squared
    unscaled they overflowed, and the run stopped on an infinite value
    (exit 1)."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d",
                               "params": {"epsilon": 0.0, "p_min": -1.0e200, "p_max": 1.0e200},
                               "outputs": ["trajectory"]})
    out = tmp_path / fmt
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(out), "--format", fmt]) == 0
    summary = json.loads((out / "manifest.json").read_text())["artifacts"]["trajectory"]["summary"]
    assert summary["kind"] == "line"
    assert 0.0 < summary["shape_residual"] < 1e-14 * 1e200


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_minkowski2d_projection_epsilon_is_bounded(tmp_path, capsys, sign):
    """At |epsilon| 1500 the projection's products overflowed (and the right
    side underflowed to a spread of 0.0) while the run exited 0 with a null
    spread; at 5000 it exited 1 on an infinite value.  Both exit 2 naming
    params.epsilon now, without a numpy warning.  The products
    e^{+-(eps/2)(J1 - J2)} = e^{+-0.575 eps} keep a normal ulp, with a
    factor 2 to spare, up to |eps| = 2 (707.70 - 52 ln 2) / 1.15: one float
    past exits 2, and a run at the bound is finite."""
    params = {"p_min": -0.001, "p_max": 0.001, "beta": 0.001, "alpha": 0.0}
    for epsilon in (1500.0, 5000.0):
        cfg = write_cfg(tmp_path, {"model": "minkowski2d",
                                   "params": {**params, "epsilon": sign * epsilon},
                                   "outputs": ["projection"]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(tmp_path / "far")]) == 2
        assert "params.epsilon" in capsys.readouterr().out
    guess = 2.0 * (minkowski2d._LOG_NORMAL - 52.0 * math.log(2.0)) / 1.15
    eps_max = _projection_edge(lambda e: minkowski2d._projection_reach(4.0, e), guess)
    with pytest.raises(ConfigError, match=r"^params\.epsilon: "):
        validate_config({"model": "minkowski2d",
                         "params": {**params, "epsilon": sign * math.nextafter(eps_max, math.inf)}})
    _run_projection_finite(tmp_path, {**params, "epsilon": sign * eps_max}, "at")


def test_minkowski2d_scattering_reads_its_limits_past_both_waists(tmp_path):
    """At epsilon 100 and beta 2 the outgoing limit was read at p = 0.4,
    before the q- waist at p = beta: the run exited 0 with v_out_numeric -1
    against v_out_closed +1.  Now both limits equal the closed form."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": {"epsilon": 100.0, "beta": 2.0},
                               "outputs": ["scattering"]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    summary = json.loads((out / "scattering.json").read_text())["summary"]
    assert summary["v_in_numeric"] == summary["v_in_closed"]
    assert summary["v_out_numeric"] == summary["v_out_closed"] == 1.0
    assert summary["closed_vs_numeric"] == 0.0


@pytest.mark.parametrize("params, field", [
    ({"epsilon": 1.0, "beta": 700.0}, "params.beta"),  # epsilon alone passes the certificate
    ({"epsilon": -400.0, "beta": 2.0}, "params.epsilon"),  # no curve of the grid takes it
])
def test_minkowski2d_epsilon_beta_past_the_scattering_bound_is_config_error(tmp_path, capsys,
                                                                            params, field):
    """Past |epsilon beta| = ln(DBL_MAX) - 20 the numeric scattering limits
    overflow: run and sweep exit 2 naming the field and write nothing."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": params, "outputs": ["scattering"]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith(f"config error: {field}: |epsilon * beta|")
    assert main(["sweep", str(cfg), "--param", "mass", "--values", "1,2", "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith(f"config error: {field}: |epsilon * beta|")
    assert not out.exists()


@pytest.mark.parametrize("params, field", [
    ({"epsilon": 400.0, "beta": 1.0}, "params.epsilon"),  # sinh(400 (-3 - 1) / 2) overflows
    ({"epsilon": 7.0e-12, "p_max": 2.0e+137}, "params.p_max"),  # sinh(7e-12 2e137 / 2) overflows
    ({"epsilon": 400.0, "beta": 1.0, "p_min": -2.56}, "params.epsilon"),  # sinh(712)
    ({"epsilon": 0.0, "p_min": -1.0e+308, "beta": 1.0e+308}, "params.beta"),  # p - beta = -inf
])
def test_minkowski2d_scattering_curve_past_its_bound_is_config_error(tmp_path, capsys, params, field):
    """The scattering curve overflowed on its p grid: run warned of overflow
    in sinh and exited 1 on an infinite value.  It is a config error naming
    the field furthest past its scale; run exits 2 and writes nothing."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": params, "outputs": ["scattering"]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith(f"config error: {field}: the scattering curve")
    assert not out.exists()


@pytest.mark.parametrize("params", [
    {"epsilon": 400.0, "beta": 1.0, "p_min": -2.5},  # sinh(700) / 200
    {"epsilon": 0.0, "p_min": -4.0e+307, "beta": 0.0},  # q+ = e^0.3 p reaches 5.4e307
])
def test_minkowski2d_scattering_curve_inside_its_bound_is_finite(tmp_path, params):
    """Just inside the bound the scattering artifact is finite throughout,
    with no RuntimeWarning."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": params, "outputs": ["scattering"]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "scattering.json").read_text())
    cells = [v for row in data["rows"] for v in row] + list(data["summary"].values())
    assert all(v is not None and math.isfinite(v) for v in cells)
    assert max(abs(v) for row in data["rows"] for v in row[1:3]) > 1e300


def _largest_valid_alpha(params, guess):
    """The largest float alpha with which the minkowski2d config validates,
    bisected between guess / 2 (valid) and 2 guess (not)."""
    def valid(alpha):
        try:
            validate_config({"model": "minkowski2d", "params": {**params, "alpha": alpha}})
        except ConfigError:
            return False
        return True

    lo, hi = 0.5 * guess, 2.0 * guess
    assert valid(lo) and not valid(hi)
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if valid(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("epsilon", [0.2, 0.0])
def test_minkowski2d_alpha_at_its_bound_is_finite_and_past_it_names_alpha(tmp_path, capsys, epsilon):
    """e^|alpha| scales the scattering curve: alpha 800 wrote -inf into the
    CSV and exited 1.  At the largest valid alpha (about 687 at epsilon 0.2,
    set by the limit read at p = 202, and 707 at epsilon 0 on the p grid) the
    artifact and its summary are finite with no RuntimeWarning; one float
    past it and alpha 800 name params.alpha and exit 2."""
    params = {"epsilon": epsilon}
    alpha = _largest_valid_alpha(params, 700.0)
    assert 680.0 < alpha < 710.0
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": {**params, "alpha": alpha},
                               "outputs": ["scattering"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(tmp_path / "at"), "--format", "json"]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "at" / "scattering.json").read_text())
    cells = [v for row in data["rows"] for v in row] + list(data["summary"].values())
    assert all(v is not None and math.isfinite(v) for v in cells)
    for past in (math.nextafter(alpha, math.inf), 800.0, -800.0):
        cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": {**params, "alpha": past},
                                   "outputs": ["scattering"]})
        out = tmp_path / "past"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("config error: params.alpha: the scattering curve")
        assert not out.exists()


def test_minkowski2d_c_plus_coarser_than_the_grid_is_config_error(tmp_path, capsys):
    """At c_plus 1e17 the grid c_plus + [0.2, 3] rounded onto the asymptote
    x+ = c_plus and run exited 1; a sweep over c_plus wrote a
    failed:ContractViolation row.  Floats near c_plus coarser than the grid
    name params.c_plus: run and sweep exit 2 and write nothing.  c_plus 1e14
    (floats 1/64 apart, under the 7/120 spacing of 49 samples) still runs."""
    params = {"epsilon": 0.2, "c_plus": 1.0e+17, "c_minus": -1.0}
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": params, "outputs": ["trajectory"]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("config error: params.c_plus: ")
    assert main(["sweep", str(cfg), "--param", "c_plus", "--values", "1,1e17", "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("config error: params.c_plus: ")
    assert not out.exists()

    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": {**params, "c_plus": 1.0e+14},
                               "outputs": ["trajectory"]})
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    rows = json.loads((out / "trajectory.json").read_text())["rows"]
    assert len({r[0] for r in rows}) == len(rows) == 49


@pytest.mark.parametrize("t_span", [1.0e-320, 1.0e-160])
def test_kappa_horizon_below_the_normal_range_is_config_error(tmp_path, capsys, t_span):
    """At p_min 1e-150 the slowest chord difference, x^1 = 2 p_min t_span,
    is subnormal at t_span 1e-160 and 0 at 1e-320: read unchecked, the
    speeds at p_min came out up to 9e-15 off, relative, and 0; both name
    params.t_span and exit 2, writing nothing."""
    cfg = write_cfg(tmp_path, {"model": "kappa",
                               "params": {"epsilon": 0.5, "p_min": 1e-150, "t_span": t_span},
                               "outputs": ["profile"]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "params.t_span" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("params", [
    {"epsilon": 0.5},
    {"epsilon": 0.5, "p_max": 4.1},  # near the right pole, x^0 is the slowest coordinate
    {"epsilon": -0.3, "spatial_dim": 1, "n_samples": 2},
    {"epsilon": 2.0, "p": 0.5, "p_min": 0.01, "p_max": 1.2, "n_samples": 4096},
])
def test_kappa_runs_at_the_lower_horizon_bound_give_the_closed_form_speeds(params):
    """At kappa._t_span_min every measured speed (profile, projection and
    trajectory) is within 1e-12 of its closed form, relative; one float
    below names params.t_span."""
    t_min = kappa._t_span_min(validate_config({"model": "kappa", "params": params}).params)
    assert 1e-308 < t_min < 1e-303
    with pytest.raises(ConfigError, match=r"params\.t_span"):
        validate_config({"model": "kappa", "params": {**params, "t_span": math.nextafter(t_min, 0.0)}})
    p = validate_config({"model": "kappa", "params": {**params, "t_span": t_min}}).params
    spec = kappa.KappaSpec(p["epsilon"], p["spatial_dim"])
    measured, exact = [], []
    prof = kappa.MODEL.artifacts["profile"](p).columns
    for q, v_o, v_l, v_r in zip(prof["p"], prof["v_ordinary"], prof["v_left"], prof["v_right"]):
        measured += [v_o, v_l, v_r]
        exact += [q / math.hypot(p["mass"], q), *kappa.closed_form_speeds(spec, p["mass"], q)]
    proj = kappa.MODEL.artifacts["projection"](p).summary
    traj = kappa.MODEL.artifacts["trajectory"](p).summary
    measured += [proj["v_left"], proj["v_right"], traj["speed_ordinary"]]
    exact += [*kappa.closed_form_speeds(spec, p["mass"], p["p"]), p["p"] / math.hypot(p["mass"], p["p"])]
    np.testing.assert_allclose(measured, exact, rtol=1e-12, atol=0.0)


def test_kappa_horizon_is_bounded(tmp_path, capsys):
    """The coordinates reach C = t_span max(2 p0 + |eps| q^2,
    2 q exp(|eps| p0 / 2)) and the moment 2 q^2 t_span at the largest
    momentum q; t_span is bounded by C <= DBL_MAX / 2 and the moment by
    DBL_MAX / 2 alone, since the collinearity residual and the chords scale
    before they square.  t_span 1e300 and the bound itself run every artifact
    to finite values with no numpy warning (1e300 was past the old bound,
    about 6.7e166, that squared coordinates needed); one float past the bound
    names params.t_span and exits 2, writing nothing."""
    params = {"epsilon": 0.5}
    t_max = kappa._t_span_max(validate_config({"model": "kappa", "params": params}).params)
    q, p0 = 2.0, math.hypot(1.0, 2.0)
    c = max(2.0 * p0 + 0.5 * q * q, 2.0 * q * math.exp(0.25 * p0))
    assert t_max == min(sys.float_info.max / (2.0 * c), sys.float_info.max / (4.0 * q * q))
    assert 1e307 < t_max < 2e307
    outputs = ["trajectory", "projection", "profile"]
    for t_span in (1.0e300, t_max):
        cfg = write_cfg(tmp_path, {"model": "kappa", "params": {**params, "t_span": t_span},
                                   "outputs": outputs})
        out = tmp_path / f"at_{t_span!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
        for name in outputs:
            doc = json.loads((out / f"{name}.json").read_text())
            assert np.all(np.isfinite(np.array(doc["rows"], dtype=float))), name
            floats = [v for v in doc["summary"].values() if isinstance(v, float)]
            assert all(math.isfinite(v) for v in floats), name
        assert np.array(json.loads((out / "trajectory.json").read_text())["rows"])[-1, 0] == t_span
    past = math.nextafter(t_max, math.inf)
    with pytest.raises(ConfigError, match=r"params\.t_span"):
        validate_config({"model": "kappa", "params": {**params, "t_span": past}})
    cfg = write_cfg(tmp_path, {"model": "kappa", "params": {**params, "t_span": past},
                               "outputs": ["profile"]})
    out = tmp_path / "far"
    capsys.readouterr()
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "params.t_span" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("epsilon", [0.0, 1e-300])
def test_kappa_horizon_keeps_the_projection_moment_finite(tmp_path, epsilon):
    """The projections take the moment 2 p^2 t, far above every coordinate
    at small |epsilon|: at p 1e150 it overflowed within the other bounds and
    0 times inf made x^0 NaN.  t_span is bounded by 2 p^2 t_span <=
    DBL_MAX / 2; one float past names params.t_span, and at the bound all
    three artifacts are finite with no numpy warning."""
    params = {"epsilon": epsilon, "p": 1e150}
    t_max = kappa._t_span_max(validate_config({"model": "kappa", "params": params}).params)
    assert t_max == sys.float_info.max / (4.0 * 1e150 * 1e150)
    with pytest.raises(ConfigError, match=r"params\.t_span"):
        validate_config({"model": "kappa",
                         "params": {**params, "t_span": math.nextafter(t_max, math.inf)}})
    outputs = ["trajectory", "projection", "profile"]
    cfg = write_cfg(tmp_path, {"model": "kappa", "params": {**params, "t_span": t_max},
                               "outputs": outputs})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(tmp_path / "at"), "--format", "json"]) == 0
    for name in outputs:
        doc = json.loads((tmp_path / "at" / f"{name}.json").read_text())
        assert np.all(np.isfinite(np.array(doc["rows"], dtype=float))), name


@pytest.mark.parametrize("field, value", [("epsilon", 1.0e10), ("rho", 1000.0)])
def test_su2_first_step_past_one_radian_is_config_error(tmp_path, capsys, field, value):
    """With the other defaults these starts failed at t = 0 when the run
    integrated (the first step's stages overflowed), and the certificate's
    integrated flow refused them.  The run and the certificate now read the
    exact motion: the trajectory finishes at both, and at rho 1000 the
    certificate PASSes, while at epsilon 1e10 it is past the momentum
    isomorphism's bound, names params.epsilon and exits 2, writing
    nothing."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2, field: value},
                               "outputs": ["certificate"]})
    if field == "epsilon":
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("config error: params.epsilon: the momentum isomorphism")
        assert not out.exists()
    else:
        assert main(["run", str(cfg), "--out", str(tmp_path / "cert")]) == 0
        assert "certificates: PASS" in capsys.readouterr().out
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2, field: value},
                               "outputs": ["trajectory"]})
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    rows = np.array(json.loads((out / "trajectory.json").read_text())["rows"], dtype=float)
    assert np.all(np.isfinite(rows))


def _su2_energy(p):
    return float(su2.free_energy(su2.SB2Element(p["rho"], complex(p["n_re"], p["n_im"])).matrix))


@pytest.mark.parametrize("field, value", [(f, v) for f in ("rho", "n_im") for v in (1e4, 1e5, 1e100)])
def test_su2_certificate_passes_far_past_the_old_energy_bound(field, value, tmp_path):
    """energy_pipeline's threshold is its rounding model, (63 + 5.5 log 2H) u H
    at the first sample's energy H, so it holds at any start: at rho and
    n_im 1e4 (near the old edge H = 1e-6 / (168 u), where an absolute 1e-6
    ran out), 1e5 and 1e100 the certificate check accepts the start and the
    genuine certificate PASSes every check, under warnings as errors; a run
    of the trajectory and the certificate from that start exits 0 with a
    finite trajectory."""
    p = {**cli._DEFAULTS["su2"], "epsilon": 0.2, field: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        su2._certificate_check(p, "params.epsilon")
        checks = {c.name: c for c in su2.MODEL.certify(p, 0, 2)}
    assert all(c.passed for c in checks.values()), checks
    energy = _su2_energy(p)
    assert checks["energy_pipeline"].threshold == pytest.approx(
        (63.0 + 5.5 * math.log(2.0 * energy)) * 2.0**-53 * energy, rel=1e-12)
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2, field: value},
                               "outputs": ["trajectory", "certificate"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.size and np.all(np.isfinite(rows))


def test_su2_energy_pipeline_threshold_is_never_looser_than_the_old_rule():
    """The old rule read an absolute 1e-6 up to H = 1e-6 / (168 u), about
    5.36e7, and refused larger starts; the rounding model's threshold is at
    most 1e-6 everywhere in that range, and it is 9.9e-15 at the default
    start."""
    edge = 1e-6 / (168 * 2.0**-53)
    energies = np.append(np.geomspace(1.0, edge, 2001), [edge, math.nextafter(edge, 0.0)])
    assert max(su2._pipeline_tol(float(h)) for h in energies) <= 1e-6
    assert su2._pipeline_tol(_SU2_START_H) == pytest.approx(9.85e-15, rel=1e-3)


@pytest.mark.parametrize("rho", [1.4, 1e5])
def test_su2_energy_pipeline_fails_a_pipeline_read_off_epsilon(monkeypatch, rho):
    """With the pipeline's classical energy read at eps (1 + 1e-9), its
    expected cosh moves by about 1e-9 relatively: energy_pipeline FAILs at
    the default start and at rho 1e5, and every other check PASSes.  The old
    absolute 1e-6 held that witness at the default start."""
    p = {**cli._DEFAULTS["su2"], "epsilon": 0.2, "rho": rho}
    relations = su2.energy_relations
    monkeypatch.setattr(su2, "energy_relations",
                        lambda epsilon, **kw: relations(epsilon * (1 + 1e-9), **kw))
    checks = {c.name: c for c in su2.MODEL.certify(p, 0, 2)}
    assert not checks["energy_pipeline"].passed
    assert checks["energy_pipeline"].value > 1e3 * checks["energy_pipeline"].threshold
    assert all(c.passed for name, c in checks.items() if name != "energy_pipeline")
    if rho == 1.4:
        assert checks["energy_pipeline"].value < 1e-6


@pytest.mark.parametrize("field, past", [
    ("rho", lambda s: 1.0e200),
    ("rho", lambda s: math.nextafter(s, math.inf)),
    ("rho", lambda s: math.nextafter(1.0 / s, 0.0)),
    ("n_re", lambda s: math.nextafter(s, math.inf)),
    ("n_re", lambda s: -math.nextafter(s, math.inf)),
    ("n_im", lambda s: math.nextafter(s, math.inf)),
    ("n_im", lambda s: -math.nextafter(s, math.inf)),
], ids=["rho_1e200", "rho_above", "rho_below", "n_re_above", "n_re_below",
        "n_im_above", "n_im_below"])
def test_su2_start_past_the_finite_range_is_config_error(tmp_path, capsys, field, past):
    """The starting factor's entries rho, 1/rho, n_re and n_im are bounded
    by (DBL_MAX / 8)^(1/3), where its energy and the flow's right-hand side
    are still finite; one float past the bound names the field, exit 2."""
    cfg = write_cfg(tmp_path, {"model": "su2",
                               "params": {"epsilon": 0.2, field: past(su2._MAX_ENTRY)},
                               "outputs": ["trajectory"]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"params.{field}" in capsys.readouterr().out
    assert not out.exists()


def test_su2_tolerance_is_not_a_parameter(tmp_path, capsys):
    """The run and the certificate read the exact motion, so su2 has no
    tol: a config that sets it exits 2 naming params.tol."""
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2, "tol": 1e-8},
                               "outputs": ["trajectory"]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("config error: params.tol: unknown parameter")
    assert not out.exists()
    assert "tol" not in su2.PARAMS and len(su2.PARAMS) == 6


@pytest.mark.parametrize("rho, n", [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)])
def test_su2_start_at_the_bounds_has_a_finite_energy_and_rhs(rho, n):
    """At the bounds (rho = S or 1/S, n_re and n_im = +-S) the config
    validates at epsilon 0, where the flow stands still, and free_energy and
    flow_rhs at unit epsilon are finite.  At unit epsilon the field
    residual's terms, up to 42 |epsilon| H^(3/2), would pass DBL_MAX, a
    config error naming a start entry."""
    s = su2._MAX_ENTRY
    params = {"epsilon": 0.0, "rho": s ** rho, "n_re": n * s, "n_im": -n * s}
    validate_config({"model": "su2", "params": params})
    with pytest.raises(ConfigError) as exc:
        validate_config({"model": "su2", "params": {**params, "epsilon": 1.0}})
    assert exc.value.path in {"params.rho", "params.n_re", "params.n_im"}
    start = su2.SB2Element(params["rho"], complex(params["n_re"], params["n_im"])).matrix
    assert math.isfinite(su2.free_energy(start))
    assert np.all(np.isfinite(su2.flow_rhs(start, 1.0)))


@pytest.mark.parametrize("certificate", sorted(_NAN_FOLDS))
def test_certificate_checks_fail_on_non_finite_residual(monkeypatch, certificate):
    """NaN in the residuals a check folds makes the check FAIL with a
    non-finite value, instead of being dropped by the fold."""
    fakes, checks = _NAN_FOLDS[certificate]
    for target, fake in fakes.items():
        module, attr = target.split(".")
        monkeypatch.setattr(importlib.import_module(f"poismech.{module}"), attr, fake)
    results = {c.name: c for c in getattr(cli, certificate)(0.2, 0, 5)}
    for check in checks:
        assert not results[check].passed, check
        assert not math.isfinite(results[check].value), check


# --- schema-drawn robustness ---------------------------------------------------

_ODD_VALUES = [None, True, False, math.nan, math.inf, -math.inf, "x", [1.0], {"a": 1},
               0, -1, 0.0, -0.5, 1e300, -1e300]


def _inside(param):
    """Numbers within the declared bounds of ``param`` (``positive``,
    ``minimum`` and ``maximum``), on the scale of its default: the default
    times 1/4 to 4 (rounded for an int), or a float in [-1, 1] for a
    required parameter."""
    if param.default is None:
        lo, hi = -1.0, 1.0
    else:
        lo, hi = sorted((param.default / 4, param.default * 4))
    if param.minimum is not None:
        lo, hi = max(lo, param.minimum), max(hi, param.minimum)
    if param.maximum is not None:
        lo, hi = min(lo, param.maximum), min(hi, param.maximum)
    if param.kind == INT:
        return st.integers(math.ceil(lo), math.floor(hi))
    return st.floats(lo, hi, exclude_min=param.positive and lo <= 0.0)


def _raw_value(param, bounded):
    """Valid and out-of-range numbers, wrong types, bools, None, nan and +-inf.

    ``bounded`` keeps drawn ints small, since a run allocates arrays of that
    size, and draws numbers within the parameter's declared bounds most of
    the time, so that most drawn configs pass validation and run; the odd
    values, 1e300 among them, are drawn either way."""
    if bounded:
        loose = st.integers(-2, 70) if param.kind == INT else st.floats(-6.0, 6.0)
        # one of ten draws is a loose number and one an odd value
        return st.sampled_from([_inside(param)] * 8 + [loose, st.sampled_from(_ODD_VALUES)]).flatmap(
            lambda values: values)
    number = st.one_of(st.integers(), st.floats())
    return st.one_of(number, st.sampled_from(_ODD_VALUES))


@st.composite
def _raw_params(draw, bounded):
    """A model and a subset of its params; a bounded draw always sets the
    required params (a missing one is drawn unbounded)."""
    name = draw(st.sampled_from(sorted(MODELS)))
    schema = MODELS[name].params
    keys = draw(st.lists(st.sampled_from(sorted(schema)), unique=True))
    if bounded:
        keys = [key for key, param in schema.items() if param.default is None and key not in keys] + keys
    return name, {key: draw(_raw_value(schema[key], bounded)) for key in keys}


@settings(max_examples=80, deadline=None)
@given(_raw_params(bounded=False))
def test_schema_drawn_params_validate_or_name_the_field(drawn):
    name, params = drawn
    schema = MODELS[name].params
    try:
        config = validate_config({"model": name, "params": params})
    except ConfigError as exc:
        assert exc.path in {f"params.{key}" for key in schema}
        return
    for key, param in schema.items():
        value = config.params[key]
        assert type(value) is (int if param.kind == INT else float)
        assert math.isfinite(value)
        assert not param.positive or value > 0
        assert param.minimum is None or value >= param.minimum
        assert param.maximum is None or value <= param.maximum


def _outcome(load, path):
    try:
        return load(path)
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(_raw_params(bounded=False))
def test_schema_drawn_configs_parse_equal_under_both_yaml_parsers(drawn):
    """The same ScenarioConfig, or the same ConfigError, from libyaml's
    parser as from PyYAML's pure-Python one."""
    name, params = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump({"model": name, "params": params, "seed": 2}))
        assert _outcome(load_config, path) == _outcome(_reference_load, path)


# every artifact but the certificate, whose Jacobi checks cost seconds at the
# largest chart; each of these costs milliseconds at any drawn size
_CHEAP_OUTPUTS = {name: list(model.artifacts) for name, model in MODELS.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_raw_params(bounded=True), st.sampled_from(["csv", "json"]))
def test_run_on_schema_drawn_configs_exits_cleanly(drawn, fmt):
    """run writes every artifact of a drawn config (exit 0) or names the
    field it rejects (exit 2); it never fails on a config it accepted
    (exit 1) and never raises."""
    name, params = drawn
    cfg = {"model": name, "params": params, "outputs": _CHEAP_OUTPUTS[name]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path), "--out", str(Path(tmp) / "out"), "--format", fmt]) in (0, 2)


# --- one certificate path ------------------------------------------------------

@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("epsilon", [0.0, 0.2, -0.3])
def test_certify_gives_the_checks_of_run_at_the_schema_defaults(tmp_path, model, epsilon):
    """cli.certify at CERT_POINTS and the certificate artifact of run at the
    schema defaults, with the same epsilon and seed, hold the same checks."""
    seed = 3
    checks = cli.certify(model, epsilon, seed, CERT_POINTS)
    cfg = write_cfg(tmp_path, {"model": model, "params": {"epsilon": epsilon},
                               "outputs": ["certificate"], "seed": seed})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    artifact = json.loads((out / "certificate.json").read_text())
    assert artifact["columns"] == ["check", "value", "threshold", "status", "note"]
    assert artifact["rows"] == [[c.name, c.value, c.threshold, "pass" if c.passed else "fail", c.note]
                                for c in checks]


def test_certify_out_writes_the_manifest_of_run(tmp_path):
    """certify --out lists its artifact and summary in a manifest of the same
    layout as run's, recording the certify arguments as its config."""
    out = tmp_path / "cert"
    assert main(["certify", "su2", "--epsilon", "0.2", "--points", "3", "--out", str(out),
                 "--format", "json"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"model": "su2", "epsilon": 0.2, "seed": 0, "points": 3}
    assert manifest["files"] == ["certificate.json", "manifest.json"]
    assert manifest["artifacts"]["certificate"]["files"] == ["certificate.json"]
    assert manifest["certificates_passed"] is True
    summary = json.loads((out / "certificate.json").read_text())["summary"]
    assert manifest["artifacts"]["certificate"]["summary"] == summary


def _no_work(*args, **kwargs):
    raise AssertionError("work began before --out was checked")


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
@pytest.mark.parametrize("argv", [
    ["run", "{cfg}"],
    ["sweep", "{cfg}", "--param", "rho", "--values", "1.4,2"],
    ["certify", "su2", "--epsilon", "0.2"],
], ids=["run", "sweep", "certify"])
def test_out_at_or_under_a_file_is_config_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                                argv, under):
    """An --out that names an existing file, or a path under one, is a config
    error naming out before any artifact is built or any check run; the
    file is left as it was."""
    for name in ("run_scenario", "sweep_scenario", "certify"):
        monkeypatch.setattr(cli, name, _no_work)
    cfg = write_cfg(tmp_path, SU2_CFG)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    args = [a.format(cfg=cfg) for a in argv] + ["--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().out == f"config error: out: {str(blocker)!r} exists and is not a directory\n"
    assert blocker.read_text() == "kept\n"


def test_genuine_su2_certificate_runs_clean_with_warnings_as_errors(tmp_path, capsys):
    """At rho 99 and eps 1e-3 the energy pipeline reads the exact motion to
    rounding, within 168 u H; with every RuntimeWarning an error the run
    exits 0 with every check PASS, and a sweep over rho has no failed row."""
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 1e-3, "rho": 99.0},
                               "outputs": ["certificate"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(tmp_path / "run"), "--format", "json"]) == 0
        assert main(["sweep", str(cfg), "--param", "rho", "--values", "1.4,99",
                     "--out", str(tmp_path / "sweep"), "--format", "json"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "certificates: PASS"
    cert = json.loads((tmp_path / "run" / "certificate.json").read_text())
    assert cert["columns"][:4] == ["check", "value", "threshold", "status"]
    rows = {r[0]: r for r in cert["rows"]}
    assert len(rows) == 8 and all(r[3] == "pass" for r in rows.values())
    energy = _su2_energy({"rho": 99.0, "n_re": 0.3, "n_im": 0.2})
    assert rows["energy_pipeline"][1] <= 168 * 2.0**-53 * energy
    sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert sweep["columns"][-1] == "status" and [r[-1] for r in sweep["rows"]] == ["ok", "ok"]


# the default start's trace energy, and the least |epsilon| its pipeline reads
_SU2_START_H = su2.free_energy(su2.SB2Element(1.4, 0.3 + 0.2j).matrix)
_SU2_LEAST_EPS = su2._least_epsilon(_SU2_START_H)


@pytest.mark.parametrize("epsilon", [1e-162, 1e-155, -1e-155])
def test_su2_epsilon_below_the_energy_pipeline_bound_is_config_error(tmp_path, capsys, epsilon):
    """energy_relations reads the start's squared radius as (H - 1) / (2 eps^2):
    at 1e-162 eps^2 was 0 and certify exited 1 on a division by zero, at
    1e-155 the radius overflowed and energy_pipeline FAILed with inf.  Both
    are config errors naming epsilon (certify) or params.epsilon (run)."""
    assert 4e-155 < _SU2_LEAST_EPS < 5e-155
    out = tmp_path / "out"
    assert main(["certify", "su2", f"--epsilon={epsilon!r}", "--points", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("config error: epsilon: the energy pipeline")
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": epsilon},
                               "outputs": ["certificate"]})
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("config error: params.epsilon: the energy pipeline")
    assert not out.exists()


@pytest.mark.parametrize("start", [(1.4, 0.3, 0.2), (1.0, 0.0, 0.0)])
def test_su2_certificate_passes_just_inside_the_energy_pipeline_bound(start):
    """At the least |epsilon| (2^-537 for a unitary start, where H - 1 = 0)
    and one float below it, the certificate PASSes and refuses."""
    params = {**cli._DEFAULTS["su2"], **dict(zip(("rho", "n_re", "n_im"), start))}
    least = su2._least_epsilon(su2.free_energy(su2.SB2Element(start[0], complex(*start[1:])).matrix))
    for epsilon in (least, -least):
        checks = su2.MODEL.certify({**params, "epsilon": epsilon}, 0, 2)
        assert all(c.passed for c in checks), epsilon
        with pytest.raises(ConfigError, match=r"^epsilon: "):
            su2.MODEL.certificate_check({**params, "epsilon": math.nextafter(epsilon, 0.0)}, "epsilon")
    su2.MODEL.certificate_check({**params, "epsilon": 0.0}, "epsilon")


@pytest.mark.parametrize("t_end", [1.0e-15, 5.0e-16, 1.0e-300])
def test_su2_t_end_at_or_below_the_end_tolerance_is_config_error(tmp_path, capsys, t_end):
    """The sample grid ends once t is within 1e-15 max(1, t_end) of t_end,
    so at t_end <= 1e-15 it has the start alone (when the run integrated,
    flow_diagnostics raised ValueError on the empty flow); run and sweep
    name params.t_end and write nothing."""
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2, "t_end": t_end},
                               "outputs": ["trajectory"]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("config error: params.t_end:")
    cfg = write_cfg(tmp_path, {"model": "su2", "params": {"epsilon": 0.2}, "outputs": []})
    assert main(["sweep", str(cfg), "--param", "t_end", "--values", f"0.5,{t_end!r}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("config error: params.t_end:")
    assert not out.exists()
    above = math.nextafter(1e-15, 1.0)
    p = validate_config({"model": "su2", "params": {"epsilon": 0.2, "t_end": above}}).params
    assert MODELS["su2"].artifacts["trajectory"](p).columns["t"].tolist() == [0.0, above]


@pytest.mark.parametrize("centres", [(1.0, 1.0), (-1.0, -2.0), (0.0, -1.0), (1.0, 0.0)])
def test_minkowski2d_hyperbola_centres_on_one_side_are_config_error(tmp_path, capsys, centres):
    """c_plus c_minus >= 0 at epsilon != 0 exited 1 with a contract error from
    the hyperbola; it names params.c_minus and exits 2.  At epsilon 0 the
    curve is a line that ignores the centres, and the same config runs."""
    c_plus, c_minus = centres
    params = {"epsilon": 0.2, "c_plus": c_plus, "c_minus": c_minus}
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": params, "outputs": ["trajectory"]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("config error: params.c_minus:")
    assert not out.exists()
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": {**params, "epsilon": 0.0},
                               "outputs": ["trajectory"]})
    assert main(["run", str(cfg), "--out", str(out)]) == 0


def test_minkowski2d_scattering_at_epsilon_0_is_the_closed_form(tmp_path):
    """At epsilon 0 the line's velocity tends to tanh(alpha) only like beta / p;
    read at p = -+(40 + |beta|) it was 0.0222 off.  The run summary and the
    sweep row now read the limits to rounding."""
    cfg = write_cfg(tmp_path, {"model": "minkowski2d", "params": {"epsilon": 0.0},
                               "outputs": ["scattering"]})
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    summary = json.loads((out / "scattering.json").read_text())["summary"]
    assert summary["closed_vs_numeric"] <= 1e-15
    assert summary["v_in_numeric"] == pytest.approx(math.tanh(0.3), abs=1e-15)
    sweep = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", "epsilon", "--values", "0,0.2",
                 "--out", str(sweep), "--format", "json"]) == 0
    table = json.loads((sweep / "sweep.json").read_text())
    i_dev = table["columns"].index("scattering_dev")
    assert table["rows"][0][i_dev] <= 1e-15
