"""Configuration-driven scenario runner.

Every model is one :class:`~poismech.model.Model` record in ``MODELS``,
exported by its own module: the parameter schema, a cross-field check, the
artifact builders, the certificate and the sweep row.  This module holds no
model knowledge of its own.  It parses and validates configs against the
record's schema, dispatches to the record, and writes what comes back.

A scenario file is a small YAML mapping:

    model: <name>           # a key of MODELS
    seed: 3                 # feeds every randomized certificate point draw
    params:                 # knobs from the model's schema; epsilon is
      epsilon: 0.2          #   required, every other knob has a default
      t_end: 1.0
    outputs:                # the record's artifacts, plus "certificate",
      - trajectory          #   which runs every check of the model
      - certificate

Artifacts are written as CSV (UTF-8, comma separator, 17 significant digits,
header row) or JSON, plus a ``manifest.json`` that lists every emitted file
and the per-artifact summary statistics.  Outputs are a pure function of the
config and seed: running twice produces byte-identical files.  Randomized
certificate points come from numpy's seeded PCG64 generator, so they are
reproducible across runs of the same numpy generation.

Subcommands: ``run <config> --out <dir>`` builds the requested artifacts;
``sweep <config> --param <name> --values <v1,v2,...> --out <dir>`` writes
one row of the record's sweep scalars per value; ``certify <model>
--epsilon <e> --seed <s>`` runs the record's certificate at the schema
defaults.  A sweep runs its rows in this process, one after another.
"""
from __future__ import annotations

import argparse
import math
import os
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, ContractViolation, DivergenceError, EstimationError, StiffnessError
from .kappa import MODEL as KAPPA
from .minkowski2d import MODEL as MINKOWSKI2D
from .model import CERT_POINTS, INT, ArtifactData, CertCheck, Model
from .su2 import MODEL as SU2

MODELS: dict[str, Model] = {m.name: m for m in (MINKOWSKI2D, KAPPA, SU2)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: model, fully defaulted params, outputs, seed."""

    model: str
    params: Mapping[str, float]
    outputs: tuple[str, ...]
    seed: int

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "outputs": list(self.outputs),
            "seed": self.seed,
        }


def _check_real(path: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return value


def _check_int(path: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value)


def _check_at_least(path: str, value: int, least: int) -> int:
    if value < least:
        raise ConfigError(path, f"need at least {least}, got {value}")
    return value


def _validate_params(model: Model, raw: Any) -> dict[str, Any]:
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError("params", "must be a key: value mapping")
    out: dict[str, Any] = {}
    for key, value in raw.items():
        param = model.params.get(key)
        if param is None:
            raise ConfigError(
                f"params.{key}",
                f"unknown parameter for model {model.name!r} "
                f"(known: {', '.join(sorted(model.params))})",
            )
        check = _check_int if param.kind == INT else _check_real
        out[key] = check(f"params.{key}", value)
    for key, param in model.params.items():
        if key not in out:
            if param.default is None:
                raise ConfigError(f"params.{key}", "required")
            out[key] = param.default
        if param.positive and out[key] <= 0:
            raise ConfigError(f"params.{key}", f"must be positive, got {out[key]}")
        if param.minimum is not None:
            _check_at_least(f"params.{key}", out[key], param.minimum)
        if param.maximum is not None and out[key] > param.maximum:
            raise ConfigError(f"params.{key}", f"need at most {param.maximum}, got {out[key]}")
    model.check(out)
    return out


def validate_config(raw: Any) -> ScenarioConfig:
    if not isinstance(raw, Mapping):
        raise ConfigError("config", "top level must be a key: value mapping")
    allowed = {"model", "params", "outputs", "seed"}
    for key in raw:
        if key not in allowed:
            raise ConfigError(str(key), f"unknown key (allowed: {', '.join(sorted(allowed))})")
    name = raw.get("model")
    if name is None:
        raise ConfigError("model", "required")
    if not isinstance(name, str) or name not in MODELS:
        raise ConfigError(
            "model", f"unknown model {name!r} (one of: {', '.join(sorted(MODELS))})"
        )
    model = MODELS[name]
    seed = _check_at_least("seed", _check_int("seed", raw.get("seed", 0)), 0)
    params = _validate_params(model, raw.get("params"))
    outputs_raw = raw.get("outputs", [])
    if outputs_raw is None:
        outputs_raw = []
    if not isinstance(outputs_raw, Sequence) or isinstance(outputs_raw, str):
        raise ConfigError("outputs", "must be a list of artifact names")
    outputs: list[str] = []
    for i, entry in enumerate(outputs_raw):
        if entry not in model.outputs:
            raise ConfigError(
                f"outputs[{i}]",
                f"{entry!r} not available for model {name!r} "
                f"(valid: {', '.join(model.outputs)})",
            )
        if entry in outputs:
            raise ConfigError(f"outputs[{i}]", f"duplicate artifact {entry!r}")
        outputs.append(entry)
    if "certificate" in outputs:
        model.certificate_check(params, "params.epsilon")
    return ScenarioConfig(model=name, params=params, outputs=tuple(outputs), seed=seed)


def load_config(path: str | Path) -> ScenarioConfig:
    # PyYAML loads only here, where a config is read; libyaml's parser where
    # installed, PyYAML's own resolver and constructor either way: equal configs
    import yaml

    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=loader)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(str(path), f"not parseable: {exc}") from exc
    return validate_config(raw)


# ---------------------------------------------------------------------------
# artifacts


def _certificate_artifact(checks: list[CertCheck]) -> ArtifactData:
    columns = {
        "check": [c.name for c in checks],
        "value": [c.value for c in checks],
        "threshold": [c.threshold for c in checks],
        "status": ["pass" if c.passed else "fail" for c in checks],
        "note": [c.note for c in checks],
    }
    summary = {
        "passed": all(c.passed for c in checks),
        "checks": {c.name: c.value for c in checks},
    }
    return ArtifactData("certificate", columns, summary, checks=checks)


def build_artifact(config: ScenarioConfig, name: str) -> ArtifactData:
    model = MODELS[config.model]
    if name == "certificate":
        return _certificate_artifact(model.certify(config.params, config.seed, CERT_POINTS))
    return model.artifacts[name](config.params)


def scalar_summaries(config: ScenarioConfig) -> dict[str, Any]:
    """One row of the model's scalar observables for the configured scenario."""
    return MODELS[config.model].sweep_row(config.params)


# the schema defaults of every model, which certify runs at
_DEFAULTS = {name: {k: p.default for k, p in m.params.items()} for name, m in MODELS.items()}

# As the schemas' size bounds do for a run, this keeps every array a
# certificate builds at once within 2^24 floats.  The most per point is su2's
# stack of 8x8 bivector matrices on the group chart, 64 floats, so 2^18
# points (the Jacobi tensors go in chunks of bounded size).
_MAX_POINTS = 2**18


def certify(model: str, epsilon: float, seed: int, n_points: int) -> list[CertCheck]:
    """Every check of the model's certificate at ``epsilon`` and the schema
    defaults of its other parameters.  A non-finite epsilon, a negative seed,
    fewer than one point or more than ``_MAX_POINTS``, or an epsilon outside
    the certificate's domain is a ``ConfigError`` naming ``epsilon``,
    ``seed`` or ``points``."""
    params = {**_DEFAULTS[model], "epsilon": _check_real("epsilon", epsilon)}
    _check_at_least("seed", seed, 0)
    _check_at_least("points", n_points, 1)
    if n_points > _MAX_POINTS:
        raise ConfigError("points", f"need at most {_MAX_POINTS}, got {n_points}")
    record = MODELS[model]
    record.certificate_check(params, "epsilon")
    return record.certify(params, seed, n_points)


def minkowski2d_certificate(epsilon: float, seed: int, n_points: int) -> list[CertCheck]:
    return certify("minkowski2d", epsilon, seed, n_points)


def kappa_certificate(epsilon: float, seed: int, n_points: int) -> list[CertCheck]:
    return certify("kappa", epsilon, seed, n_points)


def su2_certificate(epsilon: float, seed: int, n_points: int) -> list[CertCheck]:
    return certify("su2", epsilon, seed, n_points)


# ---------------------------------------------------------------------------
# writers


_CHUNK_ROWS = 256  # rows rendered and written at a time, which bounds a writer's memory
_JSON_RANGE = "Out of range float values are not JSON compliant: "  # the stdlib encoder's text


def _first_infinity(columns: Mapping[str, Any]) -> float | None:
    """The first infinite cell in row order, as a row-by-row writer meets it,
    or None."""
    first = None  # (row, value)
    for col in columns.values():
        if isinstance(col, np.ndarray):
            rows = np.flatnonzero(np.isinf(col))
            hit = (rows[0], float(col[rows[0]])) if rows.size else None
        else:
            hit = next(((i, float(v)) for i, v in enumerate(col)
                        if isinstance(v, (float, np.floating)) and math.isinf(v)), None)
        if hit is not None and (first is None or hit[0] < first[0]):
            first = hit
    return None if first is None else first[1]


def _fmt_cell(value: Any) -> str:
    """One CSV cell of a column that is not a float array; never infinite."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_value(obj: Any, indent: str = "") -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``
    writes it at the nesting ``indent``, taking numpy scalars and arrays as
    their python values, a tuple as a list, a key as its ``str`` and NaN as
    null.  An infinity is a ``ValueError`` with the stdlib's text."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isinf(value):
            raise ValueError(f"{_JSON_RANGE}{value!r}")
        return "null" if value != value else float.__repr__(value)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = indent + "  "
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        body = [f"{encode_basestring_ascii(k)}: {_json_value(v, inner)}" for k, v in items]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        body = [_json_value(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not body:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(body) + f"\n{indent}{brackets[1]}"


def _json_text(name: str, obj: Any, indent: str = "") -> str:
    try:
        return _json_value(obj, indent)
    except ValueError as exc:  # JSON has no infinity
        raise ContractViolation(f"{name}: {exc}") from exc


def _create(path: Path) -> IO[str]:
    """``path`` as a new file; ext4 flushes a truncated one at close (auto_da_alloc)."""
    path.unlink(missing_ok=True)
    return open(path, "x", encoding="utf-8")


def _write_rows(path: Path, head: str, row: str, sep: str, cells: list, null: str | None,
                tail: str) -> None:
    """Write ``head``, then ``row % (one row's cells)`` for every row, joined
    by ``sep``, then ``tail``.  A float column's NaN is the text ``null`` when
    that is given.  Rows are rendered a column at a time and written
    ``_CHUNK_ROWS`` at a time; no value can make this raise."""
    n = len(cells[0]) if cells else 0
    with _create(path) as f:
        f.write(head)
        for start in range(0, n, _CHUNK_ROWS):
            chunk = []
            for col in cells:
                part = col[start:start + _CHUNK_ROWS]
                if isinstance(part, np.ndarray):
                    nan = np.flatnonzero(np.isnan(part)).tolist() if null else ()
                    part = part.tolist()
                    for i in nan:
                        part[i] = null
                chunk.append(part)
            if start:
                f.write(sep)
            f.write(sep.join([row % values for values in zip(*chunk)]))
        f.write(tail)


def write_artifact(data: ArtifactData, out_dir: Path, fmt: str) -> list[str]:
    """Write one artifact; returns the filenames created.  Whatever can fail
    (an infinity in a cell or in the summary, which the manifest carries in
    either format) fails before the file is created, so an old file stays.

    CSV writes a float column through ``%.17g``, the text of
    ``format(v, ".17g")``, and NaN as ``nan``; JSON writes the layout of
    ``json.dumps(..., sort_keys=True, indent=2)``, a float by its ``repr``
    and NaN as null."""
    if fmt not in ("csv", "json"):
        raise ContractViolation(f"format must be 'csv' or 'json', got {fmt!r}")
    inf = _first_infinity(data.columns)
    if inf is not None:
        detail = (f"infinite value {inf}; CSV, like JSON, has no infinity" if fmt == "csv"
                  else f"{_JSON_RANGE}{inf!r}")
        raise ContractViolation(f"{data.name}: {detail}")
    summary = _json_text(data.name, data.summary, "  ")
    fname = f"{data.name}.{fmt}"
    if fmt == "csv":
        cells = [col if isinstance(col, np.ndarray) else [_fmt_cell(v) for v in col]
                 for col in data.columns.values()]
        row = "\n" + ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in cells)
        _write_rows(out_dir / fname, ",".join(data.columns), row, "", cells, None, "\n")
    else:
        cells = [col if isinstance(col, np.ndarray) else [_json_value(v, "      ") for v in col]
                 for col in data.columns.values()]
        row = "    [\n      " + ",\n      ".join(["%s"] * len(cells)) + "\n    ]"
        rows = bool(cells) and len(cells[0]) > 0
        head = '{\n  "columns": ' + _json_value(list(data.columns), "  ") + ',\n  "rows": ['
        tail = '],\n  "summary": ' + summary + "\n}\n"
        _write_rows(out_dir / fname, head + "\n" * rows, row, ",\n", cells, "null",
                    "\n  " * rows + tail)
    return [fname]


def _files_under(root: str | Path) -> Iterator[str]:
    """Every entry under ``root`` but a directory, as ``sub/dir/name``; a
    symlink is listed, not followed, whether to a file, a directory or none."""
    with os.scandir(root) as entries:
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                yield from (f"{entry.name}/{name}" for name in _files_under(entry.path))
            else:
                yield entry.name


def write_manifest(out_dir: Path, manifest: dict) -> None:
    stray = sorted(set(_files_under(out_dir)) - set(manifest["files"]) - {"manifest.json"})
    text = _json_text("manifest", {**manifest, "unmanaged_files": stray} if stray else manifest)
    with _create(out_dir / "manifest.json") as f:
        f.write(text + "\n")


# ---------------------------------------------------------------------------
# runners


def _write_outputs(out_dir: Path, fmt: str, config: dict,
                   artifacts: Iterable[ArtifactData]) -> tuple[dict, bool]:
    """Write each artifact as it comes, then the manifest that records
    ``config``.  Returns (manifest, certificates_ok)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: dict[str, dict] = {}
    files = ["manifest.json"]
    all_passed = True
    for data in artifacts:
        written = write_artifact(data, out_dir, fmt)
        files.extend(written)
        entries[data.name] = {"files": written, "summary": data.summary}
        if data.checks is not None:
            all_passed = all_passed and all(c.passed for c in data.checks)
    manifest = {
        "version": __version__,
        "format": fmt,
        "config": config,
        "artifacts": entries,
        "certificates_passed": all_passed,
        "files": sorted(files),
    }
    write_manifest(out_dir, manifest)
    return manifest, all_passed


def run_scenario(config: ScenarioConfig, out_dir: Path, fmt: str = "csv") -> tuple[dict, bool]:
    """Build and write the requested artifacts one at a time.  Returns
    (manifest, certificates_ok)."""
    built = (build_artifact(config, name) for name in config.outputs)
    return _write_outputs(out_dir, fmt, config.as_dict(), built)


def sweep_scenario(
    config: ScenarioConfig,
    param: str,
    values: Sequence[Any],
    out_dir: Path,
    fmt: str = "csv",
    workers: int = 1,
) -> tuple[dict, bool]:
    """One scenario row per parameter value, computed in this process one
    after another.  Returns (manifest, all_ok)."""
    # workers stays only for the benchmark's workers=1 call (ROADMAP item 1)
    if workers != 1:
        raise ContractViolation(f"sweeps run in-process, so workers must be 1, got {workers!r}")
    model = MODELS[config.model]
    if param not in model.params:
        raise ConfigError(f"params.{param}", f"unknown parameter for model {config.model!r}")
    if not values:
        raise ConfigError("values", "need at least one value")
    tasks = [
        replace(config, params=_validate_params(model, {**config.params, param: v}))
        for v in values
    ]
    results: list[tuple[dict | None, str]] = []
    for task in tasks:
        try:
            results.append((scalar_summaries(task), "ok"))
        except Exception as exc:  # noqa: BLE001 — a failed row must not kill the sweep
            results.append((None, f"failed:{type(exc).__name__}"))

    keys: list[str] = []
    for row, status in results:
        if row is not None:
            keys = list(row.keys())
            break
    columns = {param: list(values)}
    for k in keys:  # a failed row holds NaN
        columns[k] = [math.nan if row is None else row[k] for row, _ in results]
    columns["status"] = [status for _, status in results]
    all_ok = all(row is not None for row, _ in results)
    data = ArtifactData("sweep", columns, {"parameter": param, "n_values": len(values)})

    out_dir.mkdir(parents=True, exist_ok=True)
    written = write_artifact(data, out_dir, fmt)
    manifest = {
        "version": __version__,
        "format": fmt,
        "config": config.as_dict(),
        "sweep": {
            "parameter": param,
            "values": list(values),
            "files": written,
            "all_ok": all_ok,
        },
        "files": sorted(["manifest.json", *written]),
    }
    write_manifest(out_dir, manifest)
    return manifest, all_ok


# ---------------------------------------------------------------------------
# command line


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="poismech",
        description="Scenario runner for deformed free-motion models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="YAML scenario file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep_p = sub.add_parser("sweep", help="rerun a scenario over parameter values")
    sweep_p.add_argument("config", help="YAML scenario file")
    sweep_p.add_argument("--param", required=True, help="parameter name to vary")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")

    cert_p = sub.add_parser("certify", help="run only the bracket/invariant certificates")
    cert_p.add_argument("model", choices=sorted(MODELS))
    cert_p.add_argument("--epsilon", type=float, required=True)
    cert_p.add_argument("--seed", type=int, default=0)
    cert_p.add_argument("--points", type=int, default=CERT_POINTS)
    cert_p.add_argument("--out", default=None, help="optional output directory")
    cert_p.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


def _parse_values(raw: str, integer: bool) -> list:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok) if integer else float(tok))
        except ValueError as exc:
            raise ConfigError("values", f"cannot parse {tok!r}") from exc
    return out


def _out_dir(raw: str) -> Path:
    """``--out`` as a path, checked before any work: the nearest part of it
    that exists (a dangling symlink counts) must be a directory."""
    out = Path(raw)
    for part in (out, *out.parents):
        if os.path.lexists(part):
            if not part.is_dir():
                raise ConfigError("out", f"{str(part)!r} exists and is not a directory")
            break
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = None if args.out is None else _out_dir(args.out)
        if args.command == "run":
            config = load_config(args.config)
            manifest, ok = run_scenario(config, out, args.format)
            for name, entry in manifest["artifacts"].items():
                print(f"wrote {', '.join(entry['files'])} [{name}]")
            if any(n == "certificate" for n in config.outputs):
                print(f"certificates: {'PASS' if ok else 'FAIL'}")
            return 0 if ok else 1

        if args.command == "sweep":
            config = load_config(args.config)
            param = MODELS[config.model].params.get(args.param)
            values = _parse_values(args.values, param is not None and param.kind == INT)
            manifest, ok = sweep_scenario(
                config, args.param, values, out, args.format
            )
            print(f"wrote {', '.join(manifest['sweep']['files'])} ({len(values)} rows)")
            if not ok:
                print("sweep: some rows failed")
            return 0 if ok else 1

        checks = certify(args.model, args.epsilon, args.seed, args.points)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            print(f"{status}  {c.name}: {c.value:.3e} (threshold {c.threshold:.1e}){note}")
        ok = all(c.passed for c in checks)
        if out is not None:
            config = {"model": args.model, "epsilon": args.epsilon, "seed": args.seed,
                      "points": args.points}
            _write_outputs(out, args.format, config, [_certificate_artifact(checks)])
        print(f"certificates: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2
    except (ContractViolation, ArithmeticError, DivergenceError, EstimationError, StiffnessError,
            np.linalg.LinAlgError, OSError) as exc:  # the model failed on these params
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
