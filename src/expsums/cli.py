"""Command-line front end.

Subcommands: gen (structured set generators), norm (certified L1 enclosure),
kernel (flat-top values as CSV), thin (residue-class thinning), verify
(named inequality verdicts), suite (the full acceptance run).

Reports are UTF-8 JSON with sorted keys wrapped as {"config", "result",
"meta"}; everything volatile (timestamp, wall time) lives under "meta", so
two runs with the same config and seed are byte-identical after dropping
that one key.  A JSON config file can supply defaults for the common flags;
explicit flags win.  Every verify theorem returns one InequalityVerdict.
Exit codes: 0 success (a verify verdict certified, or multidimz's passed;
or --no-fail), 1 verdict failure, 2 bad usage or parameters, 3 resource
limits.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import BACKEND, acceptance
from .bounds import (DEFAULT_C_MPS, InequalityVerdict, _check_c_mps, as_poly,
                     bernstein_check, constant_scan, family_intervals,
                     family_random_sets, verify_basic_multidim,
                     verify_main_prop, verify_mps, verify_multidim,
                     verify_multidimz)
from .core import (IntegerSet, LatticeSet, TrigPoly, _check_i64, _check_real,
                   from_json_obj, indicator_poly)
from .errors import MemoryBudgetError
from .kernels import flat_top_build
from .modulus import ResidueFilter, thinning_transform
from .quadrature import (_memory_budget, _recentred_degree, certified_l1,
                         riemann_l1, riemann_rho)
from .structures import (build_strong_integer, build_strong_lattice,
                         gap_rank2, validate_certificate)

USAGE_ERROR = 2
RESOURCE_ERROR = 3


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    command: str
    input: str | None = None
    set_spec: str | None = None
    params: dict | None = None
    theorem: str | None = None
    kind: str | None = None
    rel_err: float = 0.1
    c_mps: float = DEFAULT_C_MPS
    seed: int = acceptance.DEFAULT_SEED
    memory_budget: int | None = None
    output: str | None = None
    csv_path: str | None = None
    count: int | None = None
    grid: int | None = None
    no_fail: bool = False
    inject_kernel_fault: bool = False
    skip_determinism: bool = False
    delta: float = 1.0
    d1: int | None = None
    d2: int | None = None
    q: int | None = None
    s: int = 0
    m: int | None = None
    n: int | None = None
    force: bool = False

    def echo(self) -> dict:
        # config echo for the report: every setting but where the output
        # goes and whether the replay ran
        return {k: v for k, v in self.__dict__.items()
                if k not in ("output", "csv_path", "skip_determinism")}


# the --set shorthands of parse_set_spec, for norm, thin and verify alike
SET_HELP = ("shorthand: interval:N, range:a:b, gap:a,b,M,N, random:size,span, "
            "box:n1,n2,..., zbox:[deltas;]n1,n2,...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsums",
        description="Certified L1 norms of exponential sums and the "
                    "structured-set machinery built on them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with default flag values")
        p.add_argument("--rel-err", type=float, default=None,
                       help="target relative enclosure width (default 0.1)")
        p.add_argument("--c-mps", type=float, default=None,
                       help="absolute constant for coefficient-decay bounds "
                            "(default 0.25)")
        p.add_argument("--seed", type=int, default=None,
                       help="64-bit seed for anything randomized")
        p.add_argument("--memory-budget", type=int, default=None,
                       help="sample-grid budget in bytes (overrides "
                            "EXPSUMS_MEMORY_BUDGET)")
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--no-fail", action="store_true", default=None,
                       help="exit 0 even when verdicts fail")

    p = sub.add_parser("gen", help="generate a structured set plus certificate")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=["gap", "lattice-box", "lattice-random",
                            "zstrong-box", "zstrong-random"])
    p.add_argument("--params", default="{}",
                   help='JSON parameters, e.g. \'{"a":1,"b":10,"M":3,"N":2}\'')
    p.add_argument("--force", action="store_true", default=None,
                   help="skip the a*M < b distinctness precondition")

    p = sub.add_parser("norm", help="certified L1 enclosure of a set or polynomial")
    common(p)
    p.add_argument("--input", help="JSON file with a set or polynomial")
    p.add_argument("--set", dest="set_spec", help=SET_HELP)

    p = sub.add_parser("kernel", help="flat-top kernel values as CSV")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("thin", help="keep the blocks of one residue class")
    common(p)
    p.add_argument("--input", help="JSON file with a set or polynomial")
    p.add_argument("--set", dest="set_spec", help=SET_HELP)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, default=None)

    p = sub.add_parser("verify", help="run one named inequality verification")
    common(p)
    p.add_argument("--theorem", required=True, choices=list(_THEOREMS))
    p.add_argument("--input", help="JSON file with the instance")
    p.add_argument("--set", dest="set_spec", help=SET_HELP)
    p.add_argument("--params", default=None, help="JSON parameters")
    p.add_argument("--count", type=int, default=None,
                   help="instances for property-style runs")
    p.add_argument("--grid", type=int, default=None,
                   help="sample count for --theorem numerical")
    p.add_argument("--csv", dest="csv_path", default=None,
                   help="also write the verdict's rows as CSV")

    p = sub.add_parser("suite", help="run the full acceptance suite")
    common(p)
    p.add_argument("--inject-kernel-fault", action="store_true", default=None,
                   help="negative control: corrupt one kernel, criterion 1 "
                        "must fail")
    p.add_argument("--skip-determinism", action="store_true", default=None,
                   help="skip the replay comparison (criterion 11)")
    return parser


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _read_json(args.config, "config file")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg = ExperimentConfig(command=args.command)
    # every setting: the flag, else the config file's value, else the default
    for field in fields(cfg):
        value = getattr(args, field.name, None)
        if value is None:
            value = file_cfg.get(field.name)
        if value is None or field.name in ("command", "params"):
            continue
        setattr(cfg, field.name, value)
    for key in ("count", "grid"):
        val = getattr(cfg, key)
        if val is not None and (type(val) is not int or val < 1):  # bool is an int too
            raise ConfigError(f"--{key} must be an integer of at least 1, "
                              f"got {val!r}")
    params = getattr(args, "params", None)
    if params is None:
        cfg.params, source = file_cfg.get("params"), "the config file's params"
    else:
        source = "--params"
        try:
            cfg.params = json.loads(params) if isinstance(params, str) else params
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--params is not valid JSON: {exc}") from exc
    if cfg.params is not None and not isinstance(cfg.params, dict):
        raise ConfigError(f"{source} must be a JSON object, "
                          f"got {type(cfg.params).__name__}")
    # checked here for exit 2; every command passes it on as given
    if cfg.memory_budget is not None:
        try:
            _memory_budget(cfg.memory_budget)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    # every file value, the ones a flag overrides too, of its field's type;
    # memory_budget may be written 2e9, so any number, checked above
    types = typing.get_type_hints(ExperimentConfig) | {"memory_budget": float}
    for key, value in file_cfg.items():
        _check_file_value(key, value, types)
    return cfg


def _check_file_value(key: str, value, types: dict) -> None:
    """A ConfigError naming ``key`` when the config file's ``value`` is not
    of the type ``types`` gives it (null leaves it unset), or no type is
    given for that name."""
    if key not in types:
        near = difflib.get_close_matches(key, types, n=1)
        raise ConfigError(f"config file has an unknown key {key!r}"
                          + (f" (did you mean {near[0]!r}?)" if near else ""))
    if value is None:
        return
    (kind,) = set(typing.get_args(types[key]) or (types[key],)) - {type(None)}
    if kind is bool:
        _boolean(key, value)
    # a JSON integer is a number too; true and false are neither
    elif isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        what = {int: "an integer", float: "a number", str: "a string", dict: "an object"}[kind]
        raise ConfigError(f"config file key {key} must be {what}, got {value!r}")


def _boolean(key: str, value) -> bool:
    """``value`` when it is JSON true or false, else a ConfigError naming ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def parse_set_spec(spec: str, seed: int):
    """Decode the --set shorthand.  Returns (set, certificate | None)."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "interval":
            n = int(rest)
            return IntegerSet.from_iterable(range(1, n + 1)), None
        if kind == "range":
            a, b = (int(x) for x in rest.split(":"))
            return IntegerSet.from_iterable(range(a, b + 1)), None
        if kind == "gap":
            a, b, m, n = (int(x) for x in rest.split(","))
            return gap_rank2(a, b, m, n), None
        if kind == "random":
            size, span = (int(x) for x in rest.split(","))
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            els = np.sort(rng.choice(span, size=size, replace=False))
            return IntegerSet.from_iterable(int(x) for x in els), None
        if kind == "box":
            sizes = tuple(int(x) for x in rest.split(","))
            return build_strong_lattice(sizes)
        if kind == "zbox":
            parts = rest.split(";")
            sizes = tuple(int(x) for x in parts[-1].split(","))
            deltas = (tuple(float(x) for x in parts[0].split(","))
                      if len(parts) > 1 else (1.0,) * (len(sizes) - 1))
            return build_strong_integer(deltas, sizes)
    except (OverflowError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad --set spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown --set kind {kind!r}")


def load_instance(cfg: ExperimentConfig):
    """The instance for norm/thin/verify: (object, certificate | None)."""
    if cfg.set_spec:
        return parse_set_spec(cfg.set_spec, cfg.seed)
    if cfg.input:
        obj = _read_json(cfg.input, "input")
        from .structures import DimCertificate

        # accept a report emitted by an earlier run
        if isinstance(obj, dict) and isinstance(obj.get("result"), dict) \
                and ("set" in obj["result"] or "thinned" in obj["result"]):
            obj = obj["result"]
        if isinstance(obj, dict) and "thinned" in obj:
            return _decoded(cfg.input, "thinned", from_json_obj, obj["thinned"]), None
        if isinstance(obj, dict) and "set" in obj:
            cert = (_decoded(cfg.input, "certificate", DimCertificate.from_json_dict,
                             obj["certificate"]) if obj.get("certificate") else None)
            return _decoded(cfg.input, "set", from_json_obj, obj["set"]), cert
        field = next((key for key in ("terms", "points", "elements")
                      if isinstance(obj, dict) and key in obj), None)
        if field is None:
            raise ConfigError(f"input {cfg.input} must hold a JSON object with one "
                              f"of the keys set, thinned, terms, points, elements")
        return _decoded(cfg.input, field, from_json_obj, obj), None
    raise ConfigError("need --input or --set")


def _decoded(path: str, field: str, decode, value):
    """decode(value), or a ConfigError naming the input file and the field."""
    try:
        return decode(value)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"input {path}: bad {field!r} "
                          f"({type(exc).__name__}: {exc})") from exc


# the --params keys each gen kind cannot do without
_GEN_REQUIRED = {"gap": ("a", "b", "M", "N"), "lattice-box": ("sizes",),
                 "lattice-random": ("sizes",), "zstrong-box": ("sizes",),
                 "zstrong-random": ("sizes",)}


def cmd_gen(cfg: ExperimentConfig):
    params = cfg.params or {}
    missing = [key for key in _GEN_REQUIRED.get(cfg.kind, ()) if key not in params]
    if missing:
        raise ConfigError(f"gen --kind {cfg.kind} needs --params keys "
                          f"{', '.join(missing)}")
    if cfg.kind == "gap":
        force = _boolean("--params force", params.get("force", False))
        A = gap_rank2(params["a"], params["b"], params["M"], params["N"],
                      force=cfg.force or force)
        return {"set": A.to_json_dict(), "certificate": None,
                "size": len(A)}, True
    if cfg.kind in ("lattice-box", "lattice-random"):
        mode = "box" if cfg.kind.endswith("box") else "random"
        A, cert = build_strong_lattice(tuple(params["sizes"]), mode, cfg.seed)
    else:
        shape = "box" if cfg.kind.endswith("box") else "random"
        sizes = tuple(params["sizes"])
        deltas = tuple(params.get("deltas", (1.0,) * (len(sizes) - 1)))
        A, cert = build_strong_integer(deltas, sizes, shape, cfg.seed,
                                       stretch=params.get("stretch", 1.0))
    report = validate_certificate(A, cert)
    return {"set": A.to_json_dict(), "certificate": cert.to_json_dict(),
            "size": len(A), "validation": report.to_json_dict()}, report.ok


def cmd_norm(cfg: ExperimentConfig):
    obj, _ = load_instance(cfg)
    f = as_poly(obj)
    enc = certified_l1(f, cfg.rel_err, cfg.memory_budget)
    return enc.to_json_dict(), True


def cmd_kernel(cfg: ExperimentConfig):
    kern = flat_top_build(cfg.m, cfg.n)
    den = kern.denominator
    rows = [(k, str(Fraction(v, den)), v / den)
            for k, v in zip(kern.freqs.tolist(), kern.values.tolist())]
    return {"csv_rows": rows, "csv_header": ("k", "value_exact", "value_float"),
            "m": cfg.m, "n": cfg.n,
            "support_limit": kern.support_limit}, True


def cmd_thin(cfg: ExperimentConfig):
    obj, _ = load_instance(cfg)
    F = as_poly(obj)
    flt = ResidueFilter(cfg.q, cfg.s)
    thinned, factor = thinning_transform(F, cfg.d1, cfg.d2, cfg.delta, flt)
    kept = sorted({(f + cfg.d2 // 2) // cfg.d2 for (f,) in thinned.terms})
    return {"thinned": thinned.to_json_dict(),
            "bound_factor": factor,
            "filter": flt.to_json_dict(),
            "kept_blocks": kept,
            "terms_in": len(F), "terms_out": len(thinned)}, True


def _single_or_none(cfg: ExperimentConfig):
    if cfg.set_spec or cfg.input:
        return load_instance(cfg)
    return None


def _verify_mps(cfg):
    inst = _single_or_none(cfg)
    if inst is not None:
        return verify_mps(inst[0], cfg.c_mps, cfg.rel_err, cfg.memory_budget)
    # scan mode: intervals plus seeded random sets; the least ratio of
    # lhs.lo to the constant-free rhs must reach c_mps
    threshold = _check_c_mps(cfg.c_mps)
    count = 10 if cfg.count is None else cfg.count
    family = family_intervals(range(4, 129))
    family += family_random_sets(count, 64, 10 ** 5,
                                 seed=int(cfg.seed) * 11 + 8)
    scan = constant_scan(family, mode="mps", rel_err=cfg.rel_err,
                         memory_budget=cfg.memory_budget)
    return InequalityVerdict("mps-scan", scan.min_ratio, threshold, threshold,
                             extras={"argmin": scan.argmin, "count": len(scan.rows),
                                     "median_ratio": scan.median_ratio},
                             rows=tuple(row.to_json_dict() for row in scan.rows))


def _verify_basic_multidim(cfg):
    inst = _single_or_none(cfg)
    if inst is None or not isinstance(inst[0], LatticeSet):
        raise ConfigError("basic-multidim needs a lattice set "
                          "(--set box:n1,n2 or --input)")
    return verify_basic_multidim(inst[0], cfg.c_mps, cfg.rel_err, cfg.memory_budget)


def _verify_multidim(cfg):
    inst = _single_or_none(cfg)
    if inst is None or inst[1] is None:
        raise ConfigError("multidim needs a set with a certificate "
                          "(--set box:n1,n2 or --input with certificate)")
    return verify_multidim(inst[0], inst[1], cfg.c_mps, cfg.rel_err, cfg.memory_budget)


def _verify_multidimz(cfg):
    inst = _single_or_none(cfg)
    if inst is None or inst[1] is None:
        raise ConfigError("multidimz needs a set with a certificate "
                          "(--set zbox:n1,n2 or --input with certificate)")
    params = cfg.params or {}
    override = params.get("constant_override")
    return verify_multidimz(inst[0], inst[1], cfg.c_mps, cfg.rel_err,
                            override, cfg.memory_budget)


def _integer(value) -> int:
    return _check_i64(value, "value")


def _real(value) -> float:
    return _check_real(value, "value")


# each key of a main-prop --input file and the conversion of its value
_MAIN_PROP_FIELDS = {
    "blocks": lambda v: {_check_i64(k, "block index"): TrigPoly.from_json_dict(p)
                         for k, p in v},
    "d1": _integer, "d2": _integer, "delta": _real, "q": _integer, "s": _integer}


def _verify_main_prop(cfg):
    if cfg.input:
        obj = _read_json(cfg.input, "input")
        if not isinstance(obj, dict) or not all(k in obj for k in _MAIN_PROP_FIELDS):
            raise ConfigError(f"input {cfg.input} must hold a JSON object with the "
                              f"keys {', '.join(_MAIN_PROP_FIELDS)}")
        blocks, d1, d2, delta, q, s = (_decoded(cfg.input, key, convert, obj[key])
                                       for key, convert in _MAIN_PROP_FIELDS.items())
    else:
        blocks = {k: indicator_poly(IntegerSet.from_iterable(range(-10, 11)))
                  for k in range(26)}
        d1, d2, delta, q, s = 10, 44, 1.0, 13, 0
    return verify_main_prop(blocks, d1, d2, delta, q, s, cfg.c_mps,
                            cfg.rel_err, cfg.memory_budget)


def _verify_bernstein(cfg):
    inst = _single_or_none(cfg)
    if inst is None:
        raise ConfigError("bernstein needs --input or --set")
    return bernstein_check(as_poly(inst[0]), cfg.rel_err, cfg.memory_budget)


def _verify_numerical(cfg):
    inst = _single_or_none(cfg)
    if inst is None:
        sets = [IntegerSet.from_iterable(range(-d, d + 1))
                for d in (10, 50, 200)]
    else:
        sets = [inst[0]]
    rows = []
    for A in sets:
        f = as_poly(A)
        if f.rank != 1:
            raise ConfigError("numerical applies to rank-1 polynomials")
        # |f| is translation invariant, so the recentred degree sets the grid;
        # the default is the smallest multiple of 4 with rho <= 1/4
        d = max(_recentred_degree(f)[0], 1)
        grid = 4 * math.ceil(math.pi * d) if cfg.grid is None else cfg.grid
        enc = certified_l1(f, cfg.rel_err, cfg.memory_budget)
        mean = riemann_l1(f, grid, cfg.memory_budget)
        rho = riemann_rho(d, grid)
        good = enc.lo * (1 - rho) <= mean <= enc.hi * (1 + rho)
        rows.append({"degree": d, "grid": grid, "mean": mean,
                     "lo": enc.lo, "hi": enc.hi, "rho": rho, "ok": good})
    return InequalityVerdict("numerical", rows=tuple(rows))


def _verify_kernel(cfg):
    params = cfg.params or {}
    given = [key for key in ("m", "n") if key in params]
    if len(given) == 1:
        raise ConfigError(f"kernel takes both m and n in --params, "
                          f"got only {given[0]}")
    if given:
        pairs = [(_check_i64(params["m"], "m"), _check_i64(params["n"], "n"))]
    else:
        pairs = [(m, n) for n in range(3, 41) for m in range(2, n)]
    checks = [acceptance.kernel_check(m, n, _check_i64(params.get("r", 2 * n + 4 * m + 1), "r"),
                                      cfg.memory_budget) for m, n in pairs]
    # a batch lists only its failing pairs, which decide the verdict alike
    rows = tuple(row for row in checks if len(pairs) == 1 or not row["ok"])
    return InequalityVerdict("kernel", extras={"pairs": len(pairs)}, rows=rows)


def _verify_thinning(cfg):
    count = 10 if cfg.count is None else cfg.count
    configs = acceptance.thinning_configs(cfg.seed, count)
    rows = tuple({"index": i, **acceptance.thinning_check(*config, cfg.rel_err,
                                                          cfg.memory_budget)}
                 for i, config in enumerate(configs))
    return InequalityVerdict("thinning", extras={"count": count}, rows=rows)


def _verify_good_modulus(cfg):
    inst = _single_or_none(cfg)
    if inst is None:
        count = 100 if cfg.count is None else cfg.count
        sets = acceptance.good_modulus_sets(cfg.seed, count)
    elif isinstance(inst[0], IntegerSet):
        sets = [inst[0]]
    else:
        raise ConfigError("good-modulus takes an integer set")
    checks = [acceptance.good_modulus_check(I) for I in sets]
    # one set also reports its modulus, filter and kept elements
    extras = {"count": len(checks)} if inst is None else checks[0][0].to_json_dict()
    rows = tuple({"index": i, **row} for i, (_, row) in enumerate(checks))
    return InequalityVerdict("good-modulus", extras=extras, rows=rows)


_THEOREMS = {
    "mps": _verify_mps,
    "basic-multidim": _verify_basic_multidim,
    "multidim": _verify_multidim,
    "main-prop": _verify_main_prop,
    "multidimz": _verify_multidimz,
    "bernstein": _verify_bernstein,
    "numerical": _verify_numerical,
    "kernel": _verify_kernel,
    "thinning": _verify_thinning,
    "good-modulus": _verify_good_modulus,
}


# the --csv columns of the theorems whose rows hold more than their CSV
# shows; any other writes every key of its rows
_CSV_COLUMNS = {
    "thinning": ("index", "d1", "d2", "delta", "q", "s", "identity",
                 "certified", "slack"),
    "good-modulus": ("index", "size", "j0", "filtered", "ok"),
}


def cmd_verify(cfg: ExperimentConfig):
    verdict = _THEOREMS[cfg.theorem](cfg)
    if cfg.csv_path:
        if not verdict.rows:
            raise ConfigError(f"--csv: verify --theorem {cfg.theorem} reports no rows")
        header = _CSV_COLUMNS.get(cfg.theorem, tuple(verdict.rows[0]))
        _write_csv(cfg.csv_path, [header, *([_csv_cell(row[key]) for key in header]
                                            for row in verdict.rows)])
    # multidimz's size hypothesis cannot hold for a set small enough to
    # integrate, so its exit code follows the inequality alone
    ok = verdict.passed if cfg.theorem == "multidimz" else verdict.certified
    return verdict.to_json_dict(), ok


def _csv_cell(value):
    # a nested value (an enclosure, a list) as compact JSON
    return json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else value


def cmd_suite(cfg: ExperimentConfig):
    report = acceptance.run_all(cfg.seed, cfg.inject_kernel_fault, not cfg.skip_determinism,
                                cfg.memory_budget)
    for line in report.lines():
        print(line, file=sys.stderr)
    return report.to_json_dict(), report.all_passed


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _emit(cfg: ExperimentConfig, payload: dict, started: float) -> None:
    if cfg.command == "kernel":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(payload["csv_header"])
        w.writerows(payload["csv_rows"])
        text = buf.getvalue()
    else:
        report = {"config": cfg.echo(), "result": payload,
                  "meta": {"timestamp": datetime.now(timezone.utc).isoformat(),
                           "walltime": time.perf_counter() - started,
                           "backend": BACKEND}}
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "gen": cmd_gen,
    "norm": cmd_norm,
    "kernel": cmd_kernel,
    "thin": cmd_thin,
    "verify": cmd_verify,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = resolve_config(args)
        payload, passed = _COMMANDS[cfg.command](cfg)
        _emit(cfg, payload, started)
    # MemoryError: numpy refused an allocation; OSError: an unwritable
    # --output or --csv (an unreadable input is a ConfigError)
    except (MemoryBudgetError, MemoryError, OSError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if passed or cfg.no_fail:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
