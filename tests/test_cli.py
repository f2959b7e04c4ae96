"""End-to-end command-line checks through subprocesses."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import expsums
from expsums import acceptance
from expsums.cli import _write_csv, main
from expsums.core import from_json_obj, indicator_poly, recentre
from expsums.quadrature import _product_axes

REF_INTERVAL_101 = 2.859870343104319


def child_env(env_extra=None):
    # the child inherits PYTHONPATH, so it imports the tree under test
    return dict(os.environ, **(env_extra or {}))


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run([sys.executable, "-m", "expsums", *args],
                          capture_output=True, text=True,
                          env=child_env(env_extra), cwd=cwd)


def test_child_imports_tree_under_test():
    # a stale installed copy must not shadow the tree under test
    r = subprocess.run([sys.executable, "-c",
                        "import expsums; print(expsums.__file__)"],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert os.path.realpath(r.stdout.strip()) == os.path.realpath(
        expsums.__file__)


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stripped(path):
    """Report bytes with the volatile metadata removed."""
    obj = load_report(path)
    obj.pop("meta", None)
    return json.dumps(obj, sort_keys=True)


def test_gen_gap_exact(tmp_path):
    out = tmp_path / "gap.json"
    r = run_cli("gen", "--kind", "gap", "--params",
                '{"a":1,"b":10,"M":3,"N":2}', "--output", str(out))
    assert r.returncode == 0, r.stderr
    rep = load_report(out)
    assert rep["result"]["set"]["elements"] == [11, 12, 13, 21, 22, 23]
    assert rep["config"]["command"] == "gen"
    assert set(rep["meta"]) == {"timestamp", "walltime", "backend"}
    assert rep["meta"]["backend"] == "numpy"


def test_gen_validates_certificates(tmp_path):
    out = tmp_path / "z.json"
    r = run_cli("gen", "--kind", "zstrong-random", "--params",
                '{"sizes":[3,4]}', "--seed", "5", "--output", str(out))
    assert r.returncode == 0, r.stderr
    rep = load_report(out)
    assert rep["result"]["validation"]["ok"] is True
    assert rep["result"]["certificate"]["flavor"] == "integer"


def test_gen_bad_params_is_usage_error(tmp_path):
    r = run_cli("gen", "--kind", "gap", "--params", "1,2,3,4",
                "--output", str(tmp_path / "x.json"))
    assert r.returncode == 2
    assert "JSON" in r.stderr


@pytest.mark.parametrize("kind, params, missing", [
    ("gap", '{"a": 1}', "b, M, N"), ("lattice-box", "{}", "sizes"),
    ("zstrong-random", '{"deltas": [1.0]}', "sizes")])
def test_gen_missing_params_named(tmp_path, capsys, kind, params, missing):
    code = main(["gen", "--kind", kind, "--params", params,
                 "--output", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert kind in err and missing in err, err


@pytest.mark.parametrize("kind, params, message", [
    ("gap", '{"a": 1.5, "b": 10, "M": 3, "N": 2}', "generator a 1.5 is not an integer"),
    ("lattice-box", '{"sizes": [2.7, 3]}', "size 2.7 is not an integer"),
    ("zstrong-box", '{"sizes": [2.7, 3]}', "size 2.7 is not an integer")],
    ids=["gap", "lattice-box", "zstrong-box"])
def test_gen_fractional_params_are_usage_errors(tmp_path, capsys, kind, params, message):
    # not truncated: a = 1.5 is no set of a = 1, sizes [2.7, 3] no 2 x 3 box
    out = tmp_path / "x.json"
    code = main(["gen", "--kind", kind, "--params", params, "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err and not out.exists()


_ZBOX = ["verify", "--theorem", "multidimz", "--set", "zbox:4,4", "--params"]


@pytest.mark.parametrize("argv, key", [
    (_ZBOX + ['{"constant_override": true}'], "constant_override"),
    (_ZBOX + ['{"constant_override": "1e-3"}'], "constant_override"),
    (["gen", "--kind", "zstrong-box", "--params", '{"sizes": [4, 4], "stretch": true}'],
     "stretch"),
    (["gen", "--kind", "zstrong-box", "--params", '{"sizes": [4, 4], "deltas": [true]}'],
     "delta")],
    ids=["override-true", "override-string", "stretch-true", "delta-true"])
def test_number_params_must_be_json_numbers(tmp_path, capsys, argv, key):
    # not read as 1.0 or 0.001: true and "1e-3" are no numbers
    out = tmp_path / "x.json"
    code = main(argv + ["--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{key} must be a finite number" in err and not out.exists()
    # the same key with a JSON number runs
    number = argv[-1].replace('"1e-3"', "1e-3").replace("true", "1")
    assert main(argv[:-1] + [number, "--output", str(out)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["norm", "--set", "interval:10", "--rel-err", "1e-17"],
    ["verify", "--theorem", "mps", "--set", "interval:10", "--rel-err", "1e-300"],
    ["norm", "--set", "box:3,3", "--rel-err", "1e-16"]],
    ids=["norm", "mps", "box"])
def test_rel_err_too_small_for_float64_is_usage_error(tmp_path, capsys, argv):
    # the axis target rounds to 1: exit 2 naming rel_err, no traceback
    out = tmp_path / "x.json"
    code = main(argv + ["--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"rel_err {float(argv[-1])!r} is too small" in err and not out.exists()


@pytest.mark.parametrize("argv, value", [
    (["verify", "--theorem", "multidimz", "--set", "zbox:4,4"], "0"),
    (["verify", "--theorem", "multidimz", "--set", "zbox:4,4"], "nan"),
    (["verify", "--theorem", "multidimz", "--set", "zbox:4,4"], "inf"),
    (["verify", "--theorem", "mps", "--set", "interval:10"], "-1"),
    (["verify", "--theorem", "mps", "--count", "1"], "-1"),
    (["verify", "--theorem", "multidim", "--set", "box:4,4"], "-1"),
    (["verify", "--theorem", "basic-multidim", "--set", "box:4,4"], "-1"),
    (["verify", "--theorem", "main-prop"], "-1")],
    ids=["multidimz-0", "multidimz-nan", "multidimz-inf", "mps--1", "mps-scan--1",
         "multidim--1", "basic-multidim--1", "main-prop--1"])
def test_c_mps_must_be_a_finite_number_above_0(tmp_path, capsys, argv, value):
    # no verdict on a zero, negative or non-finite constant: exit 2 naming c_mps
    out = tmp_path / "x.json"
    code = main(argv + ["--c-mps", value, "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "c_mps must be a finite number" in err and not out.exists()


@pytest.mark.parametrize("argv, value", [
    (["verify", "--theorem", "multidim", "--set", "box:4,4"], "1e200"),
    (["verify", "--theorem", "multidimz", "--set", "zbox:4,4"], "1e-200"),
    (["verify", "--theorem", "multidimz", "--set", "zbox:4,4"], "1e120")],
    ids=["multidim-1e200", "multidimz-1e-200", "multidimz-1e120"])
def test_c_mps_whose_power_passes_float64_is_usage_error(tmp_path, capsys, argv, value):
    # c_mps^rank and c_mps^(+-3) overflow float64: exit 2 naming c_mps, no traceback
    out = tmp_path / "x.json"
    code = main(argv + ["--c-mps", value, "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"c_mps {float(value)!r} is out of range" in err and not out.exists()
    assert "Traceback" not in err


@pytest.mark.parametrize("delta", [True, "1.0"], ids=["true", "string"])
def test_certificate_delta_must_be_a_json_number(tmp_path, capsys, delta):
    # a certificate's delta of true or "1.0" is not read as 1.0: exit 2
    # naming the file and the field; the JSON number 1 runs
    gen_out = tmp_path / "z.json"
    assert main(["gen", "--kind", "zstrong-box", "--params", '{"sizes": [4, 4]}',
                 "--output", str(gen_out)]) == 0
    report = load_report(gen_out)
    for value, want in ((delta, 2), (1, 0)):
        report["result"]["certificate"]["delta"] = value
        path = tmp_path / "in.json"
        path.write_text(json.dumps(report))
        out = tmp_path / "v.json"
        code = main(["verify", "--theorem", "multidimz", "--input", str(path),
                     "--output", str(out), "--no-fail"])
        err = capsys.readouterr().err
        assert code == want, err
        if want:
            assert f"input {path}: bad 'certificate'" in err
            assert "delta must be a finite number" in err and not out.exists()
    assert load_report(out)["result"]["extras"]["deltas"] == [1.0]


def test_params_not_an_object_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "k.json")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": [1]}))
    for given, source in ((["--params", "[1]"], "--params"),
                          (["--params", '"m"'], "--params"),
                          (["--config", str(cfg)], "config file's params")):
        code = main(["verify", "--theorem", "kernel", *given, "--output", out])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{source} must be a JSON object" in err, err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--kind", "gap", "--params", '{"a":1,"b":100000000000000000000000,"M":3,"N":2}'],
     "generator b 100000000000000000000000 outside the signed 64-bit range"),
    (["gen", "--kind", "lattice-box", "--params", '{"sizes":[3,1e30]}'],
     "outside the signed 64-bit range"),
    (["verify", "--theorem", "kernel", "--params", '{"m":3,"n":100000000000000000000}'],
     "n 100000000000000000000 outside the signed 64-bit range"),
    (["norm", "--set", "range:1:99999999999999999999"],
     "bad --set spec 'range:1:99999999999999999999'")], ids=["gap", "box", "kernel", "range"])
def test_int64_range_input_is_usage_error(tmp_path, capsys, argv, message):
    # exit 2 naming the value, not exit 1 ("verdict failed") with a traceback
    out = tmp_path / "r.json"
    code = main(argv + ["--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err and not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["suite"], {"skip_determinism": "no"}, "skip_determinism must be true or false, got 'no'"),
    (["suite"], {"inject_kernel_fault": 1}, "inject_kernel_fault must be true or false"),
    (["verify", "--theorem", "kernel"], {"no_fail": "yes"}, "no_fail must be true or false"),
    (["gen", "--kind", "gap", "--params", '{"a":5,"b":10,"M":3,"N":2,"force":"no"}'], {},
     "--params force must be true or false, got 'no'"),
    (["verify", "--theorem", "thinning"], {"count": True}, "--count must be an integer"),
    (["verify", "--theorem", "numerical"], {"grid": False}, "--grid must be an integer"),
    (["norm", "--set", "interval:11"], {"memory_budget": True},
     "memory_budget must be a positive integer number of bytes, got True")],
    ids=["skip_determinism", "inject_kernel_fault", "no_fail", "force", "count", "grid",
         "memory_budget"])
def test_settings_are_not_read_by_truthiness(tmp_path, capsys, argv, config, message):
    # a string is no boolean, and true is no count
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    code = main(argv + ["--config", str(cfg), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err and not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["norm", "--set", "interval:11"], {"rel_err": "0.1"},
     "config file key rel_err must be a number, got '0.1'"),
    (["verify", "--theorem", "mps", "--set", "random:64,40000"], {"seed": "abc"},
     "config file key seed must be an integer, got 'abc'"),
    (["norm", "--set", "interval:11"], {"rel-err": 0.5},
     "config file has an unknown key 'rel-err' (did you mean 'rel_err'?)")],
    ids=["rel_err", "seed", "unknown"])
def test_config_file_values_are_type_checked(tmp_path, capsys, argv, config, message):
    # a string is no number, and a misspelt key is no setting
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    code = main(argv + ["--config", str(cfg), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err and not out.exists()
    # a JSON integer is a number, and null leaves a setting at its default
    cfg.write_text(json.dumps({"rel_err": 0.25, "delta": 2, "seed": None}))
    assert main(["norm", "--set", "interval:11", "--config", str(cfg),
                 "--output", str(out)]) == 0
    assert load_report(out)["config"]["rel_err"] == 0.25


def test_gen_unknown_kind_is_usage_error(tmp_path):
    r = run_cli("gen", "--kind", "nonsense",
                "--output", str(tmp_path / "x.json"))
    assert r.returncode == 2


def test_gen_collision_reported_as_usage_error(tmp_path):
    r = run_cli("gen", "--kind", "gap", "--params",
                '{"a":2,"b":4,"M":3,"N":2,"force":true}',
                "--output", str(tmp_path / "x.json"))
    assert r.returncode == 2
    assert "colliding" in r.stderr.lower()


def test_norm_interval_contains_reference(tmp_path):
    out = tmp_path / "n.json"
    r = run_cli("norm", "--set", "interval:101", "--rel-err", "0.05",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    enc = load_report(out)["result"]
    assert enc["lo"] <= REF_INTERVAL_101 <= enc["hi"]


def test_norm_bad_spec_is_usage_error(tmp_path):
    r = run_cli("norm", "--set", "pentagon:9",
                "--output", str(tmp_path / "n.json"))
    assert r.returncode == 2


def test_norm_memory_budget_exit_code(tmp_path):
    r = run_cli("norm", "--set", "interval:2000",
                "--output", str(tmp_path / "n.json"),
                env_extra={"EXPSUMS_MEMORY_BUDGET": "1000"})
    assert r.returncode == 3
    assert "budget" in r.stderr.lower()


def test_norm_box_beyond_the_grid_budget(tmp_path):
    # a Cartesian product is a product of rank-1 enclosures, so the
    # 4608^2 grid (340 MB) of the 400 x 400 box is never formed: a 1 MB
    # budget, which each 4608-point factor grid fits, is enough
    out = tmp_path / "n.json"
    r = run_cli("norm", "--set", "box:400,400", "--output", str(out),
                env_extra={"EXPSUMS_MEMORY_BUDGET": "1000000"})
    assert r.returncode == 0, r.stderr
    enc = load_report(out)["result"]
    assert enc["grid"] == [4608, 4608] and enc["degree"] == [200, 200]
    assert 4608 ** 2 * 16 > 10 ** 6
    assert 0 < enc["lo"] <= enc["riemann"] <= enc["hi"]


def test_norm_huge_span_is_a_budget_error(tmp_path):
    # the grid of a 2^62 span is past int64; it exits 3 naming the grid
    src = tmp_path / "wide.json"
    src.write_text(json.dumps({"rank": 1, "terms": [[[0], [1.0, 0.0]],
                                                    [[2 ** 62], [1.0, 0.0]]]}))
    r = run_cli("norm", "--input", str(src), "--output", str(tmp_path / "n.json"))
    assert r.returncode == 3, r.stderr
    assert "grid (" in r.stderr and "budget" in r.stderr
    assert "Traceback" not in r.stderr


def test_norm_axis_past_the_smooth_lengths_is_a_budget_error(tmp_path, monkeypatch, capsys):
    # a grid of 4.608e18 + 1024 points fits a budget of 2^70 bytes, but no
    # 5-smooth length below 2^62 is that long: exit 3, not a traceback.  In
    # process, with planning patched to fail, since the divisors of so long
    # an axis would take about 17 GB
    from expsums import quadrature
    monkeypatch.setattr(quadrature, "_plan", lambda *args: pytest.fail("a grid was planned"))
    src = tmp_path / "wide.json"
    src.write_text(json.dumps({"elements": [0, 768_000_000_000_000_001]}))
    code = main(["norm", "--input", str(src), "--memory-budget", str(2 ** 70),
                 "--output", str(tmp_path / "n.json")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("resource error: grid (") and "4608000000000000000" in err
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--m", "2", "--n", str(10 ** 15)],
    ["verify", "--theorem", "kernel", "--params", json.dumps({"m": 2, "n": 10 ** 15})]],
    ids=["kernel", "verify"])
def test_refused_allocation_is_a_resource_error(tmp_path, capsys, argv):
    # n = 10^15 asks numpy for 14.2 PiB, which it refuses at once: exit 3,
    # not a traceback with the exit code of a failed verdict.  An n whose
    # arrays could be granted (10^9 - 10^10 is 16-160 GB) is never tried
    out = tmp_path / "k.json"
    code = main(argv + ["--output", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("resource error: ") and "allocate" in err
    assert not out.exists()


def test_set_help_is_the_same_for_every_command(capsys):
    # norm, thin and verify take the same --set shorthands, zbox included
    helps = []
    for command in ("norm", "thin", "verify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        helps.append(text[text.index("--set SET_SPEC shorthand:"):].split(" --")[0])
    assert helps[0] == helps[1] == helps[2]
    assert "zbox:[deltas;]n1,n2,..." in helps[0] and "random:size,span" in helps[0]


def test_norm_overflowing_mean_is_usage_error(tmp_path):
    # |1 + 1e307 e(7t)| sums past float64 on the grid: no [inf, inf] report
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"rank": 1, "terms": [[[0], [1.0, 0.0]],
                                                    [[7], [1e307, 0.0]]]}))
    out = tmp_path / "n.json"
    r = run_cli("norm", "--input", str(src), "--output", str(out))
    assert r.returncode == 2, r.stderr
    assert "overflows float64" in r.stderr and "Traceback" not in r.stderr
    # the error line alone: no numpy RuntimeWarning before it
    assert r.stderr.splitlines() == [r.stderr.strip()]
    assert r.stderr.startswith("error: ")
    assert not out.exists()


def test_norm_non_integral_element_is_usage_error(tmp_path):
    # 2.5 is not rounded to 2: no enclosure for {1, 2}
    src = tmp_path / "half.json"
    src.write_text(json.dumps({"elements": [1, 2.5]}))
    out = tmp_path / "n.json"
    r = run_cli("norm", "--input", str(src), "--output", str(out))
    assert r.returncode == 2, r.stderr
    assert "element 2.5 is not an integer" in r.stderr
    assert str(src) in r.stderr and "'elements'" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("obj, field", [
    ({"terms": 5}, "terms"),
    ({"rank": 1, "terms": [[0, [1, 0]]]}, "terms"),
    ({"set": 5}, "set"),
    ({"elements": "abc"}, "elements")])
@pytest.mark.parametrize("command", [
    ["norm"], ["thin", "--d1", "2", "--d2", "7", "--q", "5"],
    ["verify", "--theorem", "mps"]])
def test_malformed_input_names_the_file_and_field(tmp_path, capsys, obj, field,
                                                  command):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code = main(command + ["--input", str(path), "--output", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"input {path}: bad {field!r}" in err
    assert "Traceback" not in err


def test_non_product_lattice_keeps_the_budget(tmp_path):
    gen_out = tmp_path / "random.json"
    r = run_cli("gen", "--kind", "lattice-random", "--params",
                '{"sizes":[6,6]}', "--seed", "3", "--output", str(gen_out))
    assert r.returncode == 0, r.stderr
    A = from_json_obj(load_report(gen_out)["result"]["set"])
    assert _product_axes(recentre(indicator_poly(A))[0]) is None
    r = run_cli("norm", "--input", str(gen_out),
                "--output", str(tmp_path / "n.json"),
                env_extra={"EXPSUMS_MEMORY_BUDGET": "1000"})
    assert r.returncode == 3
    assert "budget" in r.stderr.lower()


@pytest.mark.parametrize("before", [None, "5000000"])
def test_memory_budget_flag_holds_for_one_command(tmp_path, monkeypatch,
                                                  capsys, before):
    if before is None:
        monkeypatch.delenv("EXPSUMS_MEMORY_BUDGET", raising=False)
    else:
        monkeypatch.setenv("EXPSUMS_MEMORY_BUDGET", before)
    # main-prop takes --memory-budget as its memory_budget argument, so 1000
    # bytes stops it, and the variable is as it was
    code = main(["verify", "--theorem", "main-prop", "--memory-budget", "1000",
                 "--output", str(tmp_path / "v.json")])
    assert code == 3, capsys.readouterr().err
    assert os.environ.get("EXPSUMS_MEMORY_BUDGET") == before
    assert main(["verify", "--theorem", "main-prop",
                 "--output", str(tmp_path / "v.json")]) == 0


@pytest.mark.parametrize("command", [
    ["norm", "--set", "interval:2000"], ["suite", "--skip-determinism"],
    ["verify", "--theorem", "mps", "--set", "interval:101"], ["verify", "--theorem", "mps"],
    ["verify", "--theorem", "basic-multidim", "--set", "box:30,40"],
    ["verify", "--theorem", "multidim", "--set", "box:30,40"],
    ["verify", "--theorem", "multidimz", "--set", "zbox:8,8"],
    ["verify", "--theorem", "main-prop"],
    ["verify", "--theorem", "bernstein", "--set", "interval:101"],
    ["verify", "--theorem", "numerical"], ["verify", "--theorem", "kernel"],
    ["verify", "--theorem", "thinning"]], ids=" ".join)
def test_memory_budget_flag_never_writes_the_environment(tmp_path, monkeypatch, capsys,
                                                         command):
    # every grid of the command takes --memory-budget as its memory_budget
    # argument; nothing is written to the process environment
    monkeypatch.delenv("EXPSUMS_MEMORY_BUDGET", raising=False)

    def refuse(*args):
        raise AssertionError(f"the environment was written: {args}")

    with monkeypatch.context() as patched:  # pytest itself writes between tests
        patched.setattr(os, "putenv", refuse)
        patched.setattr(os, "unsetenv", refuse)
        code = main(command + ["--memory-budget", "1000", "--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "budget is 1000 " in err


def test_bad_memory_budget_is_usage_error(tmp_path):
    cfg = tmp_path / "c.json"
    out = str(tmp_path / "n.json")
    cfg.write_text(json.dumps({"memory_budget": "2e9"}))
    r = run_cli("norm", "--set", "interval:11", "--config", str(cfg),
                "--output", out)
    assert r.returncode == 2, r.stderr
    assert "memory_budget" in r.stderr and "Traceback" not in r.stderr
    r = run_cli("norm", "--set", "interval:11", "--output", out,
                env_extra={"EXPSUMS_MEMORY_BUDGET": "2e9"})
    assert r.returncode == 2, r.stderr
    assert "EXPSUMS_MEMORY_BUDGET" in r.stderr
    # a JSON number with no fractional part is a valid budget
    cfg.write_text(json.dumps({"memory_budget": 2e9}))
    r = run_cli("norm", "--set", "interval:11", "--config", str(cfg),
                "--output", out)
    assert r.returncode == 0, r.stderr


def test_norm_non_finite_input_is_usage_error(tmp_path):
    src = tmp_path / "nan.json"
    src.write_text('{"rank": 1, "terms": [[[0], [1.0, 0.0]], '
                   '[[3], [NaN, 0.0]]]}', encoding="utf-8")
    out = tmp_path / "n.json"
    r = run_cli("norm", "--input", str(src), "--output", str(out))
    assert r.returncode == 2
    assert "not finite" in r.stderr
    assert not out.exists()


def test_norm_input_sums_repeated_frequency(tmp_path):
    # the constant 1 + 2 listed as two terms at frequency 0: norm 3, not 2
    src = tmp_path / "dup.json"
    src.write_text('{"rank": 1, "terms": [[[0], [1, 0]], [[0], [2, 0]]]}',
                   encoding="utf-8")
    out = tmp_path / "n.json"
    r = run_cli("norm", "--input", str(src), "--output", str(out))
    assert r.returncode == 0, r.stderr
    enc = load_report(out)["result"]
    assert enc["lo"] == pytest.approx(3.0, rel=1e-12)
    assert enc["hi"] == pytest.approx(3.0, rel=1e-12)


def test_verify_numerical_grid_from_recentred_degree(tmp_path):
    # 12 frequencies near 10^6: the grid follows the diameter, not 10^6
    out = tmp_path / "v.json"
    r = run_cli("verify", "--theorem", "numerical",
                "--set", "range:1000000:1000011", "--output", str(out))
    assert r.returncode == 0, r.stderr
    res = load_report(out)["result"]
    assert res["passed"] is True
    (row,) = res["rows"]
    assert row["ok"] is True
    assert row["degree"] == 6
    assert row["grid"] <= 100


def test_kernel_csv_golden(tmp_path):
    out = tmp_path / "k.csv"
    r = run_cli("kernel", "--m", "3", "--n", "10", "--output", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "k,value_exact,value_float"
    assert lines[1].startswith("-15,1/9,")
    assert len(lines) == 32  # header + 31 stored values


_KERNEL_3_10_CSV = (
    "k,value_exact,value_float\r\n"
    "-15,1/9,0.1111111111111111\r\n-14,1/3,0.3333333333333333\r\n"
    "-13,2/3,0.6666666666666666\r\n-12,8/9,0.8888888888888888\r\n"
    + "".join(f"{k},1,1.0\r\n" for k in range(-11, 12))
    + "12,8/9,0.8888888888888888\r\n13,2/3,0.6666666666666666\r\n"
    "14,1/3,0.3333333333333333\r\n15,1/9,0.1111111111111111\r\n")


def test_kernel_csv_bytes_pinned(tmp_path):
    out = tmp_path / "k.csv"
    assert main(["kernel", "--m", "3", "--n", "10", "--output", str(out)]) == 0
    assert out.read_bytes() == _KERNEL_3_10_CSV.encode()


def test_verify_kernel_needs_both_m_and_n(tmp_path):
    r = run_cli("verify", "--theorem", "kernel", "--params", '{"m": 3}',
                "--output", str(tmp_path / "k.json"))
    assert r.returncode == 2
    assert "both m and n" in r.stderr


@pytest.mark.parametrize("params, message", [
    ('{"m": 3.5, "n": 10}', "m 3.5 is not an integer"),
    ('{"m": 3, "n": 10.5}', "n 10.5 is not an integer"),
    ('{"m": 3, "n": 10, "r": 40.5}', "r 40.5 is not an integer")])
def test_verify_kernel_fractional_params_are_usage_errors(tmp_path, capsys, params, message):
    # not truncated: m = 3.5 is no check of (3, 10) that exits 0
    out = tmp_path / "k.json"
    code = main(["verify", "--theorem", "kernel", "--params", params, "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err and not out.exists()
    whole = tmp_path / "whole.json"
    assert main(["verify", "--theorem", "kernel", "--params", '{"m": 3.0, "n": 10.0}',
                 "--output", str(whole)]) == 0
    assert load_report(whole)["result"]["extras"]["pairs"] == 1


def test_thin_chain(tmp_path):
    gen_out = tmp_path / "z.json"
    r = run_cli("gen", "--kind", "zstrong-box", "--params",
                '{"sizes":[8,8],"stretch":2.0}', "--output", str(gen_out))
    assert r.returncode == 0, r.stderr
    cert = load_report(gen_out)["result"]["certificate"]

    thin_out = tmp_path / "t.json"
    r = run_cli("thin", "--input", str(gen_out), "--d1", str(cert["d1"]),
                "--d2", str(cert["d2"]), "--delta", "1.0", "--q", "4",
                "--s", "1", "--output", str(thin_out))
    assert r.returncode == 0, r.stderr
    res = load_report(thin_out)["result"]
    assert res["kept_blocks"] == [1, 5]
    assert res["terms_out"] < res["terms_in"]

    # the thinned polynomial feeds straight back into norm
    norm_out = tmp_path / "tn.json"
    r = run_cli("norm", "--input", str(thin_out), "--output", str(norm_out))
    assert r.returncode == 0, r.stderr
    assert load_report(norm_out)["result"]["lo"] > 0


def test_thin_hypothesis_violation_is_usage_error(tmp_path):
    r = run_cli("thin", "--set", "interval:20", "--d1", "2", "--d2", "7",
                "--delta", "1.0", "--q", "4", "--s", "0",
                "--output", str(tmp_path / "t.json"))
    assert r.returncode == 2
    assert "hypothesis" in r.stderr.lower()


def test_verify_mps_pass_and_fail(tmp_path):
    r = run_cli("verify", "--theorem", "mps", "--set", "interval:101",
                "--output", str(tmp_path / "v.json"))
    assert r.returncode == 0, r.stderr

    r = run_cli("verify", "--theorem", "mps", "--set", "interval:101",
                "--c-mps", "10.0", "--output", str(tmp_path / "v2.json"))
    assert r.returncode == 1
    assert load_report(tmp_path / "v2.json")["result"]["passed"] is False

    r = run_cli("verify", "--theorem", "mps", "--set", "interval:101",
                "--c-mps", "10.0", "--no-fail",
                "--output", str(tmp_path / "v3.json"))
    assert r.returncode == 0


def test_verify_mps_scan_writes_csv(tmp_path):
    out = tmp_path / "scan.json"
    csv_out = tmp_path / "scan.csv"
    r = run_cli("verify", "--theorem", "mps", "--count", "2",
                "--csv", str(csv_out), "--output", str(out))
    assert r.returncode == 0, r.stderr
    res = load_report(out)["result"]
    assert res["lhs"] >= 0.25  # the least ratio
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "label,ratio,lhs_lo,lhs_hi,rhs_raw"
    assert len(lines) == res["extras"]["count"] + 1


def test_verify_multidim_with_generated_input(tmp_path):
    gen_out = tmp_path / "box.json"
    r = run_cli("gen", "--kind", "lattice-box", "--params",
                '{"sizes":[8,8]}', "--output", str(gen_out))
    assert r.returncode == 0, r.stderr
    r = run_cli("verify", "--theorem", "multidim", "--input", str(gen_out),
                "--output", str(tmp_path / "v.json"))
    assert r.returncode == 0, r.stderr
    assert load_report(tmp_path / "v.json")["result"]["certified"] is True


def test_verify_main_prop_default(tmp_path):
    r = run_cli("verify", "--theorem", "main-prop",
                "--output", str(tmp_path / "v.json"))
    assert r.returncode == 0, r.stderr
    res = load_report(tmp_path / "v.json")["result"]
    assert res["passed"] is True


def test_verify_main_prop_missing_input_is_usage_error(tmp_path, capsys):
    code = main(["verify", "--theorem", "main-prop",
                 "--input", str(tmp_path / "absent.json"),
                 "--output", str(tmp_path / "v.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "cannot read input" in err and "Traceback" not in err


@pytest.mark.parametrize("content", ['{"d1": 1}', "[1, 2]"])
def test_verify_main_prop_malformed_input_names_the_keys(tmp_path, capsys, content):
    # a missing key, and a JSON value that is not an object
    path = tmp_path / "in.json"
    path.write_text(content)
    code = main(["verify", "--theorem", "main-prop", "--input", str(path),
                 "--output", str(tmp_path / "v.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(path) in err and "blocks, d1, d2, delta, q, s" in err
    assert "Traceback" not in err


_MAIN_PROP_OK = {"blocks": [[0, {"rank": 1, "terms": [[[0], [1.0, 0.0]]]}]],
                 "d1": 5, "d2": 20, "delta": 1.0, "q": 13, "s": 0}


@pytest.mark.parametrize("field, value", [
    ("blocks", 5), ("blocks", [[0, {"rank": 1}]]), ("d1", "x"), ("d1", 5.5),
    ("delta", True), ("delta", "1.0")])
def test_verify_main_prop_bad_field_names_the_file_and_field(tmp_path, capsys,
                                                             field, value):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**_MAIN_PROP_OK, field: value}))
    code = main(["verify", "--theorem", "main-prop", "--input", str(path),
                 "--output", str(tmp_path / "v.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(path) in err and repr(field) in err
    assert "Traceback" not in err


def test_verify_main_prop_good_fields_still_run(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_MAIN_PROP_OK))
    assert main(["verify", "--theorem", "main-prop", "--input", str(path),
                 "--output", str(tmp_path / "v.json"), "--no-fail"]) == 0


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("theorem, flag", [
    ("thinning", "--count"), ("good-modulus", "--count"), ("mps", "--count"),
    ("numerical", "--grid")])
def test_count_and_grid_below_one_are_usage_errors(tmp_path, capsys, theorem,
                                                   flag, value):
    # no instances is not a pass, and no default stands in for a bad value
    out = tmp_path / "v.json"
    code = main(["verify", "--theorem", theorem, flag, value,
                 "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{flag} must be an integer of at least 1" in err, err
    assert not out.exists()


def test_verify_good_modulus_draws_criterion_6_sets(tmp_path):
    out = tmp_path / "g.json"
    assert main(["verify", "--theorem", "good-modulus", "--count", "500",
                 "--seed", "1729", "--output", str(out)]) == 0
    rows = load_report(out)["result"]["rows"]
    details = acceptance.run_criterion(6, 1729).details
    sizes = [row["size"] for row in rows]
    assert len(rows) == details["count"]
    assert (min(sizes), max(sizes)) == (details["min_size"],
                                        details["max_size"])
    assert sizes == [len(I) for I in acceptance.good_modulus_sets(1729, 500)]


def test_verify_thinning_runs_criterion_7_configs(tmp_path):
    out = tmp_path / "t.json"
    assert main(["verify", "--theorem", "thinning", "--count", "50",
                 "--rel-err", "0.05", "--seed", "1729",
                 "--output", str(out)]) == 0
    rows = load_report(out)["result"]["rows"]
    result = acceptance.run_criterion(7, 1729)
    assert result.passed and len(rows) == result.details["count"]
    assert max(row["ratio"] for row in rows) == result.details["max_ratio"]
    keys = ("d1", "d2", "delta", "q", "s", "identity", "certified", "slack")
    expected = [acceptance.thinning_check(*config, rel_err=0.05)
                for config in acceptance.thinning_configs(1729, 50)]
    assert [[row[k] for k in keys] for row in rows] == \
        [[row[k] for k in keys] for row in expected]
    assert all(row["slack"] is True for row in rows)


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--theorem", "thinning", "--count", "3",
            "--seed", "99")
    assert run_cli(*args, "--output", str(a)).returncode == 0
    assert run_cli(*args, "--output", str(b)).returncode == 0
    assert stripped(a) == stripped(b)

    c = tmp_path / "c.json"
    assert run_cli("verify", "--theorem", "thinning", "--count", "3",
                   "--seed", "100", "--output", str(c)).returncode == 0
    assert stripped(a) != stripped(c)


def test_gen_random_seed_determinism(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    base = ("gen", "--kind", "lattice-random", "--params", '{"sizes":[4,4]}')
    run_cli(*base, "--seed", "7", "--output", str(a))
    run_cli(*base, "--seed", "7", "--output", str(b))
    run_cli(*base, "--seed", "8", "--output", str(c))
    assert stripped(a) == stripped(b)
    assert stripped(a) != stripped(c)


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rel_err": 0.02, "seed": 31}))
    out = tmp_path / "n.json"
    r = run_cli("norm", "--set", "interval:20", "--config", str(cfg),
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    echoed = load_report(out)["config"]
    assert echoed["rel_err"] == 0.02
    assert echoed["seed"] == 31

    # explicit flag wins over the file
    r = run_cli("norm", "--set", "interval:20", "--config", str(cfg),
                "--rel-err", "0.3", "--output", str(out))
    assert load_report(out)["config"]["rel_err"] == 0.3


def test_write_csv_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    _write_csv(str(path), [("col_a", "col_b")])
    assert path.read_text().splitlines() == ["col_a,col_b"]


def test_console_script_entry_point():
    exe = shutil.which("expsums")
    if exe is not None:
        argv = [exe, "--help"]
    else:
        # a bare checkout: run the target that pyproject.toml installs
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["expsums"]
        assert target == "expsums.cli:main"
        module, _, name = target.partition(":")
        argv = [sys.executable, "-c",
                f"import sys; from {module} import {name}; sys.exit({name}())", "--help"]
    r = subprocess.run(argv, capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    for sub in ("gen", "norm", "kernel", "thin", "verify", "suite"):
        assert sub in r.stdout


def test_suite_help_lists_fault_flag():
    r = run_cli("suite", "--help")
    assert r.returncode == 0
    assert "--inject-kernel-fault" in r.stdout
    assert "--skip-determinism" in r.stdout


# one quick passing input per theorem, and a failing variant where one can
# be built (the others state theorems no input breaks)
_THEOREM_RUNS = {
    "mps": (["--set", "interval:11"], ["--c-mps", "10"]),
    "basic-multidim": (["--set", "box:4,4"], ["--c-mps", "100"]),
    "multidim": (["--set", "box:4,4"], ["--c-mps", "10"]),
    "main-prop": ([], ["--c-mps", "1e6"]),
    "multidimz": (["--set", "zbox:4,4"], ["--params", '{"constant_override": 1e6}']),
    "bernstein": (["--set", "interval:11"], None),
    "numerical": (["--set", "interval:11"], None),
    "kernel": (["--params", '{"m": 3, "n": 10}'], None),
    "thinning": (["--count", "1"], None),
    "good-modulus": (["--count", "2"], None),
}
_MPS_SCAN = ["--count", "1"]  # the mps theorem with no set: a family scan
_VERDICT_KEYS = {"name", "lhs", "rhs", "constant_used", "margin", "passed",
                 "certified", "hypotheses", "extras"}


def _verify(theorem, argv, tmp_path, *extra):
    out = tmp_path / "v.json"
    code = main(["verify", "--theorem", theorem, *argv, *extra, "--output", str(out)])
    return code, load_report(out)["result"] if out.exists() else None


def test_the_table_covers_every_theorem():
    from expsums.cli import _THEOREMS

    assert set(_THEOREM_RUNS) == set(_THEOREMS)


@pytest.mark.parametrize("theorem, argv", [
    *((t, argv) for t, (argv, _) in _THEOREM_RUNS.items()), ("mps", _MPS_SCAN)],
    ids=[*_THEOREM_RUNS, "mps-scan"])
def test_every_theorem_returns_one_verdict(tmp_path, theorem, argv):
    from expsums.bounds import InequalityVerdict
    from expsums.cli import _THEOREMS, build_parser, resolve_config

    cfg = resolve_config(build_parser().parse_args(["verify", "--theorem", theorem, *argv]))
    verdict = _THEOREMS[theorem](cfg)
    assert type(verdict) is InequalityVerdict
    # the report is that verdict's JSON, with the same verdict keys for all:
    # rows and sense are left out at their defaults (no rows, ">=")
    code, result = _verify(theorem, argv, tmp_path)
    assert code == 0
    assert result == json.loads(json.dumps(verdict.to_json_dict()))
    assert _VERDICT_KEYS <= set(result) <= _VERDICT_KEYS | {"rows", "sense"}
    assert result["passed"] is verdict.passed and result["certified"] is verdict.certified
    assert ("rows" in result) == bool(verdict.rows)
    assert result.get("sense", ">=") == verdict.sense
    # a verdict with no left side is decided by its rows
    if verdict.lhs is None:
        assert result["margin"] is None and "rows" in result
        assert verdict.passed == all(row["ok"] for row in result["rows"])


@pytest.mark.parametrize("theorem, argv, failing", [
    *((t, argv, bad) for t, (argv, bad) in _THEOREM_RUNS.items() if bad is not None),
    ("mps", _MPS_SCAN, ["--c-mps", "10"])],
    ids=[*(t for t, (_, bad) in _THEOREM_RUNS.items() if bad is not None), "mps-scan"])
def test_exit_code_is_1_on_a_failing_verdict(tmp_path, theorem, argv, failing):
    code, result = _verify(theorem, argv, tmp_path, *failing)
    assert code == 1
    assert result["passed"] is False and result["certified"] is False
    code, result = _verify(theorem, argv, tmp_path, *failing, "--no-fail")
    assert code == 0 and result["passed"] is False


def test_multidimz_exits_on_passed_while_not_certified(tmp_path):
    # the size hypothesis cannot hold for a set small enough to integrate
    code, result = _verify("multidimz", ["--set", "zbox:4,4"], tmp_path)
    assert code == 0
    assert result["passed"] is True and result["certified"] is False
    # every other theorem exits on certified: multidim with a failed
    # certificate exits 1 though its inequality passes
    gen_out = tmp_path / "box.json"
    assert main(["gen", "--kind", "lattice-box", "--params", '{"sizes": [4, 4]}',
                 "--output", str(gen_out)]) == 0
    report = load_report(gen_out)
    report["result"]["certificate"]["n1"] = 5  # claims more first coordinates
    gen_out.write_text(json.dumps(report))
    code, result = _verify("multidim", ["--input", str(gen_out)], tmp_path)
    assert code == 1
    assert result["passed"] is True and result["certified"] is False


@pytest.mark.parametrize("theorem, argv, header", [
    ("mps", _MPS_SCAN, ["label", "ratio", "lhs_lo", "lhs_hi", "rhs_raw"]),
    ("main-prop", [], ["j", "k", "b", "norm", "bracket"]),
    ("numerical", ["--set", "interval:11"], ["degree", "grid", "mean", "lo", "hi", "rho", "ok"]),
    ("kernel", ["--params", '{"m": 3, "n": 10}'],
     ["m", "n", "violations", "r", "discrete_mean", "bound", "ok"]),
    ("thinning", ["--count", "2"],
     ["index", "d1", "d2", "delta", "q", "s", "identity", "certified", "slack"]),
    ("good-modulus", ["--count", "2"], ["index", "size", "j0", "filtered", "ok"])],
    ids=["mps-scan", "main-prop", "numerical", "kernel", "thinning", "good-modulus"])
def test_csv_holds_the_verdict_rows(tmp_path, theorem, argv, header):
    import csv

    csv_out = tmp_path / "rows.csv"
    code, result = _verify(theorem, argv, tmp_path, "--csv", str(csv_out))
    assert code == 0
    with open(csv_out, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == header
    assert len(lines) == len(result["rows"]) + 1
    for line, row in zip(lines[1:], result["rows"]):
        # a nested value (an enclosure, a list) is written as JSON
        assert [json.loads(cell) if isinstance(row[key], (dict, list)) else cell
                for cell, key in zip(line, header)] == \
            [row[key] if isinstance(row[key], (dict, list)) else str(row[key])
             for key in header]


@pytest.mark.parametrize("theorem, argv", [
    ("mps", ["--set", "interval:11"]), ("basic-multidim", ["--set", "box:4,4"]),
    ("multidim", ["--set", "box:4,4"]), ("multidimz", ["--set", "zbox:4,4"]),
    ("bernstein", ["--set", "interval:11"]), ("kernel", [])],
    ids=["mps", "basic-multidim", "multidim", "multidimz", "bernstein", "kernel-batch"])
def test_csv_of_a_verdict_without_rows_is_usage_error(tmp_path, capsys, theorem, argv):
    # kernel: a batch lists only its failing pairs, and none fails
    csv_out = tmp_path / "rows.csv"
    code, result = _verify(theorem, argv, tmp_path, "--csv", str(csv_out))
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"verify --theorem {theorem} reports no rows" in err
    assert result is None and not csv_out.exists()


@pytest.mark.parametrize("flag", ["--csv", "--output"])
def test_unwritable_csv_or_report_is_a_resource_error(tmp_path, capsys, flag):
    # no traceback and no exit 1, which would read as a failed verdict
    target = str(tmp_path / "absent" / "x")
    argv = ["verify", "--theorem", "thinning", "--count", "1", flag, target]
    if flag == "--csv":
        argv += ["--output", str(tmp_path / "v.json")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("resource error:") and "absent" in err
