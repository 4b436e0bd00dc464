import json
import textwrap
import tracemalloc

import pytest

from puremeasure.cli import (
    BadSchedule,
    ConfigError,
    ParseError,
    UnknownName,
    main,
    parse_config,
    run,
)
from puremeasure.density_engine import MAX_LEVELS
from puremeasure.expressions import MAX_DEPTH

import forking

BASE = {
    "version": "pure-measure/1",
    "seed": 7,
    "samples": 20_000,
    "schedule": {"count": 8},
    "regions": {
        "line": {"box": {"lo": [-1], "hi": [1]}},
        "right": {"box": {"lo": [0], "hi": [1]}},
        "disk": {"ball": {"c": [0, 0], "r": 1}},
        "slab1": {"box": {"lo": [0.3333333333333333, -1], "hi": [0.5, 1]}},
        "slab2": {"box": {"lo": [0.25, -1], "hi": [0.3333333333333333, 1]}},
        "halfslab": {"box": {"lo": [0, -1], "hi": [0.5, 1]}},
        "square": {"box": {"lo": [0, 0], "hi": [1, 1]}},
    },
    "features": {
        "origin1": {"point": {"c": [0]}},
        "origin2": {"point": {"c": [0, 0]}},
    },
    "integrands": {
        "cosx": "cos(x1)",
        "xy": "x1 + x2",
        "xsq": "x1^2",
        "sgn": "sign(x1)",
        "xfield": "x1",
        "yfield": "x2",
        "two": "2",
        "oddsing": "sign(x1)/sqrt(abs(x1))",
    },
}


def config_with(tasks):
    cfg = json.loads(json.dumps(BASE))
    cfg["tasks"] = tasks
    return json.dumps(cfg)


DENSITY_TASK = {"task": "density_ratio", "name": "dzero", "region": "right", "feature": "origin1", "omega": "line"}


def test_parse_minimal_config():
    cfg = parse_config(config_with([DENSITY_TASK]))
    assert cfg.resolved["seed"] == 7
    assert cfg.resolved["samples"] == 20_000
    assert [task.name for task in cfg.jobs] == ["dzero"]


def test_parse_rejects_undefined_region():
    task = dict(DENSITY_TASK, region="nowhere")
    with pytest.raises(UnknownName) as err:
        parse_config(config_with([task]))
    assert "/tasks/0/region" in str(err.value)


def test_parse_rejects_bad_schedule():
    cfg = json.loads(config_with([DENSITY_TASK]))
    cfg["schedule"] = {"ratio": 1.5}
    with pytest.raises(BadSchedule):
        parse_config(json.dumps(cfg))
    cfg["schedule"] = {"delta0": -1.0}
    with pytest.raises(BadSchedule):
        parse_config(json.dumps(cfg))


def test_parse_errors_carry_pointers():
    with pytest.raises(ParseError):
        parse_config("{not json")
    with pytest.raises(ParseError) as err:
        parse_config(json.dumps({"version": "pure-measure/2", "tasks": [DENSITY_TASK]}))
    assert "/version" in str(err.value)
    cfg = json.loads(config_with([DENSITY_TASK]))
    cfg["integrands"]["bad"] = "foo(x1)"
    with pytest.raises(ParseError) as err:
        parse_config(json.dumps(cfg))
    assert "/integrands/bad" in str(err.value)
    with pytest.raises(ParseError):
        parse_config(config_with([{"task": "teleport", "omega": "line"}]))


def test_density_task_converges_to_half(tmp_path):
    cfg = parse_config(config_with([DENSITY_TASK]))
    code = run(cfg, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    entry = report["tasks"][0]
    assert entry["status"] == "ok"
    assert entry["result"]["verdict"] == "converged"
    mid = 0.5 * (entry["result"]["limit"]["lo"] + entry["result"]["limit"]["hi"])
    assert abs(mid - 0.5) <= 0.02
    csv = (tmp_path / "dzero.csv").read_text().splitlines()
    assert csv[0] == "delta,value,stderr,hits"
    assert len(csv) == 1 + 8


def test_sigma_probe_task_flags_violation(tmp_path):
    task = {
        "task": "sigma_probe", "name": "sigma", "members": ["slab1", "slab2"],
        "union": "halfslab", "feature": "origin2", "omega": "disk",
    }
    cfg = parse_config(config_with([task]))
    assert run(cfg, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    result = report["tasks"][0]["result"]
    assert result["violation"] is True
    assert abs(result["union_value"] - 0.5) <= 0.05
    assert (tmp_path / "sigma_member1.csv").exists()
    assert (tmp_path / "sigma_union.csv").exists()


def test_unintegrable_task_exits_2_and_records_error(tmp_path):
    tasks = [
        dict(DENSITY_TASK),
        {"task": "sharp_integral", "name": "sing", "integrand": "oddsing",
         "feature": "origin1", "omega": "line", "samples": 100_000},
    ]
    cfg = parse_config(config_with(tasks))
    code = run(cfg, tmp_path)
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    by_name = {t["name"]: t for t in report["tasks"]}
    assert by_name["dzero"]["status"] == "ok"
    assert by_name["sing"]["status"] == "error"
    assert by_name["sing"]["error"]["type"] == "Unintegrable"
    assert by_name["sing"]["error"]["message"] == "integrand essentially unbounded near the feature"
    # the symmetric mean series is still reported alongside the error
    series = by_name["sing"]["result"]["series"]
    assert all(abs(row["value"]) <= 0.05 for row in series)


def test_constant_singularities_are_unintegrable(tmp_path):
    # a constant 1/0 or 0/0 once failed its task with ZeroDivisionError
    cfg = json.loads(config_with([
        {"task": "sharp_integral", "name": name, "integrand": name, "feature": "origin1", "omega": "line"}
        for name in ("pole", "hole")]))
    cfg["integrands"].update(pole="x1 + 1/0", hole="0/0")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
    errors = {t["name"]: t["error"] for t in json.loads((out / "report.json").read_text())["tasks"]}
    assert errors == {
        "pole": {"type": "Unintegrable", "message": "integrand essentially unbounded near the feature"},
        "hole": {"type": "Unintegrable", "message": "integrand undefined (NaN) near the feature"},
    }


def test_a_failing_task_leaves_the_batch_and_a_strict_json_report(tmp_path):
    # one task fails at run time, two report infinite and NaN values as strings, and the last still writes
    # its CSV
    cfg = json.loads(config_with([
        dict(DENSITY_TASK, name="far", feature="far"),
        {"task": "action_interval", "name": "pole", "integrand": "pole", "feature": "origin1", "omega": "line"},
        {"task": "sharp_integral", "name": "void", "integrand": "void", "feature": "origin1", "omega": "line"},
        {"task": "sharp_integral", "name": "cosint", "integrand": "cosx", "feature": "origin1", "omega": "line"},
    ]))
    cfg["features"]["far"] = {"point": {"c": [5]}}  # outside omega (-1, 1)
    cfg["integrands"]["pole"] = "1/x1"
    cfg["integrands"]["void"] = "log(x1 - 2)"  # NaN on all of omega
    out = tmp_path / "out"
    assert run(parse_config(json.dumps(cfg)), out) == 2

    def strict(constant):
        raise ValueError(f"report.json holds {constant}")

    report = json.loads((out / "report.json").read_text(), parse_constant=strict)
    far, pole, void, cosint = report["tasks"]
    assert far["status"] == "error" and far["error"]["type"] == "VanishingReference"
    assert pole["status"] == "ok"
    assert (pole["result"]["interval"]["lo"], pole["result"]["interval"]["hi"]) == ("-inf", "inf")
    assert void["status"] == "error" and void["error"]["type"] == "Unintegrable"
    assert void["error"]["message"] == "integrand undefined (NaN) near the feature"
    assert all(row["undefined"] > 0 and row["capped"] == 0 for row in void["result"]["series"])
    assert void["result"]["series"][0]["value"] == "nan" and (out / "void.csv").exists()
    assert cosint["status"] == "ok" and cosint["csv"] == ["cosint.csv"] and (out / "cosint.csv").exists()


def test_a_gauss_check_that_drops_samples_is_unintegrable(tmp_path):
    # a divergence that is NaN on all of the disk once read ok, with a volume
    # integral of 0 and a residual equal to the flux; on the disk and on the
    # square every hit is dropped, so mc_integral has nothing to average
    cfg = json.loads(config_with([
        {"task": "gauss_check", "name": "disk", "phi": ["xfield", "yfield"], "surface": "disk", "div": "void",
         "nodes": 512},
        {"task": "gauss_check", "name": "square", "phi": ["xfield", "yfield"], "surface": "square", "div": "void"},
        {"task": "gauss_check", "name": "smooth", "phi": ["xfield", "yfield"], "surface": "disk", "div": "two",
         "nodes": 512},
    ]))
    cfg["integrands"]["void"] = "log(x1 - 5)"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    disk, square, smooth = json.loads((tmp_path / "out" / "report.json").read_text())["tasks"]
    for task in (disk, square):
        assert task["status"] == "error"
        assert task["error"] == {"type": "Unintegrable", "message": "integrand undefined (NaN) in the region"}
        volume = task["result"]["volume_integral"]
        assert volume["undefined"] == volume["hits"] > 0 and volume["capped"] == 0
        assert volume["value"] == volume["stderr"] == task["result"]["residual"] == "nan"
    assert square["result"]["volume_integral"]["hits"] == square["result"]["volume_integral"]["n"]
    assert smooth["status"] == "ok" and "error" not in smooth
    assert smooth["result"]["volume_integral"]["undefined"] == 0 and smooth["result"]["residual"] < 0.05


def test_report_echoes_resolved_config(tmp_path):
    cfg = parse_config(config_with([DENSITY_TASK]))
    run(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == "pure-measure/1"
    assert report["config"]["samples"] == 20_000
    assert report["config"]["schedule"] == {"delta0": None, "count": 8}
    assert report["config"]["tasks"][0]["name"] == "dzero"


FULL_SUITE = [
    DENSITY_TASK,
    {"task": "sharp_integral", "name": "cosint", "integrand": "cosx", "feature": "origin1", "omega": "line"},
    {"task": "action_interval", "name": "act", "integrand": "xfield", "feature": "origin1", "omega": "line"},
    {"task": "cone_density", "name": "cone", "omega": "disk", "x": [0, 0], "v": [1, 0], "alpha": 0.7853981633974483},
    {"task": "sigma_probe", "name": "sigma", "members": ["slab1", "slab2"], "union": "halfslab",
     "feature": "origin2", "omega": "disk"},
    {"task": "aura_report", "name": "aura", "feature": "origin1", "omega": "line"},
    {"task": "boundary_trace", "name": "trace", "integrand": "xy", "omega": "square", "x": [0, 0.5]},
    {"task": "density_gradient", "name": "grad", "omega": "line", "x": [0], "gradient": ["sgn"]},
    {"task": "calculus_rule_check", "name": "rules", "rule": "sum", "omega": "line", "x": [0],
     "f1": {"f": "xfield", "grad": ["sgn"]}, "f2": {"f": "xsq"}},
    {"task": "collar_average", "name": "collar", "integrand": "xsq", "surface": "disk",
     "schedule": {"delta0": 0.64, "count": 6}, "nodes": 512},
    {"task": "gauss_check", "name": "gauss", "phi": ["xfield", "yfield"], "surface": "disk",
     "div": "two", "nodes": 512},
    {"task": "fa_lattice", "name": "exact", "measure": {
        "atoms": ["a", "b", "c"], "blocks": [["a"], ["b"], ["c"]],
        "values": [[2, 1], [-3, 1], [1, 1]]}, "band": ["a"]},
]


def test_full_suite_runs_and_is_deterministic(tmp_path):
    cfg_text = config_with(FULL_SUITE)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(parse_config(cfg_text), out1) == 0
    assert run(parse_config(cfg_text), out2) == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs == sorted(p.name for p in out2.glob("*.csv"))
    assert csvs  # the suite writes profile CSVs
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_fa_lattice_task_payload(tmp_path):
    cfg = parse_config(config_with([FULL_SUITE[-1]]))
    run(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    result = report["tasks"][0]["result"]
    assert result["total"] == [0, 1]
    assert result["total_variation"] == [6, 1]
    assert result["jordan"]["orthogonal"] is True
    assert result["pure_part_zero"] is True
    assert result["band"]["inside"]["values"] == [[2, 1], [0, 1], [0, 1]]


def test_main_cli_round_trip(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config_with([DENSITY_TASK]))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()

    # seed override changes the sample stream (the antithetic-exact density
    # fixture is seed-invariant, so probe a stream-sensitive integrand)
    cos_path = tmp_path / "cos.json"
    cos_path.write_text(config_with([
        {"task": "sharp_integral", "name": "cosint", "integrand": "cosx",
         "feature": "origin1", "omega": "line"},
    ]))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cos_path), "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["--config", str(cos_path), "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "cosint.csv").read_bytes() != (out_b / "cosint.csv").read_bytes()


def test_main_task_filter(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config_with([DENSITY_TASK, dict(DENSITY_TASK, name="other")]))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "--task", "other"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [t["name"] for t in report["tasks"]] == ["other"]
    assert main(["--config", str(cfg_path), "--out", str(out), "--task", "ghost"]) == 1
    assert run(parse_config(cfg_path.read_text()), out, only="ghost") == 0
    assert json.loads((out / "report.json").read_text())["tasks"] == []


SIGMA_A = dict(FULL_SUITE[4], name="a")  # writes a_member1.csv, a_member2.csv and a_union.csv


@pytest.mark.parametrize("tasks, index", [
    ([dict(DENSITY_TASK, name=[1])], 0),
    ([dict(DENSITY_TASK, name=7)], 0),
    ([dict(DENSITY_TASK, name="")], 0),
    ([dict(DENSITY_TASK, name="../escaped")], 0),
    ([dict(DENSITY_TASK, name="sub/x")], 0),
    ([dict(DENSITY_TASK, name=".hidden")], 0),
    ([dict(DENSITY_TASK, name="a b")], 0),
    ([dict(DENSITY_TASK, name="a_union"), SIGMA_A], 1),
    ([SIGMA_A, dict(DENSITY_TASK, name="a_member2")], 1),
    ([SIGMA_A, dict(FULL_SUITE[-1], name="a_union")], 1),  # writes no CSV, but takes the name
    ([DENSITY_TASK, DENSITY_TASK], 1),
], ids=["list", "number", "empty", "parent", "subdirectory", "hidden", "space", "union-first", "member-second",
        "no-csv", "duplicate"])
def test_main_rejects_task_names_that_are_no_csv_stem_of_their_own(tmp_path, capsys, tasks, index):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config_with(tasks))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error at /tasks/{index}/name" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_parse_accepts_task_names_of_letters_digits_and_inner_dots():
    names = ["a", "A.b-c_1", "-x", "a..b", "sigma_union"]
    assert [task.name for task in parse_config(config_with([dict(DENSITY_TASK, name=n) for n in names])).jobs] == names


def test_main_usage_and_parse_failures(tmp_path):
    assert main([]) == 1  # missing required flags
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_main_reports_an_output_path_it_cannot_write(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config_with([DENSITY_TASK]))
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    assert main(["--config", str(cfg_path), "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("cannot write output: ")
    assert taken.read_text() == "a file, not a directory"


def test_parse_rejects_non_string_task_kind():
    with pytest.raises(ParseError) as err:
        parse_config(config_with([dict(DENSITY_TASK, task=["density_ratio"])]))
    assert "/tasks/0/task" in str(err.value)


@pytest.mark.parametrize("seed, task_samples, flags, pointer", [
    (7, None, ["--samples", "0"], "--samples"),
    (7, None, ["--samples", "-5"], "--samples"),
    (7, None, ["--samples", "1"], "--samples"),
    (7, None, ["--seed", "-1"], "--seed"),
    (-3, None, [], "/seed"),
    (7, 0, [], "/tasks/0/samples"),
])
def test_main_rejects_bad_seed_and_samples(tmp_path, capsys, seed, task_samples, flags, pointer):
    task = DENSITY_TASK if task_samples is None else dict(DENSITY_TASK, samples=task_samples)
    cfg = json.loads(config_with([task]))
    cfg["seed"] = seed
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), *flags]) == 1
    assert pointer in capsys.readouterr().err
    assert not out.exists()


COLLAR_TASK = {"task": "collar_average", "name": "collar", "integrand": "xsq", "surface": "disk"}
CONE_TASK, RULES_TASK = FULL_SUITE[3], FULL_SUITE[8]
MEASURE = FULL_SUITE[-1]["measure"]
WITH_X3 = {"integrands": dict(BASE["integrands"], z="x3")}  # z uses x3: too many coordinates below 3-D
DEEP = ["(" * 2000 + "x1" + ")" * 2000, "-" * 5000 + "x1", "+".join(["x1"] * 5000)]
NAN, INF = float("nan"), float("inf")  # json.dumps writes the NaN and Infinity that json.loads reads
UNBOUNDED = {"regions": dict(BASE["regions"], halfline={"halfspace": {"normal": [-1], "offset": 0}},
                            outside={"complement": {"box": {"lo": [-1], "hi": [1]}}})}
WITH_QUADRANT = {"features": dict(BASE["features"], quadrant={"intersection": [
    {"halfspace": {"normal": [1, 0], "offset": 0}}, {"halfspace": {"normal": [0, 1], "offset": 0}}]})}


@pytest.mark.parametrize("top, task, pointer", [
    ({"tol": "abc"}, DENSITY_TASK, "/tol"),
    ({"tol": -1}, DENSITY_TASK, "/tol"),
    ({"tol": float("nan")}, DENSITY_TASK, "/tol"),
    ({}, dict(DENSITY_TASK, tol=-1), "/tasks/0/tol"),
    ({}, dict(DENSITY_TASK, tol="abc"), "/tasks/0/tol"),
    ({"schedule": {"delta0": "abc"}}, DENSITY_TASK, "/schedule/delta0"),
    ({"schedule": {"ratio": "abc"}}, DENSITY_TASK, "/schedule/ratio"),
    ({"schedule": {"count": "abc"}}, DENSITY_TASK, "/schedule/count"),
    ({}, dict(DENSITY_TASK, schedule={"delta0": "abc"}), "/tasks/0/schedule/delta0"),
    ({}, dict(COLLAR_TASK, nodes=4), "/tasks/0/nodes"),
    ({}, dict(COLLAR_TASK, nodes="abc"), "/tasks/0/nodes"),
    # integer fields must be integers: no bools, fractions or strings
    ({"samples": 2.5}, DENSITY_TASK, "/samples"),
    ({"seed": 1.9}, DENSITY_TASK, "/seed"),
    ({"seed": True}, DENSITY_TASK, "/seed"),
    ({"seed": "3"}, DENSITY_TASK, "/seed"),
    ({}, dict(DENSITY_TASK, samples=1000.5), "/tasks/0/samples"),
    ({}, dict(COLLAR_TASK, nodes=8.9), "/tasks/0/nodes"),
    ({}, dict(COLLAR_TASK, nodes="16"), "/tasks/0/nodes"),
    ({"schedule": {"count": True}}, DENSITY_TASK, "/schedule/count"),
    # sections that are not objects (or lists)
    ({"schedule": 5}, DENSITY_TASK, "/schedule"),
    ({"regions": [1]}, DENSITY_TASK, "/regions"),
    ({"features": 3}, DENSITY_TASK, "/features"),
    ({"integrands": [1]}, DENSITY_TASK, "/integrands"),
    ({"tasks": 5}, DENSITY_TASK, "/tasks"),
    ({}, dict(DENSITY_TASK, schedule="x"), "/tasks/0/schedule"),
    ({}, {"task": "sigma_probe", "members": 5, "union": "halfslab", "feature": "origin2", "omega": "disk"},
     "/tasks/0/members"),
    ({}, {"task": "gauss_check", "phi": "xfield", "surface": "disk"}, "/tasks/0/phi"),
    # surface fixtures are built at parse time: unsupported surfaces and node budgets
    ({}, dict(COLLAR_TASK, surface="line"), "/tasks/0/surface"),
    ({}, dict(COLLAR_TASK, surface="square", nodes=1_000_000), "/tasks/0/nodes"),
    ({"regions": dict(BASE["regions"], ball3={"ball": {"c": [0, 0, 0], "r": 1}})},
     dict(COLLAR_TASK, surface="ball3", nodes=1_000_000), "/tasks/0/nodes"),
    ({"regions": dict(BASE["regions"], box3={"box": {"lo": [0, 0, 0], "hi": [1, 1, 1]}})},
     {"task": "gauss_check", "phi": ["xfield", "yfield", "xfield"], "surface": "box3", "nodes": 600},
     "/tasks/0/nodes"),
    # 4n square nodes are under the total budget, but n is too many for a Gauss-Legendre rule
    ({}, dict(COLLAR_TASK, surface="square", nodes=524288), "/tasks/0/nodes"),
    # numbers are JSON numbers, not bools or numeric strings
    ({"tol": True}, DENSITY_TASK, "/tol"),
    ({"tol": "0.5"}, DENSITY_TASK, "/tol"),
    ({"schedule": {"delta0": True}}, DENSITY_TASK, "/schedule/delta0"),
    # points are lists of numbers with omega's dimension, alpha a number, rule sum or product
    ({}, dict(CONE_TASK, x=5), "/tasks/0/x"),
    ({}, dict(CONE_TASK, x=[0]), "/tasks/0/x"),
    ({}, dict(CONE_TASK, v=[1, "0"]), "/tasks/0/v/1"),
    ({}, {k: v for k, v in CONE_TASK.items() if k != "alpha"}, "/tasks/0/alpha"),
    ({}, dict(CONE_TASK, alpha=True), "/tasks/0/alpha"),
    ({}, {"task": "boundary_trace", "integrand": "xy", "omega": "square", "x": [0, 0.5, 1]}, "/tasks/0/x"),
    ({}, {"task": "density_gradient", "omega": "line", "x": [False], "gradient": ["sgn"]}, "/tasks/0/x/0"),
    ({}, dict(RULES_TASK, x={"x1": 0}), "/tasks/0/x"),
    ({}, dict(RULES_TASK, rule="quotient"), "/tasks/0/rule"),
    # presence and shape: a gradient or integrand, one integrand per coordinate, members
    ({}, {"task": "density_gradient", "omega": "line", "x": [0]}, "/tasks/0/gradient"),
    ({}, {"task": "density_gradient", "omega": "disk", "x": [0, 0], "gradient": ["sgn"]}, "/tasks/0/gradient"),
    ({}, dict(RULES_TASK, f1={"f": "xfield", "grad": []}), "/tasks/0/f1/grad"),
    ({}, dict(RULES_TASK, f2={"grad": ["sgn"]}), "/tasks/0/f2/f"),
    ({}, {"task": "gauss_check", "phi": ["xfield"], "surface": "disk"}, "/tasks/0/phi"),
    ({}, {"task": "sigma_probe", "members": [], "union": "halfslab", "feature": "origin2", "omega": "disk"},
     "/tasks/0/members"),
    ({}, {"task": "sigma_probe", "union": "halfslab", "feature": "origin2", "omega": "disk"}, "/tasks/0/members"),
    # fa_lattice measures parse and bands name known atoms
    ({}, {"task": "fa_lattice", "measure": {"atoms": ["a"], "blocks": [["a"]]}}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, values=[[1, 0], [1, 1], [1, 1]])}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": MEASURE, "band": ["z"]}, "/tasks/0/band"),
    ({}, {"task": "fa_lattice", "measure": MEASURE, "band": "a"}, "/tasks/0/band"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, blocks=[["a", "b"], ["c"]], values=[[1, 1], [2, 1]]),
          "band": ["a"]}, "/tasks/0/band"),
    # measures: atoms and blocks are lists of strings, values pairs of integers
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, atoms="abc")}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, atoms=["a", "b", 3])}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, blocks=["a", "b", "c"])}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, values=[[1.5, 1], [1, 1], [1, 1]])}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, values=[[1, True], [1, 1], [1, 1]])}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, values=[["1", 1], [1, 1], [1, 1]])}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, values=[[1, 1, 1], [1, 1], [1, 1]])}, "/tasks/0/measure"),
    ({}, {"task": "fa_lattice", "measure": dict(MEASURE, values=[2, 1, 1])}, "/tasks/0/measure"),
    # values the library would reject when the task runs
    ({}, dict(CONE_TASK, alpha=0), "/tasks/0/alpha"),
    ({}, dict(CONE_TASK, alpha=1.5708), "/tasks/0/alpha"),
    ({}, dict(CONE_TASK, alpha=-0.5), "/tasks/0/alpha"),
    ({}, dict(CONE_TASK, v=[0, 0]), "/tasks/0/v"),
    ({}, dict(CONE_TASK, v=[0.0, -0.0]), "/tasks/0/v"),
    ({}, dict(DENSITY_TASK, region="halfslab", omega="disk"), "/tasks/0/feature"),  # a 1-D point on a disk
    ({}, {"task": "sharp_integral", "integrand": "cosx", "feature": "origin2", "omega": "line"}, "/tasks/0/feature"),
    ({}, {"task": "action_interval", "integrand": "cosx", "feature": "origin2", "omega": "line"}, "/tasks/0/feature"),
    ({}, {"task": "aura_report", "feature": "origin1", "omega": "disk"}, "/tasks/0/feature"),
    ({}, {"task": "sigma_probe", "members": ["slab1"], "union": "halfslab", "feature": "origin1", "omega": "disk"},
     "/tasks/0/feature"),
    ({}, dict(DENSITY_TASK, region="disk"), "/tasks/0/region"),
    ({}, {"task": "sigma_probe", "members": ["slab1", "line"], "union": "halfslab", "feature": "origin2",
          "omega": "disk"}, "/tasks/0/members/1"),
    ({}, {"task": "sigma_probe", "members": ["slab1"], "union": "right", "feature": "origin2", "omega": "disk"},
     "/tasks/0/union"),
    # integrands use no coordinate beyond omega's (or the surface's) dimension
    (WITH_X3, {"task": "sharp_integral", "integrand": "z", "feature": "origin1", "omega": "line"},
     "/tasks/0/integrand"),
    (WITH_X3, {"task": "sharp_integral", "integrand": "cosx", "weight": "z", "feature": "origin1", "omega": "line"},
     "/tasks/0/weight"),
    (WITH_X3, dict(DENSITY_TASK, weight="z"), "/tasks/0/weight"),
    (WITH_X3, {"task": "action_interval", "integrand": "z", "feature": "origin2", "omega": "disk"},
     "/tasks/0/integrand"),
    (WITH_X3, {"task": "boundary_trace", "integrand": "z", "omega": "square", "x": [0, 0.5]}, "/tasks/0/integrand"),
    (WITH_X3, {"task": "density_gradient", "omega": "line", "x": [0], "integrand": "z"}, "/tasks/0/integrand"),
    (WITH_X3, {"task": "density_gradient", "omega": "disk", "x": [0, 0], "gradient": ["sgn", "z"]},
     "/tasks/0/gradient/1"),
    (WITH_X3, dict(RULES_TASK, f1={"f": "z"}), "/tasks/0/f1/f"),
    (WITH_X3, dict(RULES_TASK, f2={"f": "xsq", "grad": ["z"]}), "/tasks/0/f2/grad/0"),
    (WITH_X3, dict(COLLAR_TASK, integrand="z"), "/tasks/0/integrand"),
    (WITH_X3, {"task": "gauss_check", "phi": ["xfield", "z"], "surface": "disk"}, "/tasks/0/phi/1"),
    (WITH_X3, {"task": "gauss_check", "phi": ["xfield", "yfield"], "surface": "disk", "div": "z"}, "/tasks/0/div"),
    # a region used as a feature needs an exact signed distance
    (WITH_QUADRANT, dict(DENSITY_TASK, region="halfslab", feature="quadrant", omega="disk"), "/features/quadrant"),
    # an expression nested too deeply for a parser or an evaluator that recurses
    *[({"integrands": dict(BASE["integrands"], deep=deep)}, DENSITY_TASK, "/integrands/deep") for deep in DEEP],
    # a schedule's levels are bounded
    ({"schedule": {"count": MAX_LEVELS + 1}}, DENSITY_TASK, "/schedule/count"),
    ({}, dict(DENSITY_TASK, schedule={"count": MAX_LEVELS + 1}), "/tasks/0/schedule/count"),
    # a number is a finite JSON number everywhere, in regions and features too
    ({"regions": dict(BASE["regions"], lax={"box": {"lo": "0", "hi": [True]}})}, DENSITY_TASK, "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"box": {"lo": [0], "hi": [True]}})}, DENSITY_TASK, "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"ball": {"c": [0, NAN], "r": 1}})}, DENSITY_TASK, "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"ball": {"c": [0, 0], "r": "1"}})}, DENSITY_TASK, "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"halfspace": {"normal": [1, 0], "offset": True}})}, DENSITY_TASK,
     "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"halfspace": {"normal": [1, INF], "offset": 0}})}, DENSITY_TASK,
     "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"cusp": {"p": "2"}})}, DENSITY_TASK, "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"cusp": {"p": 2, "dim": 2.9}})}, DENSITY_TASK, "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"cusp": {"p": 2, "dim": "3"}})}, DENSITY_TASK, "/regions/lax"),
    ({"features": dict(BASE["features"], lax={"point": {"c": "0"}})}, DENSITY_TASK, "/features/lax"),
    ({"features": dict(BASE["features"], lax={"point": {"c": [NAN]}})}, DENSITY_TASK, "/features/lax"),
    ({"features": dict(BASE["features"], lax={"segment": {"a": [0, 0], "b": [INF, 0]}})}, DENSITY_TASK,
     "/features/lax"),
    ({"tol": INF}, DENSITY_TASK, "/tol"),
    ({"schedule": {"delta0": INF}}, DENSITY_TASK, "/schedule/delta0"),
    ({}, {"task": "density_gradient", "omega": "line", "x": [NAN], "gradient": ["sgn"]}, "/tasks/0/x/0"),
    ({}, {"task": "boundary_trace", "integrand": "xy", "omega": "square", "x": [0, NAN]}, "/tasks/0/x/1"),
    ({}, dict(CONE_TASK, x=[INF, 0]), "/tasks/0/x/0"),
    ({}, dict(CONE_TASK, v=[1, -INF]), "/tasks/0/v/1"),
    ({}, dict(CONE_TASK, v=[1e308, 1e308]), "/tasks/0/v"),  # its norm overflows, without a warning
    # a schedule takes only delta0 and count: a misspelt key is not ignored, and delta always halves
    ({"schedule": {"cout": 3}}, DENSITY_TASK, "/schedule/cout"),
    ({}, dict(DENSITY_TASK, schedule={"ratio": 0.5}), "/tasks/0/schedule/ratio"),
    # a trace point must lie on the boundary of omega
    ({}, {"task": "boundary_trace", "integrand": "xy", "omega": "square", "x": [0.5, 0.5]}, "/tasks/0/x"),
    # every sampling task bounds its levels by omega's bounding box
    (UNBOUNDED, dict(DENSITY_TASK, omega="halfline", schedule={"delta0": 0.5}), "/tasks/0/omega"),
    (UNBOUNDED, dict(DENSITY_TASK, omega="outside"), "/tasks/0/omega"),
    ({"regions": dict(BASE["regions"], lax={"cusp": {"p": 2, "dim": True}})}, DENSITY_TASK, "/regions/lax"),
    # a normal whose norm overflows or underflows gives sdf NaN or -inf
    ({"regions": dict(BASE["regions"], lax={"halfspace": {"normal": [1e308, 1e308], "offset": 0}})}, DENSITY_TASK,
     "/regions/lax"),
    ({"regions": dict(BASE["regions"], lax={"halfspace": {"normal": [1e-200, 0], "offset": 0}})}, DENSITY_TASK,
     "/regions/lax"),
    # a steep cusp's slope bound once overflowed in the check
    ({"regions": dict(BASE["regions"], steep={"cusp": {"p": 1e200}})},
     {"task": "boundary_trace", "integrand": "xy", "omega": "steep", "x": [1.5, 0]}, "/tasks/0/x"),
])
def test_main_rejects_bad_tol_delta0_and_nodes(tmp_path, capsys, top, task, pointer):
    cfg = json.loads(config_with([task]))
    cfg.update(top)
    text = json.dumps(cfg)
    with pytest.raises((ParseError, BadSchedule)) as err:
        parse_config(text)
    assert err.value.pointer == pointer
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    assert pointer in capsys.readouterr().err
    assert not out.exists()


def test_a_cusp_dimension_builds_nothing_before_the_task_is_checked(tmp_path, capsys):
    # omega's bounding box has `dim` coordinates: the 2-D feature fails the task before it is built
    cfg = json.loads(config_with([dict(DENSITY_TASK, region="cusp", feature="origin2", omega="cusp")]))
    cfg["regions"]["cusp"] = {"cusp": {"p": 2, "dim": 1e9}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "/tasks/0/feature" in capsys.readouterr().err
    assert peak < 4e6


NESTED = {  # config texts nested beyond MAX_DEPTH, for json.loads, the region grammar and the report
    "tasks": '{"tasks": ' + "[" * 5000,
    "region": config_with([DENSITY_TASK]).replace('"regions": {', '"regions": {"deep": ' + '{"complement": ' * 700
                                                  + '{"ball": {"c": [0], "r": 1}}' + "}" * 700 + ", ", 1),
    "unknown field": config_with([dict(DENSITY_TASK, extra="[[]]")]).replace('"[[]]"', "[" * 600 + "]" * 600),
}


@pytest.mark.parametrize("kind", NESTED)
def test_main_rejects_deep_configs_at_parse(tmp_path, capsys, kind):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(NESTED[kind])
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error at /: config nests arrays and objects more than {MAX_DEPTH} deep" in capsys.readouterr().err
    assert not out.exists()


def test_parse_accepts_configs_nested_up_to_max_depth():
    def nested(lists: int) -> str:  # the config object, the task list and the task hold the lists
        return config_with([dict(DENSITY_TASK, extra="[]")]).replace('"[]"', "[" * lists + "]" * lists)

    parse_config(nested(MAX_DEPTH - 3))
    with pytest.raises(ParseError):
        parse_config(nested(MAX_DEPTH - 2))


def test_parse_accepts_zero_tol_and_eight_nodes():
    cfg = parse_config(config_with([dict(COLLAR_TASK, tol=0, nodes=8)]))
    assert cfg.resolved["tol"] > 0 and cfg.resolved["tasks"][0]["nodes"] == 8
    cfg = json.loads(config_with([DENSITY_TASK]))
    cfg["tol"] = 0
    assert parse_config(json.dumps(cfg)).resolved["tol"] == 0.0


def test_parse_accepts_integral_floats_and_the_node_bound():
    cfg = json.loads(config_with([dict(COLLAR_TASK, surface="square", nodes=1024.0)]))
    cfg.update(samples=5e4, seed=3.0)
    cfg["regions"]["cusp3"] = {"cusp": {"p": 2, "dim": 3.0}}
    parsed = parse_config(json.dumps(cfg))
    samples, seed = parsed.resolved["samples"], parsed.resolved["seed"]
    assert (samples, seed) == (50_000, 3)
    assert type(samples) is int and type(seed) is int
    cfg["regions"]["ball3"] = {"ball": {"c": [0, 0, 0], "r": 1}}
    cfg["tasks"] = [dict(COLLAR_TASK, surface="ball3", nodes=1024)]  # 2 * 1024^2 = 2^21 nodes
    parse_config(json.dumps(cfg))


def test_parse_accepts_integrands_up_to_the_dimension():
    cfg = json.loads(config_with([
        dict(COLLAR_TASK, integrand="z", surface="ball3"),
        {"task": "gauss_check", "phi": ["xfield", "yfield", "z"], "surface": "ball3", "div": "z"},
        {"task": "sharp_integral", "integrand": "two", "weight": "yfield", "feature": "origin2", "omega": "disk"},
    ]))
    cfg["regions"]["ball3"] = {"ball": {"c": [0, 0, 0], "r": 1}}
    cfg["integrands"]["z"] = "x3"
    assert len(parse_config(json.dumps(cfg)).jobs) == 3


def test_default_nodes_reference_on_the_sphere(tmp_path):
    cfg = json.loads(config_with([
        {"task": "collar_average", "name": "collar", "integrand": "xsq", "surface": "ball3",
         "schedule": {"delta0": 0.5, "count": 3}, "samples": 2000},
    ]))
    cfg["regions"]["ball3"] = {"ball": {"c": [0, 0, 0], "r": 1}}
    assert run(parse_config(json.dumps(cfg)), tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tasks"][0]["result"]["surface_reference"] == pytest.approx(1 / 3, abs=1e-15)
    assert "nodes" not in report["config"]["tasks"][0]


OPTIONAL_FIELDS = {"rule", "schedule", "nodes", "div", "band"}
FIELD_EDITS = [
    (index, field, edit)
    for index, task in enumerate(FULL_SUITE)
    for field in task if field not in ("task", "name")
    for edit in (("set", "delete") if field not in OPTIONAL_FIELDS else ("set",))
]


@pytest.mark.parametrize("index, field, edit", FIELD_EDITS,
                         ids=[f"{FULL_SUITE[i]['name']}-{f}-{e}" for i, f, e in FIELD_EDITS])
def test_every_task_field_is_checked_at_parse(index, field, edit):
    task = dict(FULL_SUITE[index])
    if edit == "set":
        task[field] = "?"
    else:
        del task[field]
    with pytest.raises(ConfigError) as err:
        parse_config(config_with([task]))
    assert err.value.pointer.startswith(f"/tasks/0/{field}")


# ---------------------------------------------------------- shared tasks

# below fork size: an unintegrable task and an exact one among the sampling tasks;
# at 60,000 samples they run 4 x 30,000 + 50,000 pairs per level, 2 shares of FORK_PAIRS
SHARED = [DENSITY_TASK, FULL_SUITE[3],
          {"task": "sharp_integral", "name": "sing", "integrand": "oddsing", "feature": "origin1", "omega": "line",
           "samples": 100_000},
          FULL_SUITE[4], FULL_SUITE[-1]]

SHARE_SCRIPT = textwrap.dedent("""
    import os, shutil, tempfile
    from pathlib import Path
    import forking
    import test_cli as t
    from puremeasure import cli, density_engine

    # two shares: tasks 0, 2, 4 in the caller and 1, 3 in one child
    mask, caller, forks = forking.start()
    work = Path(tempfile.mkdtemp())

    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def main(tasks, name, *flags, cpus=mask):
        \"\"\"The exit code, files and forks of a CLI run of `tasks` on `cpus`.\"\"\"
        path = work / f"{name}.json"
        path.write_text(t.config_with(tasks))
        before = len(forks)
        os.sched_setaffinity(0, cpus)
        try:
            code = cli.main(["--config", str(path), "--out", str(work / name), *flags])
        finally:
            os.sched_setaffinity(0, mask)
        return code, files(work / name), len(forks) - before

    two = ("--samples", "60000")
    code, shared, forked = main(t.SHARED, "shared", *two)
    assert (code, forked) == (2, 1)
    assert main(t.SHARED, "serial", *two, cpus={min(mask)}) == (2, shared, 0)
    # at 20,000 samples they run 90,000 pairs per level, one share's worth
    assert main(t.SHARED, "light")[::2] == (2, 0)

    config = cli.parse_config(t.config_with(t.SHARED), samples=60000)
    job = config.jobs[1].job
    def dies_in_a_child(out):
        if os.getpid() != caller:
            (work / "died").touch()
            os._exit(3)
        return job(out)

    config.jobs[1] = config.jobs[1]._replace(job=dies_in_a_child)
    before = len(forks)
    assert cli.run(config, work / "rerun") == 2 and len(forks) == before + 1 and (work / "died").exists()
    assert files(work / "rerun") == shared

    assert main(t.SHARED, "one", *two, "--task", "sing")[::2] == (2, 0)
    forking.runnable(2)
    assert main(t.SHARED, "busy", *two) == (2, shared, 0)
    forking.runnable(1)
    # at fork size the tasks run in turn and each of their three profiles forks its levels
    big = t.SHARED[:2] + [t.FULL_SUITE[1]]
    assert main(big, "big", "--samples", str(2 * density_engine.FORK_PAIRS))[::2] == (0, 3)

    # the engine's FORK_PAIRS decides for the CLI: four tasks of 10,000 pairs
    # per level run in turn, and in two shares once it is 20,000
    small = t.SHARED[:2] + t.SHARED[3:]
    code, serial, forked = main(small, "small")
    assert forked == 0
    density_engine.FORK_PAIRS = 20_000
    assert main(small, "small_shared") == (code, serial, 1)

    forking.finish(mask)
    shutil.rmtree(work)
    print("shared")
""")


@pytest.mark.skipif(forking.CANNOT_FORK, reason="sharing tasks needs os.fork and 2 usable CPUs")
def test_tasks_below_fork_size_share_the_cpus():
    # the script asserts, on a 2-CPU mask with an idle machine faked: a
    # config of tasks below fork size forks once and writes the files and
    # exit code of its run pinned to one CPU; a share whose child dies is
    # run again by the caller, to the same files; tasks that together run
    # fewer than 2 FORK_PAIRS pairs per level, one task, a busy machine and
    # a config at fork size fork no task share, and the last forks each
    # profile's levels instead; with the engine's FORK_PAIRS lowered, a
    # config that ran in turn shares; no child is left and the mask is restored
    assert forking.run_script(SHARE_SCRIPT)[-1] == "shared"
