"""End-to-end runs of the command line through cli_dispatch."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from digitop import builders, constant, dump_map, from_assignment, identity
from digitop.cli import cli_dispatch
from digitop.fileio import dump_image


def _run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_image_info_text(capsys):
    code, out, _ = _run(capsys, "image", "info", "builtin:cube")
    assert code == 0
    assert "points: 8" in out
    assert "edges: 12" in out


def test_image_info_json_rows_have_sorted_keys(capsys):
    code, out, _ = _run(capsys, "image", "info", "builtin:cycle:5", "--format", "json")
    assert code == 0
    row = json.loads(out.strip())
    assert list(row) == sorted(row)
    assert row["n_points"] == 5
    assert row["connected"] is True


def test_image_build_round_trip(capsys, tmp_path):
    target = tmp_path / "cyc.json"
    code, _, _ = _run(capsys, "image", "build", "cycle:4", "-o", str(target))
    assert code == 0
    code, out, _ = _run(capsys, "image", "info", str(target))
    assert code == 0
    assert "points: 4" in out


def test_map_check_exit_codes(capsys, tmp_path):
    good = tmp_path / "good.json"
    dump_map(identity(builders.interval(0, 3)), str(good))
    code, out, _ = _run(capsys, "map", "check", str(good))
    assert code == 0
    assert "continuous" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "domain": "builtin:interval:0:3",
        "codomain": "builtin:interval:0:3",
        "assignment": [0, 2, 0, 2],
    }))
    code, out, _ = _run(capsys, "map", "check", str(bad))
    assert code == 1
    assert "adjacent" in out and "(0, 2)" in out

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{nope")
    code, _, err = _run(capsys, "map", "check", str(mangled))
    assert code == 2
    assert ":1:" in err  # line:col diagnostics


def test_usage_error_exits_two(capsys):
    code, _, err = _run(capsys, "image", "nonesuch")
    assert code == 2
    assert "invalid choice" in err


def test_maps_count_and_enumerate(capsys):
    code, out, _ = _run(capsys, "maps", "count", "builtin:cycle:4", "builtin:cycle:4")
    assert code == 0
    assert "84" in out

    code, out, err = _run(
        capsys, "maps", "enumerate", "builtin:cycle:4", "builtin:cycle:4", "--limit", "5"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert "truncated" in err


def test_enumerate_limit_equal_to_the_count_is_exhaustive(capsys):
    code, out, err = _run(
        capsys, "maps", "enumerate", "builtin:cycle:4", "builtin:cycle:4", "--limit", "84"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 84
    assert "(exhaustive)" in err


def test_enumerate_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("DIGITOP_BUDGET_NODES", "3")
    code, _, err = _run(capsys, "maps", "enumerate", "builtin:cycle:4", "builtin:cycle:4")
    assert code == 0
    assert "truncated" in err


def test_malformed_budget_env_var_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("DIGITOP_BUDGET_NODES", "abc")
    code, out, err = _run(capsys, "image", "info", "builtin:cube")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "DIGITOP_BUDGET_NODES" in err


def test_hfs_rejects_non_self_maps_before_computing_classes(capsys, tmp_path, monkeypatch):
    import digitop.homotopy as homotopy

    def no_classes(*args, **kwargs):
        raise AssertionError("a homotopy class was computed")

    monkeypatch.setattr(homotopy._Homotopy, "class_of", no_classes)
    path = tmp_path / "c.json"
    dump_map(constant(builders.interval(0, 2), builders.interval(0, 3), 0), str(path))
    for command in ("hfs", "mcf"):
        code, out, err = _run(capsys, "hspectrum", command, str(path))
        assert code == 2
        assert out == ""
        assert "self-maps" in err


def test_spectrum_cs_json(capsys):
    code, out, _ = _run(
        capsys, "spectrum", "cs", "builtin:cube", "builtin:cube", "--format", "json"
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["values"] == list(range(9))
    assert row["exact"] is True


def test_spectrum_f_interval(capsys):
    code, out, _ = _run(capsys, "spectrum", "f", "builtin:interval:0:3")
    assert code == 0
    assert "{0, 1, 2, 3, 4}" in out


def test_are_homotopic_chain(capsys, tmp_path):
    img = builders.interval(0, 3)
    a = tmp_path / "id.json"
    b = tmp_path / "const.json"
    dump_map(identity(img), str(a))
    dump_map(constant(img, img, 0), str(b))
    code, out, _ = _run(capsys, "homotopy", "are-homotopic", str(a), str(b))
    assert code == 0
    assert "yes" in out


def test_rigid_on_image(capsys):
    code, out, _ = _run(capsys, "homotopy", "rigid", "builtin:figure1")
    assert code == 0
    assert "True" in out
    code, out, _ = _run(capsys, "homotopy", "rigid", "builtin:cycle:4")
    assert code == 0
    assert "False" in out


def test_contractible(capsys):
    code, out, _ = _run(capsys, "homotopy", "contractible", "builtin:cycle:5")
    assert code == 0
    assert "no" in out


def test_hspectrum_mj(capsys):
    code, out, _ = _run(capsys, "hspectrum", "mj", "builtin:cycle:5", "--j-max", "3")
    assert code == 0
    assert "m_2" in out and "0" in out


def test_verify_random_small(capsys):
    code, out, err = _run(
        capsys, "verify", "random-small", "--instances", "2", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows and all(r["verdict"] == "pass" for r in rows)
    assert "0 failed" in err


_ARITY_OPTIONS = [("--i-max", "1"), ("--i-max", "0"), ("--j-max", "0")]


@pytest.mark.parametrize(
    "option",
    [("--max-points", "0"), ("--max-points", "-2"), ("--instances", "-1"), *_ARITY_OPTIONS],
)
def test_verify_rejects_out_of_range_sizes(capsys, option):
    code, out, err = _run(capsys, "verify", "random-small", *option)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", [("verify", "paper-fixtures"), ("conjecture",)])
@pytest.mark.parametrize("option", _ARITY_OPTIONS)
def test_out_of_range_arity_exits_2_before_any_check(capsys, command, option):
    code, out, err = _run(capsys, *command, *option)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be at least" in err


def test_verify_under_a_node_budget_skips_rather_than_fails(capsys):
    code, _, err = _run(capsys, "verify", "paper-fixtures", "--budget-nodes", "200")
    assert code == 0
    assert " 0 failed" in err and " 0 skipped" not in err


def test_nan_time_budget_is_input_error(capsys):
    code, out, err = _run(
        capsys, "maps", "count", "builtin:cube", "builtin:cube", "--budget-time", "nan"
    )
    assert code == 2
    assert out == ""
    assert "time_budget" in err


def _python(*argv):
    """Run a fresh interpreter with ``src`` on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = (
        "import sys; before = set(sys.modules); import digitop.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "digitop.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("module", ["digitop", "digitop.cli"])
def test_python_dash_m_runs_the_command(module):
    done = _python("-m", module, "image", "info", "builtin:cube")
    assert done.returncode == 0, done.stderr
    assert "points: 8" in done.stdout


def test_python_dash_m_rejects_an_unknown_group():
    done = _python("-m", "digitop", "frobnicate")
    assert done.returncode == 2
    assert "invalid choice" in done.stderr


def test_conjecture_small(capsys):
    code, _, err = _run(capsys, "conjecture", "--max-x", "3")
    assert code == 0
    assert "0 failed" in err


def test_discontinuous_map_elsewhere_is_input_error(capsys, tmp_path):
    # outside `map check`, a discontinuous map file is malformed input
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "domain": "builtin:interval:0:3",
        "codomain": "builtin:interval:0:3",
        "assignment": [0, 2, 0, 2],
    }))
    code, _, err = _run(capsys, "homotopy", "class", str(bad))
    assert code == 2
    assert "not continuous" in err


def _image_json(points=([0], [1], [2]), dimension=1, adjacency=None):
    adjacency = adjacency or {"type": "ct", "t": 1}
    return {"dimension": dimension, "points": list(points), "adjacency": adjacency}


def _map_json(assignment):
    path = "builtin:interval:0:2"
    return {"domain": path, "codomain": path, "assignment": assignment}


_IMAGE_INFO = ("image", "info")
# (command, file contents); each is malformed input, never a failed check
MALFORMED_FILES = {
    "string-coordinate": (_IMAGE_INFO, _image_json(points=[["a"]])),
    "float-coordinate": (_IMAGE_INFO, _image_json(points=[[1.5], [3]])),
    "string-dimension": (_IMAGE_INFO, _image_json(dimension="1")),
    "string-t": (_IMAGE_INFO, _image_json(adjacency={"type": "ct", "t": "1"})),
    "ct-without-t": (_IMAGE_INFO, _image_json(adjacency={"type": "ct"})),
    "one-endpoint-edge": (_IMAGE_INFO, _image_json(adjacency={"type": "explicit", "edges": [[0]]})),
    "float-endpoint": (
        _IMAGE_INFO, _image_json(adjacency={"type": "explicit", "edges": [[0, 1.5]]})
    ),
    "number-edges": (_IMAGE_INFO, _image_json(adjacency={"type": "explicit", "edges": 5})),
    **{
        f"{' '.join(command)}/{label}": (command, _map_json(assignment))
        for command in (("map", "check"), ("homotopy", "rigid"))
        for label, assignment in (
            ("string-value", ["a", 0, 0]),
            ("float-value", [0.9, 0, 0]),
            ("bool-value", [True, 0, 0]),
            ("number-assignment", 5),
        )
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_files_exit_2_with_an_error_line(capsys, tmp_path, name):
    command, contents = MALFORMED_FILES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(contents))
    code, _, err = _run(capsys, *command, str(path))
    assert code == 2
    assert err.startswith("error: ")


def test_image_info_accepts_file(capsys, tmp_path):
    target = tmp_path / "img.json"
    dump_image(builders.discrete(3), str(target))
    code, out, _ = _run(capsys, "image", "info", str(target))
    assert code == 0
    assert "points: 3" in out
    assert "edges: 0" in out


@pytest.mark.parametrize(
    "limit, rows, count",
    [
        ([], ["0 1 2 3 4", "1 2 3 4 0", "2 3 4 0 1", "3 4 0 1 2", "4 0 1 2 3"],
         "5 maps in class (complete)"),
        (["--limit", "3"], ["0 1 2 3 4", "1 2 3 4 0", "4 0 1 2 3"], "3 maps in class (truncated)"),
    ],
    ids=["complete", "limit-3"],
)
def test_homotopy_class_output(capsys, tmp_path, limit, rows, count):
    path = tmp_path / "id.json"
    dump_map(identity(builders.cycle(5)), str(path))
    code, out, err = _run(capsys, "homotopy", "class", str(path), *limit)
    assert (code, out, err) == (0, "".join(row + "\n" for row in rows), count + "\n")
    code, out, err = _run(capsys, "homotopy", "class", str(path), *limit, "--format", "json")
    json_rows = [json.dumps({"assignment": [int(v) for v in row.split()]}) for row in rows]
    assert (code, out, err) == (0, "".join(row + "\n" for row in json_rows), count + "\n")


def _text(*lines):
    return "".join(line + "\n" for line in lines)


def test_map_apply_output(capsys, tmp_path):
    img = builders.interval(0, 3)
    path = tmp_path / "f.json"
    dump_map(from_assignment(img, img, (1, 1, 2, 3)), str(path))
    assert _run(capsys, "map", "apply", str(path)) == (0, _text("1 1 2 3"), "")
    assert _run(capsys, "map", "apply", str(path), "--format", "json") == (
        0, _text('{"assignment": [1, 1, 2, 3]}'), ""
    )
    assert _run(capsys, "map", "apply", str(path), "--point", "2") == (
        0, _text("(2,) -> (2,) (index 2)"), ""
    )
    assert _run(capsys, "map", "apply", str(path), "--point", "2", "--format", "json") == (
        0, _text('{"point": 2, "point_coords": [2], "value": 2, "value_coords": [2]}'), ""
    )
    assert _run(capsys, "map", "apply", str(path), "--point", "4") == (
        2, "", _text("error: point index 4 out of range 0..3")
    )


def test_cfs_union_output(capsys):
    code, out, _ = _run(capsys, "spectrum", "cfs", "builtin:cycle:5", "--union", "--i-max", "3")
    text = "CFS(X) up to arity 3 = {0, 1, 2, 3, 5}  (stabilizes at arity 1)"
    assert (code, out) == (0, _text(text))
    code, out, _ = _run(
        capsys, "spectrum", "cfs", "builtin:interval:0:3", "--union", "--format", "json"
    )
    row = {"exact": True, "kind": "CFS(X) up to arity 4", "stabilized_at": 1,
           "values": [0, 1, 2, 3, 4]}
    assert (code, json.loads(out)) == (0, row)


C5 = builders.cycle(5)


@pytest.mark.parametrize(
    "maps, value",
    [
        # the identity and a rotation of C5 agree nowhere and share no fixed point
        ((identity(C5), from_assignment(C5, C5, (1, 2, 3, 4, 0))), 0),
        # figure1 is rigid, so its identity's class is itself, fixing all 18 points
        ((identity(builders.figure1()),) * 2, 18),
    ],
    ids=["C5-rotations", "figure1"],
)
@pytest.mark.parametrize("command", ["mc", "mcf"])
def test_class_minimum_output(capsys, tmp_path, command, maps, value):
    paths = []
    for k, f in enumerate(maps):
        paths.append(str(tmp_path / f"{k}.json"))
        dump_map(f, paths[-1])
    kind = f"{command.upper()} of 2 maps"
    code, out, _ = _run(capsys, "hspectrum", command, *paths)
    assert (code, out) == (0, _text(f"{kind} = {value}"))
    code, out, _ = _run(capsys, "hspectrum", command, *paths, "--format", "json")
    assert (code, json.loads(out)) == (0, {"exact": True, "kind": kind, "value": value})


def test_rigid_on_a_map_file(capsys, tmp_path):
    for image, verdict in ((builders.figure1(), "True"), (builders.cycle(5), "False")):
        path = tmp_path / "id.json"
        dump_map(identity(image), str(path))
        code, out, _ = _run(capsys, "homotopy", "rigid", str(path))
        assert (code, out) == (0, _text(f"map rigid: {verdict}"))
        code, out, _ = _run(capsys, "homotopy", "rigid", str(path), "--format", "json")
        assert (code, json.loads(out)) == (0, {"rigid": verdict == "True", "subject": "map"})


def test_hspectrum_mj_json(capsys):
    code, out, _ = _run(
        capsys, "hspectrum", "mj", "builtin:cycle:5", "--j-max", "3", "--format", "json"
    )
    rows = [{"exact": True, "j": j, "value": value} for j, value in ((1, 5), (2, 0), (3, 0))]
    assert (code, [json.loads(line) for line in out.splitlines()]) == (0, rows)
