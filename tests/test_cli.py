"""Command-line surface: golden files, round trips, exit discipline."""

import ast
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cuspcheck
from conftest import (
    hexagon,
    product_document,
    spanning_configuration_document,
    unit_simplex_document,
)
from cuspcheck import cli, moments, polytope

DATA = Path(__file__).parent / "data"

GOLDEN_COMMANDS = {
    "vertices": ["vertices", "simplex2.json"],
    "moments": ["moments", "simplex2.json"],
    "extremal-affine": ["extremal-affine", "simplex2.json", "--exclude", "hyp"],
    "blowup": [
        "blowup", "simplex2.json", "--vertex", "0,0", "--eps", "1/4", "--label", "E1"
    ],
    "tower": [
        "tower", "simplex2.json", "--facet", "hyp", "--rounds", "2",
        "--eps", "1/4,1/16",
    ],
    "check-obstruction": ["check-obstruction", "simplex2.json", "--facet", "hyp"],
    "check-hypotheses": ["check-hypotheses", "config3d.json"],
    "indicial-roots": [
        "indicial-roots", "--pairs", "trivial.json", "--window", "0,1",
        "--eta", "-0.3",
    ],
}


@pytest.fixture
def in_data_dir(monkeypatch):
    monkeypatch.chdir(DATA)


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, capsys, in_data_dir):
    code, out, _ = run_cli(capsys, GOLDEN_COMMANDS[name])
    assert code == 0
    expected = json.loads((DATA / "golden" / f"{name}.json").read_text())
    assert json.loads(out) == expected


def test_report_envelope(capsys, in_data_dir):
    _, out, _ = run_cli(capsys, ["vertices", "simplex2.json"])
    doc = json.loads(out)
    assert set(doc) == {"subcommand", "inputs", "result", "diagnostics", "version"}
    assert doc["inputs"]["digest"].startswith("sha256:")
    assert doc["subcommand"] == "vertices"


def test_round_trip_fixed_point(tmp_path, capsys, in_data_dir):
    # parse -> serialize -> parse: feed the blow-up output back in
    code, out, _ = run_cli(capsys, GOLDEN_COMMANDS["blowup"])
    assert code == 0
    chopped = json.loads(out)["result"]["polytope"]
    first = tmp_path / "chopped.json"
    first.write_text(json.dumps(chopped))
    code, out, _ = run_cli(
        capsys,
        ["blowup", str(first), "--vertex", "1/4,0", "--eps", "1/16"],
    )
    assert code == 0
    again = json.loads(out)["result"]["polytope"]
    # the original facets pass through the full parse/serialize cycle intact
    assert again["facets"][: len(chopped["facets"])] == chopped["facets"]
    second = tmp_path / "twice.json"
    second.write_text(json.dumps(again))
    code, out, _ = run_cli(capsys, ["vertices", str(second)])
    assert code == 0
    assert json.loads(out)["result"]["is_delzant"] is True
    # an empty label would write a document the parser refuses
    code, out, err = run_cli(
        capsys,
        ["blowup", "simplex2.json", "--vertex", "0,0", "--eps", "1/4", "--label", ""],
    )
    assert code == 1
    assert out == ""
    assert "non-empty" in err


def test_rational_arguments_tolerate_spaces(capsys, in_data_dir):
    # documents take no padding, but command-line lists may be typed "0, 0"
    argv = ["blowup", "simplex2.json", "--vertex", "0, 0", "--eps", " 1/4", "--label", "E1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == (DATA / "golden" / "blowup.json").read_text()
    argv = GOLDEN_COMMANDS["tower"][:-1] + ["1/4, 1/16"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == (DATA / "golden" / "tower.json").read_text()


def test_identical_invocations_are_deterministic(capsys, in_data_dir):
    _, first, _ = run_cli(capsys, GOLDEN_COMMANDS["moments"])
    _, second, _ = run_cli(capsys, GOLDEN_COMMANDS["moments"])
    assert first == second


def test_stdin_input(capsys, monkeypatch, in_data_dir):
    raw = (DATA / "simplex2.json").read_bytes()
    monkeypatch.setattr(
        "sys.stdin", type("S", (), {"buffer": io.BytesIO(raw)})()
    )
    code, out, _ = run_cli(capsys, ["vertices", "-"])
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["path"] == "-"
    assert len(doc["result"]["vertices"]) == 3


def test_exit_three_on_violated_obstruction(capsys, in_data_dir):
    code, out, _ = run_cli(
        capsys, ["check-obstruction", "lopsided.json", "--facet", "hyp"]
    )
    assert code == 3
    assert json.loads(out)["result"]["satisfied"] is False


def test_exit_three_on_failed_hypotheses(capsys, in_data_dir):
    code, out, _ = run_cli(capsys, ["check-hypotheses", "config-unbalanced.json"])
    assert code == 3
    doc = json.loads(out)
    assert doc["result"]["balance"]["satisfied"] is False
    assert doc["result"]["balance"]["residual"] == ["0", "1", "0"]


def test_exit_one_on_a_tower_over_the_vertex_budget(capsys, in_data_dir, monkeypatch):
    from cuspcheck import blowup

    monkeypatch.setattr(blowup, "_MAX_TOWER_VERTICES", 9)
    argv = ["tower", "simplex2.json", "--facet", "hyp", "--rounds", "3", "--eps", "1/4,1/16,1/64"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: round 3 would make 10 vertices, over the limit of 9\n"
    assert run_cli(capsys, argv[:5] + ["2", "--eps", "1/4,1/16"])[0] == 0


def test_exit_one_on_missing_file(capsys):
    code, out, err = run_cli(capsys, ["vertices", "no-such-file.json"])
    assert code == 1
    assert out == ""
    assert "cannot read" in err


def test_exit_one_on_invalid_json(tmp_path, capsys):
    # Text that does not parse, and bytes that are not UTF-8 text at all.
    bad = tmp_path / "bad.json"
    for raw in (b"{not json", b'{"dim": "\xff"}'):
        bad.write_bytes(raw)
        code, _, err = run_cli(capsys, ["vertices", str(bad)])
        assert code == 1
        assert "invalid JSON" in err


def test_exit_one_on_schema_violation_with_pointers(tmp_path, capsys):
    doc = {"dim": 2, "facets": [{"normal": [1, 0]}], "extra": 1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["vertices", str(bad)])
    assert code == 1
    lines = err.splitlines()
    assert any(line.startswith("error at /extra: ") for line in lines)
    assert any(line.startswith("error at /facets/0") for line in lines)


def test_exit_one_on_semantic_errors(tmp_path, capsys, in_data_dir):
    # primitive normal check happens after schema validation
    doc = {"dim": 2, "facets": [
        {"normal": [2, 2], "offset": 0},
        {"normal": [1, 0], "offset": 0},
        {"normal": [0, 1], "offset": 0},
        {"normal": [-1, -1], "offset": -1},
    ]}
    bad = tmp_path / "nonprim.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["vertices", str(bad)])
    assert code == 1
    assert "not primitive" in err

    doc["facets"][0] = {"normal": [1, 1], "offset": "1/0"}
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["vertices", str(bad)])
    assert code == 1
    assert "invalid rational" in err

    code, _, err = run_cli(
        capsys, ["check-obstruction", "simplex2.json", "--facet", "nope"]
    )
    assert code == 1

    # Only ASCII digits make an index; an Arabic-Indic digit is a label.
    code, _, err = run_cli(
        capsys, ["check-obstruction", "simplex2.json", "--facet", "\u0661"]
    )
    assert code == 1
    assert "no facet labelled '\u0661'" in err

    code, _, err = run_cli(
        capsys,
        ["blowup", "simplex2.json", "--vertex", "0,0", "--eps", "2"],
    )
    assert code == 1

    code, _, err = run_cli(
        capsys,
        ["indicial-roots", "--pairs", "trivial.json", "--window", "1,0"],
    )
    assert code == 1


def test_exit_one_on_facet_tight_on_a_non_simple_edge(tmp_path, capsys):
    # The unit cube and (1, 1, 0) >= 0, tight only on the edge x = y = 0.
    facets = [
        {"normal": [s * int(j == i) for j in range(3)], "offset": (s - 1) // 2}
        for i in range(3)
        for s in (1, -1)
    ]
    facets.append({"normal": [1, 1, 0], "offset": 0})
    bad = tmp_path / "edge.json"
    bad.write_text(json.dumps({"dim": 3, "facets": facets}))
    code, _, err = run_cli(capsys, ["vertices", str(bad)])
    assert code == 1
    assert "facet 6 does not support an (n-1)-dimensional face" in err


def test_empty_document_refused_in_bounded_time():
    # 14 facets in dimension 4 with no common point.  Phase 1 of the
    # vertex walk decides emptiness, so the refusal may not be exponential.
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "cuspcheck.cli", "vertices", "empty4d.json"],
        cwd=DATA,
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 1
    assert "error at /: no point satisfies all facet inequalities" in done.stderr



def test_exit_one_on_a_walk_over_its_budget(tmp_path, capsys, monkeypatch):
    # The unit 3-cube needs 78 walk steps; under a budget of 77 the
    # document is refused as input, at the root.
    facets = [
        {"normal": [s * int(j == i) for j in range(3)], "offset": (s - 1) // 2}
        for i in range(3)
        for s in (1, -1)
    ]
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"dim": 3, "facets": facets}))
    monkeypatch.setattr(polytope, "_MAX_WALK_STEPS", 77)
    code, out, err = run_cli(capsys, ["vertices", str(cube)])
    assert code == 1
    assert out == ""
    assert "error at /: the vertex walk exceeds its limit of 77 steps" in err


def test_exit_one_on_a_fan_over_its_budget(tmp_path, capsys):
    # The product of four hexagons is a 24-facet document whose facet fans
    # hold 967,680 simplices, a check of about 30 s and 450 MB.  Its
    # vertices are listed, and a check is refused once the fans pass the
    # budget, well within a second.
    doc = tmp_path / "hexagon4.json"
    doc.write_text(json.dumps(product_document(*[hexagon()] * 4)))
    code, out, err = run_cli(capsys, ["vertices", str(doc)])
    assert code == 0
    assert len(json.loads(out)["result"]["vertices"]) == 6**4
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["check-obstruction", str(doc), "--facet", "0"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert out == ""
    limit = moments._MAX_FAN_SIMPLICES
    assert err == f"error: the fan triangulation exceeds its limit of {limit} simplices\n"
    assert elapsed < 1


def test_exit_one_on_a_dimension_over_the_limit(tmp_path, capsys):
    # Refused once the dimension is read, before any vertex is sought.
    doc = tmp_path / "simplex80.json"
    doc.write_text(json.dumps(unit_simplex_document(80)))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["check-obstruction", str(doc), "--facet", "hyp"])
        best = min(best, time.perf_counter() - start)
    assert code == 1
    assert out == ""
    assert err == "error at /: dimension 80 exceeds the limit of 8\n"
    assert best < 0.05


def test_check_hypotheses_exits_one_on_a_dimension_over_the_limit(tmp_path, capsys):
    # A configuration longer than the polytopes' dimension limit is an input
    # error; one at the limit is checked.
    for d, expected in ((9, 1), (8, 0)):
        doc = tmp_path / f"config{d}.json"
        doc.write_text(json.dumps(spanning_configuration_document(d)))
        code, out, err = run_cli(capsys, ["check-hypotheses", str(doc)])
        assert code == expected
        if code:
            assert out == ""
            assert err == "error at /: dimension 9 exceeds the limit of 8\n"
        else:
            assert json.loads(out)["result"]["satisfied"] is True


def test_constant_tower_parameter_is_not_copied_per_round():
    # One --eps serves every round without a list of --rounds entries, so
    # a huge round count fails at round 2, where eps = 1/4 is too deep.
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    argv = ["tower", "simplex2.json", "--facet", "hyp", "--rounds", str(10**15), "--eps", "1/4"]
    done = subprocess.run(
        [sys.executable, "-m", "cuspcheck.cli", *argv],
        cwd=DATA,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: round 2 chop at ")
    assert "Traceback" not in done.stderr


def test_closed_stdout_exits_one_without_a_traceback():
    # As with `| head -1`: the reader closes the pipe after the first line.
    # Nine tower rounds print about 180 kB, more than a pipe holds, so the
    # child is still writing when the pipe closes.
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    eps = ",".join(f"1/{4**r}" for r in range(1, 10))
    argv = ["tower", "simplex2.json", "--facet", "hyp", "--rounds", "9", "--eps", eps]
    child = subprocess.Popen(
        [sys.executable, "-m", "cuspcheck.cli", *argv],
        cwd=DATA,
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    stderr = child.stderr.read().decode()
    assert child.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
    assert stderr == ""


_FREEZE_CHILD = """
import atexit, gc, sys

atexit.register(lambda: print(f"frozen {gc.get_freeze_count()}", file=sys.stderr))
import cuspcheck.cli

cuspcheck.cli.main()
"""


def test_main_freezes_the_heap_before_it_exits(capsys, in_data_dir):
    # main() freezes what the run made before sys.exit, so the collections
    # of interpreter finalization skip it; atexit hooks still run after the
    # freeze, and a run that ends in an error exits the same way.
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = [
        (GOLDEN_COMMANDS["vertices"], 0),
        (["check-hypotheses", "config-unbalanced.json"], 3),
        (["vertices", "empty4d.json"], 1),
    ]
    for argv, expected in runs:
        done = subprocess.run(
            [sys.executable, "-c", _FREEZE_CHILD, *argv],
            cwd=DATA,
            env=env,
            capture_output=True,
            timeout=60,
        )
        stderr = done.stderr.decode()
        assert done.returncode == expected, stderr
        last = stderr.splitlines()[-1].split()
        assert last[0] == "frozen" and int(last[1]) > 0, stderr
        if expected == 0:
            assert done.stdout == (DATA / "golden" / "vertices.json").read_bytes()
    # run() is the library's entry point and freezes nothing.
    before = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, GOLDEN_COMMANDS["vertices"])
    assert code == 0
    assert gc.get_freeze_count() == before


def test_exit_one_on_a_chop_in_dimension_one(tmp_path, capsys):
    segment = {"dim": 1, "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": -1}]}
    doc = tmp_path / "segment.json"
    doc.write_text(json.dumps(segment))
    code, out, err = run_cli(capsys, ["blowup", str(doc), "--vertex", "0", "--eps", "1/4"])
    assert code == 1
    assert out == ""
    assert err == "error: chops need a polytope of dimension >= 2\n"

def test_exit_one_on_usage_errors(capsys, in_data_dir):
    with pytest.raises(SystemExit) as exc:
        cli.run(["vertices", "--bogus", "simplex2.json"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run([])
    assert exc.value.code == 1
    capsys.readouterr()


def test_exit_two_on_internal_failure(capsys, monkeypatch, in_data_dir):
    def boom(args):
        raise AssertionError("synthetic invariant break")

    monkeypatch.setitem(cli._COMMANDS, "moments", boom)
    code, out, err = run_cli(capsys, ["moments", "simplex2.json"])
    assert code == 2
    assert "internal invariant failure" in err


def test_exit_two_on_failed_tower_invariant(capsys, monkeypatch, in_data_dir):
    # A chopped polytope's claimed vertex set is checked for completeness
    # by the open-edge test in cuspcheck.polytope.
    real = polytope.DelzantPolytope._open_edge

    def fails_after_a_chop(poly, ends):
        if len(poly.facets) > 3:
            return (97, 98)
        return real(poly, ends)

    monkeypatch.setattr(polytope.DelzantPolytope, "_open_edge", fails_after_a_chop)
    code, out, err = run_cli(capsys, GOLDEN_COMMANDS["tower"])
    assert code == 2
    assert out == ""
    assert "internal invariant failure" in err
    assert "the edge on facets [97, 98] has 1 claimed endpoints, expected 2" in err


def test_chops_without_asserts_match_golden():
    # python -O strips assert statements; no result may depend on them.
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for name in sorted(GOLDEN_COMMANDS):
        done = subprocess.run(
            [sys.executable, "-O", "-m", "cuspcheck.cli", *GOLDEN_COMMANDS[name]],
            cwd=DATA,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == (DATA / "golden" / f"{name}.json").read_text()


def test_package_has_no_assert_statements():
    # Invariants raise InvariantViolation, which python -O cannot strip.
    package = Path(cuspcheck.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Floating point is allowed only where it is the product: the indicial
# roots and weights (indicial.py, and the --window bounds parsed for it)
# and the --float rendering of exact results.
_FLOAT_MODULES = {"indicial.py"}
_FLOAT_FUNCTIONS = {("cli.py", "_render"), ("cli.py", "_cmd_indicial_roots")}


def test_package_has_no_float_outside_the_float_paths():
    # A float literal or float(...) call in an exact path would silently
    # round; every rational stays a Fraction or an int.
    package = Path(cuspcheck.__file__).resolve().parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name not in _FLOAT_MODULES]
    assert len(sources) > 5
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in _FLOAT_FUNCTIONS
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            is_literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            is_call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            if (is_literal or is_call) and id(node) not in exempt:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_float_block_added_not_replacing(capsys, in_data_dir):
    code, out, _ = run_cli(capsys, ["moments", "simplex2.json", "--float", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["volume"] == "1/2"
    assert doc["result_float"]["volume"] == "0.5"
    assert doc["result"]["boundary"]["total_measure"] == "3"


def test_float_digits_validated(capsys, in_data_dir):
    with pytest.raises(SystemExit) as exc:
        cli.run(["moments", "simplex2.json", "--float", "0"])
    assert exc.value.code == 1
    capsys.readouterr()


def _simplex_doc(dim, offset):
    # {x : x_i <= 0, sum x_i >= offset}: the corner simplex of size -offset.
    facets = [
        {"normal": [-int(j == i) for j in range(dim)], "offset": 0} for i in range(dim)
    ]
    facets.append({"normal": [1] * dim, "offset": offset})
    return {"dim": dim, "facets": facets}


def test_float_rendering_beyond_float_range_is_infinite(tmp_path, capsys):
    # The exact volume has 800 digits, beyond a float but printable.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_simplex_doc(2, -(10**400))))
    code, out, err = run_cli(capsys, ["moments", str(path), "--float", "6"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["result"]["volume"] == str(10**800 // 2)
    assert doc["result_float"]["volume"] == "inf"
    assert doc["result_float"]["first_moments"] == ["-inf", "-inf"]


def test_unprintable_exact_value_is_an_input_error(tmp_path, capsys):
    # Past Python's default limit for int-str conversion, 4300 digits: on
    # output, the volume of the 4-simplex of size 10**1500, about 6000
    # digits; on input, an offset literal of 4400 digits.
    huge = tmp_path / "huge4d.json"
    huge.write_text(json.dumps(_simplex_doc(4, -(10**1500))))
    literal = tmp_path / "literal.json"
    literal.write_text(
        json.dumps(_simplex_doc(2, -1)).replace('"offset": -1}', f'"offset": -1{"0" * 4399}}}')
    )
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        runs = [run_cli(capsys, ["moments", str(huge)]), run_cli(capsys, ["vertices", str(literal)])]
    finally:
        sys.set_int_max_str_digits(old)
    for code, out, err in runs:
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "4300" in err, err
        assert "PYTHONINTMAXSTRDIGITS" in err and "sys.set_int_max_str_digits" not in err


def test_rational_string_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    # The same 4400-digit offset as a "p/q" string: parse_rational meets
    # the limit, and the error sits at the offset's pointer.
    path = tmp_path / "string.json"
    path.write_text(json.dumps(_simplex_doc(2, "-1" + "0" * 4399)))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, ["vertices", str(path)])
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (1, "")
    assert err == (
        "error at /facets/2/offset: an integer has over 4300 digits; "
        "set PYTHONINTMAXSTRDIGITS to raise the limit\n"
    )


def test_pretty_output_no_ansi_when_disabled(capsys, monkeypatch, in_data_dir):
    monkeypatch.setenv("CUSPCHECK_COLOR", "0")
    code, out, _ = run_cli(capsys, ["vertices", "simplex2.json", "--pretty"])
    assert code == 0
    assert "\x1b" not in out
    assert "subcommand: \"vertices\"" in out
    assert "is_delzant: true" in out


def test_pretty_output_not_json(capsys, in_data_dir):
    _, out, _ = run_cli(capsys, ["moments", "simplex2.json", "--pretty"])
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "volume: \"1/2\"" in out


def test_diagnostics_on_varying_tower_schedule(capsys, in_data_dir):
    code, out, _ = run_cli(capsys, GOLDEN_COMMANDS["tower"])
    assert code == 0
    doc = json.loads(out)
    assert any("vary" in d for d in doc["diagnostics"])
    code, out, _ = run_cli(
        capsys,
        ["tower", "simplex2.json", "--facet", "hyp", "--rounds", "1", "--eps", "1/4"],
    )
    assert json.loads(out)["diagnostics"] == []


def test_diagnostics_on_multi_exclusion(capsys, in_data_dir):
    code, out, _ = run_cli(
        capsys,
        ["extremal-affine", "simplex2.json", "--exclude", "x", "--exclude", "y"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["diagnostics"]) == 1


def test_rationals_serialized_as_strings_everywhere(capsys, in_data_dir):
    _, out, _ = run_cli(capsys, GOLDEN_COMMANDS["tower"])
    doc = json.loads(out)
    # offsets and parameters surface as strings, never floats
    for facet in doc["result"]["polytope"]["facets"]:
        assert isinstance(facet["offset"], str)
    for record in doc["result"]["history"]:
        assert isinstance(record["parameter"], str)
        assert isinstance(record["bound"], str)


def test_indicial_certificate_fields(capsys, in_data_dir):
    _, out, _ = run_cli(capsys, GOLDEN_COMMANDS["indicial-roots"])
    doc = json.loads(out)
    cert = doc["result"]["certificate"]
    assert cert["certified"] is True
    assert abs(cert["distance"] - 0.3) < 1e-12
    assert cert["nearest"]["delta"]["re"] == 0.0
    assert doc["result"]["roots"] == []
    assert doc["result"]["window"] == [0.0, 1.0]


def test_indicial_all_roots_without_window(capsys, in_data_dir):
    code, out, _ = run_cli(capsys, ["indicial-roots", "--pairs", "trivial.json"])
    assert code == 0
    roots = json.loads(out)["result"]["roots"]
    assert [round(r["delta"]["re"], 6) for r in roots] == [
        -0.618034, 0.0, 1.0, 1.618034
    ]


def test_tower_eps_schedule_length_mismatch(capsys, in_data_dir):
    code, _, err = run_cli(
        capsys,
        ["tower", "simplex2.json", "--facet", "hyp", "--rounds", "3",
         "--eps", "1/4,1/16"],
    )
    assert code == 1
    assert "one per round" in err


_NO_JSONSCHEMA_CHILD = """
import io, json, sys
from contextlib import redirect_stdout

import cuspcheck.cli

if "jsonschema" in sys.modules:
    sys.exit("import cuspcheck.cli loaded jsonschema")
sys.modules["jsonschema"] = None  # any later import of it now fails
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with redirect_stdout(out):
        code = cuspcheck.cli.run(argv)
    with open(f"golden/{name}.json") as handle:
        if code != 0 or out.getvalue() != handle.read():
            sys.exit(f"{name}: exit {code}, or stdout differs from the golden file")
"""


def test_runs_without_jsonschema():
    # The package walks its shipped schemas itself; validation needs no
    # third-party library.
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _NO_JSONSCHEMA_CHILD, json.dumps(GOLDEN_COMMANDS)],
        cwd=DATA,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


_STARTUP_GUARD_CHILD = """
import io, json, sys
from contextlib import redirect_stdout

REFUSED = ("dataclasses", "inspect")
tried = []


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name in REFUSED:
            tried.append(name)
            raise ImportError(f"{name} is refused on the start-up path")
        return None


if any(name in sys.modules for name in REFUSED):
    sys.exit("the interpreter loaded a refused module before cuspcheck")
sys.meta_path.insert(0, Refuse())
import cuspcheck.cli

for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with redirect_stdout(out):
        code = cuspcheck.cli.run(argv)
    with open(f"golden/{name}.json") as handle:
        if code != 0 or out.getvalue() != handle.read():
            sys.exit(f"{name}: exit {code}, or stdout differs from the golden file")
if tried:
    sys.exit(f"cuspcheck tried to import {tried}")
"""


def test_runs_without_dataclasses_or_inspect():
    # Each run is a fresh interpreter, so start-up imports are paid on every
    # call; dataclasses and inspect cost more than the golden commands
    # compute.  -S keeps site-packages hooks from loading either first.
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP_GUARD_CHILD, json.dumps(GOLDEN_COMMANDS)],
        cwd=DATA,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


_DIGEST_CHILD = """
import sys
import cuspcheck.cli

if "_hashlib" in sys.modules:
    sys.exit("importing cuspcheck.cli loaded _hashlib")
import hashlib

for path in sys.argv[1:]:
    with open(path, "rb") as handle:
        raw = handle.read()
    for data in (raw, raw[:1], b"", raw * 1000):
        if cuspcheck.cli.sha256(data).hexdigest() != hashlib.sha256(data).hexdigest():
            sys.exit(f"the digest of {path} differs from hashlib's")
"""


def test_input_digest_loads_no_openssl():
    # hashlib loads _hashlib, and with it OpenSSL, on every run; the CLI
    # digests its input with the builtin _sha2 or _sha256 instead, and must
    # print the same "sha256:..." digests as hashlib would.
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    inputs = sorted(str(p) for p in DATA.glob("*.json"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _DIGEST_CHILD, *inputs],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _other_cpythons() -> list[str]:
    """Each CPython >= 3.10 on PATH, named python3.N, other than the
    version running the tests, that can start: a name on PATH may be a
    launcher shim with no interpreter behind it."""
    probe = "import platform, sys; print(platform.python_implementation(), sys.version_info[1])"
    found = []
    for minor in range(10, 30):
        path = shutil.which(f"python3.{minor}")
        if path is None or minor == sys.version_info.minor:
            continue
        try:
            done = subprocess.run([path, "-c", probe], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0 and done.stdout.split() == ["CPython", str(minor)]:
            found.append(path)
    return found


def test_golden_output_on_other_interpreters():
    # The golden files are byte for byte what every supported CPython
    # prints, not only the one running the tests: on 3.12 and later the
    # input digest comes from _sha2, on 3.10 and 3.11 from _sha256.
    interpreters = _other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 on PATH")
    src = str(Path(cuspcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for python in interpreters:
        for name, argv in sorted(GOLDEN_COMMANDS.items()):
            done = subprocess.run(
                [python, "-m", "cuspcheck.cli", *argv],
                cwd=DATA,
                env=env,
                capture_output=True,
                timeout=120,
            )
            expected = (DATA / "golden" / f"{name}.json").read_bytes()
            assert (done.returncode, done.stdout) == (0, expected), (python, name, done.stderr)
