import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thetastrata
import thetastrata.cli as cli
import thetastrata.verify as verify
from thetastrata.classify import classify, vanishing_set
from thetastrata.errors import CapExceededError
from thetastrata.forms import evaluate_forms
from thetastrata.symplectic import random_symplectic
from thetastrata.theta import (
    block_diag,
    even_theta_constants,
    generic_siegel_point,
    point_to_json,
    random_siegel_point,
    siegel_action,
    validate_siegel,
)


@pytest.fixture
def tau4_file(tmp_path):
    path = tmp_path / "tau4.json"
    path.write_text(json.dumps(point_to_json(validate_siegel(1j * np.eye(4)))))
    return str(path)


def run_json(capsys, argv, expect_code=0):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == expect_code
    return json.loads(out)


def test_chars_even_genus_one(capsys):
    assert run_json(capsys, ["chars", "--genus", "1", "--parity", "even"]) == ["0|0", "0|1", "1|0"]


def test_chars_split_tuple(capsys):
    out = run_json(capsys, ["chars", "--genus", "4", "--split", "1"])
    assert len(out) == 28


def test_chars_bad_genus_is_domain_error(capsys):
    assert cli.run(["chars", "--genus", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_orbit_equiv(capsys):
    out = run_json(capsys, ["orbit", "equiv", "--tuple", "0|0,0|1", "--tuple", "0|1,1|0"])
    assert out["equivalent"] is True
    out = run_json(capsys, ["orbit", "equiv", "--tuple", "0|0,0|0", "--tuple", "0|0,0|1"])
    assert out["equivalent"] is False


def test_orbit_bfs(capsys):
    out = run_json(capsys, ["orbit", "bfs", "--tuple", "11|11"])
    assert out["orbit_size"] == 10


def test_orbit_bfs_genus_cap_exit_code(capsys):
    assert cli.run(["orbit", "bfs", "--tuple", "0000|0000"]) == 3
    assert "error" in capsys.readouterr().err


def test_eval_form(capsys, tau4_file):
    out = run_json(capsys, ["eval", "--form", "FT", "--tau", tau4_file])
    assert out["relative_magnitude"] < 1e-8
    assert out["form"] == "FT"


def test_eval_theta(capsys, tau4_file):
    out = run_json(capsys, ["eval", "theta", "--char", "0000|0000", "--tau", tau4_file])
    assert out["value"][0] == pytest.approx(1.0864348112133080**4, abs=1e-10)
    assert out["tail_bound"] < 1e-10


def test_eval_missing_char(capsys, tau4_file):
    assert cli.run(["eval", "theta", "--tau", tau4_file]) == 1


def test_eval_cap_exceeded(capsys, tmp_path):
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(point_to_json(validate_siegel([[1e-5j]]))))
    assert cli.run(["eval", "theta", "--char", "0|0", "--tau", str(path), "--target", "1e-250"]) == 3


def test_cap_raises_except_where_classify_reduces(capsys, tmp_path):
    # an image under a length-30 word: at tau itself the theta box radius
    # passes the cap, so every entry point that sums there raises, while
    # classify and vanishing_set, which sum at the Siegel-reduced
    # representative, give a label and its (empty) vanishing set
    point = siegel_action(random_symplectic(4, 30, 9006), generic_siegel_point(4, 200))
    path = tmp_path / "longword.json"
    path.write_text(json.dumps(point_to_json(point)))
    assert run_json(capsys, ["classify", "--tau", str(path)])["label"] == "X0"
    for argv in (["eval", "--form", "FT"], ["eval", "theta", "--char", "0000|0000"]):
        assert cli.run([*argv, "--tau", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: truncation radius cap 64 exceeded")
        assert captured.err.count("\n") == 1
    for evaluate in (evaluate_forms, lambda p: even_theta_constants(p, 1e-12)):
        with pytest.raises(CapExceededError):
            evaluate(point)
    assert vanishing_set(point).members == classify(point).vanishing == ()


def test_classify_block(capsys, tmp_path):
    rng = np.random.default_rng(5)
    blk = block_diag(random_siegel_point(2, rng), random_siegel_point(2, rng))
    path = tmp_path / "blk.json"
    path.write_text(json.dumps(point_to_json(blk)))
    out = run_json(capsys, ["classify", "--tau", str(path)])
    assert out["label"] == "X4"
    assert len(out["vanishing"]) == 36


@pytest.mark.parametrize("threshold", ["nan", "inf", "2", "0", "-1e-6", "1e-9"])
def test_classify_bad_threshold_is_domain_error(capsys, tau4_file, threshold):
    # 1e-9 lies below the resolution of the theta constants at i*1_4
    assert cli.run(["classify", "--tau", tau4_file, f"--threshold={threshold}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rel_threshold" in captured.err


def test_verify_orbit_oracle(capsys):
    out = run_json(capsys, ["verify", "orbit-oracle", "--genus", "1"])
    assert out["ok"] is True
    out = run_json(capsys, ["verify", "orbit-oracle", "--genus", "2"])
    assert out["ok"] is True
    assert out["triples"]["ordered_comparisons"] == 1000**2


def test_verify_orbit_oracle_can_fail(capsys, monkeypatch):
    # a profile that keeps only the tuple length merges orbits
    monkeypatch.setattr(verify, "orbit_profile", lambda t: len(t.entries))
    report = verify.orbit_oracle_check(1)
    assert report["ok"] is False
    assert report["pairs"]["agree"] is False and report["triples"]["agree"] is False
    out = run_json(capsys, ["verify", "orbit-oracle", "--genus", "1"], expect_code=2)
    assert out == report


def test_verify_transformation_deterministic(capsys):
    argv = ["verify", "transformation", "--genus", "1", "--seed", "9", "--count", "4"]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    assert first == second
    assert first["ok"] is True


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_transformation_rejects_empty_suite(capsys, count):
    # a suite of no checks would report "ok": true having checked nothing
    assert cli.run(["verify", "transformation", "--genus", "4", "--seed", "1", "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count must be at least 1" in captured.err


# the (word_length, char) draws of `verify transformation --genus 4 --count 10`
# for seeds 1-3, as the per-check suite made them: drawing every case before
# the one batched theta call keeps the draws, and so the work, the same
GENUS4_DRAWS = {
    1: [(3, "1011|1101"), (6, "1001|0110"), (5, "1101|0101"), (5, "0110|0110"), (1, "1010|1111"),
        (5, "0010|0101"), (1, "1010|1011"), (5, "1100|1100"), (5, "1011|1101"), (3, "1000|0011")],
    2: [(6, "0000|1110"), (2, "1001|1111"), (2, "1000|0001"), (3, "0100|0001"), (3, "1001|1101"),
        (4, "1111|1001"), (6, "1111|1111"), (3, "1001|1001"), (3, "0110|1000"), (2, "1011|0111")],
    3: [(5, "0010|0000"), (2, "0010|1000"), (4, "1110|0000"), (6, "1000|0000"), (4, "1110|1100"),
        (3, "0110|0000"), (4, "0000|0101"), (1, "1001|0110"), (6, "1000|0100"), (3, "0010|0001")],
}


@pytest.mark.parametrize("seed", sorted(GENUS4_DRAWS))
def test_verify_transformation_genus_four_draws_pinned(capsys, seed):
    out = run_json(capsys, ["verify", "transformation", "--genus", "4", "--seed", str(seed), "--count", "10"])
    assert [(c["word_length"], c["char"]) for c in out["checks"]] == GENUS4_DRAWS[seed]
    assert out["ok"] is True
    assert all(c["residual"] < out["tolerance"] for c in out["checks"])


def test_verify_schottky_small_genus(capsys):
    out = run_json(capsys, ["verify", "schottky-degeneration", "--genus", "1", "--seed", "3"])
    assert out["ok"] is True
    assert out["max_relative_magnitude"] < 1e-10


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "transformation_check", lambda *a, **k: {"ok": False})
    assert cli.run(["verify", "transformation", "--genus", "1", "--seed", "1", "--count", "1"]) == 2


def test_unknown_flag_usage_and_exit(capsys):
    assert cli.run(["chars", "--genus", "1", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_domain_error(capsys):
    assert cli.run(["classify", "--tau", "/nonexistent/tau.json"]) == 1


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "thetastrata" in capsys.readouterr().out


@pytest.mark.parametrize("genus", ["0", "-2"])
def test_verify_bad_genus_is_domain_error(capsys, genus):
    # a genus below 1 used to end in a ZeroDivisionError or numpy's
    # "negative dimensions" traceback from random_siegel_point
    assert cli.run(["verify", "schottky-degeneration", "--genus", genus, "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: genus must be >= 1")


@pytest.mark.parametrize("argv, message", [
    (["eval", "theta", "--char", "0000|0000", "--target", "0"], "target must be positive"),
    (["orbit", "equiv", "--tuple", "00|00"], "orbit equiv needs exactly two"),
    (["orbit", "bfs", "--tuple", "00|00", "--tuple", "00|01"], "orbit bfs needs exactly one"),
    (["eval"], "eval needs --form"),
    (["verify", "orbit-oracle", "--genus", "3"], "exhaustive oracle comparison is supported for genus 1 and 2"),
    (["verify", "schottky-degeneration", "--genus", "5", "--seed", "1"], "schottky degeneration check"),
    (["eval", "theta", "--char", "0000|0000", "--target", "nan"], "target must be positive"),
    (["eval", "--form", "FT", "--target", "nan"], "target must be positive"),
    (["eval", "theta", "--char", "0000|0000", "--target", "inf"], "target must be positive and finite"),
    (["eval", "--form", "FT", "--target", "inf"], "target must be positive and finite"),
])
def test_outside_input_is_domain_error(capsys, tau4_file, argv, message):
    if argv[0] == "eval":
        argv = argv + ["--tau", tau4_file]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("entry", [[math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0],
                                   [0.0, math.nan], [0.0, math.inf], [0.0, -math.inf]])
@pytest.mark.parametrize("command", [["classify"], ["eval", "--form", "FT"]])
def test_non_finite_point_is_domain_error(capsys, tmp_path, entry, command):
    # json writes and reads Infinity and NaN; i 1_4 with tau_33 replaced
    obj = point_to_json(validate_siegel(1j * np.eye(4)))
    obj["tau"][3][3] = entry
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(obj))
    assert cli.run(command + ["--tau", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix has a non-finite entry (inf or nan)\n"


@pytest.mark.parametrize("obj, message", [
    ({"genus": 2, "tau": 5}, "tau must be a 2x2 matrix"),
    ([1, 2], "a point must be a JSON object"),
    ({"genus": 1, "tau": [[1]]}, "tau must be a 1x1 matrix"),
    ({"genus": 1, "tau": [[[0]]]}, "tau must be a 1x1 matrix"),
    ({"genus": 1, "tau": [[["a", 1]]]}, "tau must be a 1x1 matrix"),
    ({"genus": 1, "tau": [[[0, None]]]}, "tau must be a 1x1 matrix"),
    ({"genus": 1, "tau": [[[0, 1, 2]]]}, "tau must be a 1x1 matrix"),
])
@pytest.mark.parametrize("command", [["classify"], ["eval", "--form", "FT"]])
def test_malformed_point_is_domain_error(capsys, tmp_path, obj, message, command):
    # each of these once ended in a TypeError or IndexError traceback, and
    # a third number in a pair was dropped without a word
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(obj))
    assert cli.run(command + ["--tau", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # run reuses one parser; a call made after others, failed and
    # help-printing ones included, prints what it prints alone in a
    # fresh process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    env = dict(os.environ, PYTHONPATH=str(Path(thetastrata.__file__).parents[1]))
    verify = ["verify", "transformation", "--genus", "2", "--seed", "5", "--count", "3"]
    calls = [verify, ["chars", "--genus", "2"], [*verify[:-1], "x"], ["--help"], verify]
    in_process = []
    for argv in calls:
        code = cli.run(argv)
        in_process.append((code, *capsys.readouterr()))
    assert [code for code, _, _ in in_process] == [0, 0, 1, 0, 0]
    assert "invalid int value: 'x'" in in_process[2][2]
    for argv, got in zip(calls, in_process):
        alone = subprocess.run([sys.executable, "-m", "thetastrata.cli", *argv], env=env,
                               capture_output=True, text=True, check=False)
        assert got == (alone.returncode, alone.stdout, alone.stderr)
