import json

import pytest

from hgsearch.cli import main


def test_check_pass(capsys):
    rc = main(["check", "--param", "d=9;a=0,0,0;b=1,2,6"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["R"] is True
    assert out["D"]["pass"] is True


def test_check_bad_literal(capsys):
    rc = main(["check", "--param", "d=9;a=0,0,0;b=1,2,7"])
    assert rc == 2


def test_check_failing_param(capsys):
    # valid literal, fails BM (all alphas distinct)
    rc = main(["check", "--param", "d=7;a=0,1;b=2,6"])
    assert rc == 1


def test_usage_error():
    assert main(["check"]) == 2
    assert main(["no-such-command"]) == 2


def test_search_tsv(capsys):
    rc = main(
        ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "n\td\talpha\tbeta\tc"
    assert any("1,2,6" in line for line in out.splitlines())


def test_search_dedup_needs_strict(capsys):
    args = ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9", "--dedup"]
    assert main(args) == 2
    assert "bad search spec" in capsys.readouterr().err
    assert main(args + ["--strict-criteria"]) == 0


def test_search_checkpoint_mismatch(tmp_path, capsys):
    ck = str(tmp_path / "ck.jsonl")
    args = ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9"]
    assert main(args + ["--checkpoint", ck]) == 0
    capsys.readouterr()
    assert main(args + ["--checkpoint", ck, "--strict-criteria"]) == 2
    assert "bad checkpoint" in capsys.readouterr().err


def test_verify_monodromy(capsys):
    rc = main(["verify-monodromy", "--param", "d=9;a=0,0,0;b=1,2,6"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["monodromy_ok"] is True


def test_verify_ode(capsys):
    rc = main(
        ["verify-ode", "--param", "d=9;a=0,0,0;b=1,2,6", "--order", "8"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert all(out["annihilated"].values())


def test_verify_jacobi(capsys):
    rc = main(
        [
            "verify-jacobi",
            "--param",
            "d=9;a=0,0,0;b=1,2,6",
            "--ell",
            "19",
            "--prec",
            "20",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["hodge_match"] is True
    assert "1" in out["embeddings"]


@pytest.mark.parametrize(
    "param, extra",
    [
        ("d=9;a=0,0,0;b=1,2,6", ["--ell", "20"]),  # l != 1 mod d
        ("d=9;a=0,0,0;b=1,2,6", ["--ell", "28"]),  # composite l = 1 mod d
        ("d=9;a=0,0,0;b=1,2,6", ["--ell", "19", "--prec", "0"]),
        ("d=9;a=0,0,0;b=1,2,6", ["--ell", "19", "--prec", "1"]),  # cap reached
        ("d=9;a=0,0,1;b=2,3,5", ["--ell", "19"]),  # not regular
    ],
)
def test_verify_jacobi_bad_input(capsys, param, extra):
    assert main(["verify-jacobi", "--param", param, *extra]) == 2
    assert "bad jacobi check" in capsys.readouterr().err


def test_verify_ode_negative_order(capsys):
    assert main(["verify-ode", "--param", "d=9;a=0,0,0;b=1,2,6", "--order", "-3"]) == 2
    assert "bad ode check" in capsys.readouterr().err
