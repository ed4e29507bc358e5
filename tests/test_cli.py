import importlib
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


def test_verify_ode_order_above_the_cap(capsys):
    from hgsearch.monodromy import MAX_ORDER

    args = ["verify-ode", "--param", "d=9;a=0,0,0;b=1,2,6", "--order", str(MAX_ORDER + 1)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "bad ode check" in err and str(MAX_ORDER) in err


def test_check_d_above_the_cap(capsys):
    from hgsearch.params import MAX_D

    d = MAX_D + 1
    # a valid n=2 parameter: -(1 + x) = C(d,2) mod d
    param = f"d={d};a=0,0;b=1,{(-1 - d * (d - 1) // 2) % d}"
    assert main(["check", "--param", param]) == 2
    err = capsys.readouterr().err
    assert "bad check" in err and str(MAX_D) in err


@pytest.mark.parametrize("which", ["n", "d_max"])
def test_search_above_the_caps(capsys, which):
    from hgsearch.params import MAX_D, MAX_N

    n, d_max = (MAX_N + 1, 20) if which == "n" else (3, MAX_D + 1)
    args = ["search", "--n", str(n), "--partition", str(n), "--d-max", str(d_max)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "bad search spec" in err and str(MAX_N if which == "n" else MAX_D) in err


def test_verify_jacobi_prec_above_the_cap(capsys):
    from hgsearch.jacobi import MAX_PREC

    args = ["verify-jacobi", "--param", "d=9;a=0,0,0;b=1,2,6", "--ell", "19"]
    assert main([*args, "--prec", str(MAX_PREC + 1)]) == 2
    err = capsys.readouterr().err
    assert "bad jacobi check" in err and str(MAX_PREC) in err


def test_verify_jacobi_computes_the_sums_once(monkeypatch, capsys):
    # the package exports a function named jacobi, so fetch the module itself
    jacobi = importlib.import_module("hgsearch.jacobi")
    calls = []
    real = jacobi.motive_valuations

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jacobi, "motive_valuations", counted)
    assert main(["verify-jacobi", "--param", "d=9;a=0,0,0;b=1,2,6", "--ell", "19"]) == 0
    assert len(calls) == 1
    # a parameter that is not regular is refused before any sum
    assert main(["verify-jacobi", "--param", "d=9;a=0,0,1;b=2,3,5", "--ell", "19"]) == 2
    assert len(calls) == 1


def test_verify_jacobi_ell_above_the_cap(capsys):
    from hgsearch.jacobi import MAX_ELL, least_prime_above

    ell = least_prime_above(9, MAX_ELL + 1)
    assert main(["verify-jacobi", "--param", "d=9;a=0,0,0;b=1,2,6", "--ell", str(ell)]) == 2
    err = capsys.readouterr().err
    assert "bad jacobi check" in err and str(MAX_ELL) in err


def test_checkpoint_from_before_the_filter_switches_went(tmp_path, capsys):
    from hgsearch.search import CheckpointError, SearchSpec, run_search

    ck = tmp_path / "ck.jsonl"
    old = {
        "published": True,
        "check_r": True,
        "check_bm": True,
        "check_d": True,
        "dedup_by_scaling": False,
        "limit": None,
    }
    ck.write_text(json.dumps({"key": "9:0,0,0", "spec": old, "results": []}) + "\n")
    with pytest.raises(CheckpointError):
        run_search(SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, checkpoint=str(ck)))
    args = ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9"]
    assert main(args + ["--checkpoint", str(ck)]) == 2
    assert "bad checkpoint" in capsys.readouterr().err
