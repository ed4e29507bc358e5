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


@pytest.mark.parametrize(
    "n, partition",
    [("3", "3,0"), ("3", "4,-1"), ("0", "0"), ("4", "3,2")],
    ids=["3,0", "4,-1", "0", "3,2 under n=4"],
)
def test_search_refuses_a_part_below_one(capsys, n, partition):
    # and a partition that does not sum to n
    assert main(["search", "--n", n, "--partition", partition, "--d-min", "9", "--d-max", "9"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bad search spec" in err


@pytest.mark.parametrize(
    "args, fmt",
    [
        (["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9"], "text"),
        (["check", "--param", "d=9;a=0,0,0;b=1,2,6"], "tsv"),
        (["tables", "--which", "special"], "tsv"),
        (["verify-monodromy", "--param", "d=9;a=0,0,0;b=1,2,6"], "tsv"),
        (["verify-ode", "--param", "d=9;a=0,0,0;b=1,2,6"], "tsv"),
        (["verify-jacobi", "--param", "d=9;a=0,0,0;b=1,2,6", "--ell", "19"], "tsv"),
    ],
    ids=lambda x: x[0] if isinstance(x, list) else x,
)
def test_format_a_command_does_not_print_is_refused(capsys, args, fmt):
    # search prints tsv or json, every other command json or text
    assert main(args + ["--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice" in err


def test_search_checkpoint_mismatch(tmp_path, capsys):
    ck = str(tmp_path / "ck.jsonl")
    args = ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9"]
    assert main(args + ["--checkpoint", ck]) == 0
    capsys.readouterr()
    assert main(args + ["--checkpoint", ck, "--strict-criteria"]) == 2
    assert "bad checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_search_checkpoint_that_cannot_be_opened(tmp_path, capsys, where):
    # a directory fails when the checkpoint is read, a file in a missing
    # directory when it is opened for the new records
    ck = tmp_path if where == "a directory" else tmp_path / "missing" / "ck.jsonl"
    args = ["search", "--n", "3", "--partition", "3", "--d-max", "9", "--checkpoint", str(ck)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("bad checkpoint: ") and str(ck) in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "results",
    [
        None,
        5,
        [{"d": 9, "beta": [1, 2, 6], "c": [0, 0, 0]}],
        # rows are checked against validate and against the record's key
        [{"d": 11, "alpha": [5], "beta": [7], "c": [1, 2, 3]}],
        [{"d": 9, "alpha": [0, 0, 0], "beta": [0, 2, 7], "c": [3, 7, 8]}],
        [{"d": 9, "alpha": [0, 0, 0], "beta": [2, 1, 6], "c": [3, 7, 8]}],
        [{"d": 9, "alpha": [0, 0, 0], "beta": [1, 2, 6], "c": None}],
        [{"d": 9, "alpha": [0, 0, 0], "beta": [1.0, 2, 6], "c": [3, 7, 8]}],
    ],
    ids=[
        "no results",
        "results not a list",
        "a row without alpha",
        "a row of another chunk",
        "an alpha beta collision",
        "an unsorted beta",
        "no c",
        "a float beta",
    ],
)
def test_search_checkpoint_record_of_the_wrong_shape(tmp_path, capsys, results):
    ck = tmp_path / "ck.jsonl"
    rec = {"key": "9:0,0,0", "spec": {"published": True, "limit": None}}
    if results is not None:
        rec["results"] = results
    ck.write_text(json.dumps(rec) + "\n")
    args = ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9", "--checkpoint", str(ck)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("bad checkpoint: ") and "line 1" in err
    # the refused record is left as it was
    assert ck.read_text() == json.dumps(rec) + "\n"


def test_search_checkpoint_cut_at_a_limit_is_refused(tmp_path, capsys):
    # older versions stopped a chunk at --limit and recorded the limit, so
    # such a record may lack rows
    ck = tmp_path / "ck.jsonl"
    args = ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9", "--checkpoint", str(ck)]
    assert main(args) == 0
    capsys.readouterr()
    ck.write_text(ck.read_text().replace('"limit": null', '"limit": 1'))
    assert main(args + ["--limit", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("bad checkpoint: ")


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
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["hodge_match"] is True
    assert "1" in out["embeddings"]


def test_verify_jacobi_defaults_to_the_least_prime(capsys):
    from hgsearch.jacobi import least_prime_above
    from hgsearch.tables import SPECIAL_ROWS, row_param

    for row in SPECIAL_ROWS:
        p = row_param(row)
        args = ["verify-jacobi", "--param", p.literal()]
        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0, p.literal()
        assert main(args + ["--ell", str(least_prime_above(p.d))]) == rc, p.literal()
        assert capsys.readouterr().out == out, p.literal()


@pytest.mark.parametrize(
    "param, extra",
    [
        ("d=9;a=0,0,0;b=1,2,6", ["--ell", "20"]),  # l != 1 mod d
        ("d=9;a=0,0,0;b=1,2,6", ["--ell", "28"]),  # composite l = 1 mod d
        ("d=9;a=0,0,0;b=1,2,6", ["--ell", "1"]),  # 1 mod d, not prime
        ("d=9;a=0,0,0;b=1,2,6", ["--ell", "-17"]),  # 1 mod d, negative
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


@pytest.mark.parametrize("jobs", ["0", "-2", "65"])
def test_search_and_tables_refuse_a_bad_jobs(capsys, jobs):
    from hgsearch.params import MAX_WORKERS

    assert MAX_WORKERS == 64
    args = ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9", "--jobs", jobs]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bad search spec" in err and "workers" in err
    for which in ("possible-d", "special"):
        assert main(["tables", "--which", which, "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bad tables run" in err and "workers" in err, which


@pytest.mark.parametrize("param, ell", [("d=84;a=0,0;b=1,41", 337), ("d=120;a=0,0;b=1,59", 241)])
def test_verify_jacobi_large_d(capsys, param, ell):
    # valuations reach d/2 here, past any fixed precision below it
    assert main(["verify-jacobi", "--param", param, "--ell", str(ell)]) == 0
    assert json.loads(capsys.readouterr().out)["hodge_match"] is True


@pytest.mark.parametrize("cmd", ["verify-monodromy", "verify-ode", "verify-jacobi"])
def test_verify_d_above_the_cap(monkeypatch, capsys, cmd):
    from hgsearch import monodromy
    from hgsearch.params import MAX_D

    def refuse(*args, **kwargs):
        raise AssertionError("arithmetic on a parameter above the cap")

    # the package exports a function named jacobi, so fetch the module itself
    jacobi = importlib.import_module("hgsearch.jacobi")
    monkeypatch.setattr(monodromy, "verify_levelt", refuse)
    monkeypatch.setattr(monodromy, "verify_annihilation", refuse)
    monkeypatch.setattr(jacobi, "hodge_newton_report", refuse)
    d = MAX_D + 1
    param = f"d={d};a=0,0;b=1,{(-1 - d * (d - 1) // 2) % d}"
    extra = ["--ell", str(jacobi.least_prime_above(d))] if cmd == "verify-jacobi" else []
    assert main([cmd, "--param", param, *extra]) == 2
    err = capsys.readouterr().err
    assert "bad parameter" in err and str(MAX_D) in err


def test_search_negative_limit(capsys):
    args = ["search", "--n", "4", "--partition", "2,2", "--d-min", "5", "--d-max", "12"]
    assert main(args + ["--limit", "-1"]) == 2
    assert "bad search spec" in capsys.readouterr().err
    assert main(args + ["--limit", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["n\td\talpha\tbeta\tc"]


def test_check_allow_bm_discrepancy(capsys):
    # passes R and D but fails a BM bullet, as a documented special row does
    args = ["check", "--param", "d=9;a=0,0,0,0;b=1,2,7,8"]
    assert main(args) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["R"] is True and out["D"]["pass"] is True and out["BM"]["pass"] is False
    assert main(args + ["--allow-bm-discrepancy"]) == 0


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


def test_checkpoint_with_dedup_by_scaling_is_refused(tmp_path, capsys):
    # checkpoints of the old per-chunk dedup hold only canonical forms, so
    # they must never be mixed into a run
    ck = tmp_path / "ck.jsonl"
    old = {"published": False, "dedup_by_scaling": True, "limit": None}
    ck.write_text(json.dumps({"key": "9:0,0,0", "spec": old, "results": []}) + "\n")
    args = ["search", "--n", "3", "--partition", "3", "--d-min", "9", "--d-max", "9"]
    assert main(args + ["--strict-criteria", "--dedup", "--checkpoint", str(ck)]) == 2
    assert "bad checkpoint" in capsys.readouterr().err
