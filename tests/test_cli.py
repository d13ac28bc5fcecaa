import json

import pytest

from zerosum import GroupSpec, cli, parse_sequence
from zerosum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_constants_eta_3_6(capsys):
    code, out = run(capsys, "constants", "--group", "3,6", "--which", "eta")
    assert code == 0
    data = json.loads(out)
    assert data["computed"] == data["formula"] == 10


def test_constants_cyclic_7_s(capsys):
    code, out = run(capsys, "constants", "--group", "1,7", "--which", "s")
    assert code == 0
    assert json.loads(out)["computed"] == 13


def test_constants_all_2_4(capsys):
    code, out = run(capsys, "constants", "--group", "2,4")
    assert code == 0
    data = json.loads(out)
    assert {d["criterion"]: d["computed"] for d in data} == {
        "D": 5, "eta": 6, "s": 9, "s_exp_mult": 8,
    }


def test_constants_bad_group(capsys):
    assert run(capsys, "constants", "--group", "nope")[0] == 2


def test_nonpositive_group_factor_is_a_user_error_naming_the_text(capsys):
    for text in ("0", "3,0"):
        assert main(["constants", "--group", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot parse group '{text}'" in captured.err, text


def test_constants_budget_exhaustion(capsys):
    code, out = run(capsys, "constants", "--group", "3,6", "--which", "s", "--budget", "40")
    assert code == 3
    assert json.loads(out)["complete"] is False


def test_incomplete_report_carries_only_a_lower_bound(capsys):
    argv = ["constants", "--group", "3,6", "--which", "s", "--budget", "5"]
    code, out = run(capsys, *argv)
    assert code == 3
    data = json.loads(out)
    assert data["complete"] is False
    assert data["computed"] is None
    assert data["extremals"] == []
    assert 1 <= data["lower_bound"] <= data["formula"] == 15

    code, out = run(capsys, *argv, "--format", "text")
    assert code == 3
    assert out == f"s(C3xC6) >= {data['lower_bound']} (formula 15) [incomplete]\n"

    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 3
    assert out.splitlines()[1].startswith('"3,6",s,,15,False,')


def test_complete_report_has_no_lower_bound(capsys):
    code, out = run(capsys, "constants", "--group", "2,4", "--which", "s")
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["complete", "computed", "criterion", "extremals", "formula", "group", "ms", "nodes"]
    assert data["computed"] == 9 and len(data["extremals"]) == 1
    code, out = run(capsys, "constants", "--group", "2,4", "--which", "s", "--format", "text")
    assert out == "s(C2xC4) = 9 (formula 9) OK\n"


def test_extremal_c2c2_s(capsys):
    code, out = run(capsys, "extremal", "--group", "2,2", "--kind", "s")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 1
    assert records[0]["sequence"] == "(0,0) (0,1) (1,0) (1,1)"


def test_extremal_classify_all_matched(capsys):
    code, out = run(capsys, "extremal", "--group", "2,4", "--kind", "eta", "--classify")
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["matches"]


def test_extremal_up_to_aut(capsys):
    code, out = run(capsys, "extremal", "--group", "2,2", "--kind", "eta", "--up-to-aut")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_extremal_rank_check(capsys):
    assert run(capsys, "extremal", "--group", "5", "--kind", "eta")[0] == 2


def test_extremal_records_roundtrip(capsys):
    code, out = run(capsys, "extremal", "--group", "2,4", "--kind", "eta")
    group = GroupSpec(2, 4)
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert len(parse_sequence(group, rec["sequence"])) == rec["length"] == 5


def test_check_property_d(capsys):
    assert run(capsys, "check", "property-D", "--m", "3")[0] == 0


def test_check_invcyc(capsys):
    code, out = run(capsys, "check", "invcyc", "--n", "6")
    assert code == 0
    assert json.loads(out)["status"] == "verified"


def test_incomplete_check_prints_no_counterexamples(capsys):
    for argv, counts in ((["property-D", "--m", "5"], ["extremal_count"]),
                         (["invcyc", "--n", "6"], ["zero_sum_free_count", "length_n_free_count"])):
        code, out = run(capsys, "check", *argv, "--budget", "5")
        assert code == 3
        data = json.loads(out)
        assert data["status"] == "unverified" and data["counterexamples"] == []
        assert all(data["details"][key] is None for key in counts)
        code, out = run(capsys, "check", *argv, "--budget", "5", "--format", "text")
        assert code == 3
        assert out.endswith(": unverified\n")


def test_incomplete_extremal_prints_only_extremal_records(capsys):
    for budget, any_records in (("5", False), ("400", True)):
        for extra in ([], ["--classify"]):
            code, out = run(capsys, "extremal", "--group", "3,6", "--kind", "s",
                            "--budget", budget, *extra)
            assert code == 3
            records = [json.loads(line) for line in out.splitlines() if line]
            assert bool(records) == any_records
            assert all(rec["length"] == 14 for rec in records)
            if extra:
                assert all(rec["matches"] for rec in records)


def test_empty_output_writes_nothing(tmp_path, capsys):
    argv = ["extremal", "--group", "3,6", "--kind", "s", "--budget", "5"]
    assert run(capsys, *argv) == (3, "")
    path = tmp_path / "records.jsonl"
    assert run(capsys, *argv, "--output", str(path)) == (3, "")
    assert path.read_text() == ""


def test_check_noshort_m4_x_values(capsys):
    code, out = run(capsys, "check", "noshort", "--m", "4")
    assert code == 0
    assert json.loads(out)["details"]["x_values"] == [1]


def test_check_missing_param(capsys):
    for target, param in (("property-C", "m"), ("property-D", "m"), ("noshort", "m"),
                          ("two-m", "m"), ("invcyc", "n")):
        assert main(["check", target]) == 2
        assert capsys.readouterr().err == f"error: {target} needs --{param}\n"


def test_check_stray_param(capsys):
    # Each target takes one of --m and --n; the other is refused, not ignored.
    for target, param, stray in (("property-C", "m", "n"), ("property-D", "m", "n"),
                                 ("noshort", "m", "n"), ("two-m", "m", "n"),
                                 ("invcyc", "n", "m")):
        assert main(["check", target, f"--{param}", "3", f"--{stray}", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {target} takes no --{stray}\n"


def test_noshort_above_the_automorphism_cap_is_a_user_error(capsys):
    # C23+C23 has order 529 > 512: the basis table is refused before any work.
    assert main(["check", "noshort", "--m", "23"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "group too large for automorphism enumeration" in captured.err


def test_search_options_are_checked_for_every_command(capsys):
    # The CLI builds its SearchOptions before it runs a command, so the
    # commands that run no search reject a bad --workers or --budget too.
    for argv, message in (
        (["check", "noshort", "--m", "3", "--workers", "0"], "workers must be >= 1"),
        (["reproduce", "exp-1", "--m", "2", "--n", "3", "--budget", "-1"], "node budget must be >= 0"),
        (["classify", "--group", "2,2", "--seq", "(1,0)", "--workers", "0"], "workers must be >= 1"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv


def test_reproduce_exp_minus_1(capsys):
    code, out = run(capsys, "reproduce", "exp-1", "--m", "2", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["length"] == 12
    assert parse_sequence(GroupSpec(2, 6), data["sequence"])


def test_reproduce_rejects_small_n(capsys):
    assert run(capsys, "reproduce", "exp-1", "--m", "2", "--n", "2")[0] == 2


def test_classify_match(capsys):
    code, out = run(capsys, "classify", "--group", "2,4", "--seq", "(1,0) (0,1) (1,1)^3")
    assert code == 0
    data = json.loads(out)
    assert {"form": "eta_a", "e1": [1, 0], "e2": [0, 1], "x": 1, "s": 1} in data["matches"]


def test_classify_empty(capsys):
    code, out = run(capsys, "classify", "--group", "2,4", "--seq", "(1,0)^2 (0,1)^3")
    assert code == 1
    assert json.loads(out)["matches"] == []


def test_classify_wrong_length(capsys):
    assert run(capsys, "classify", "--group", "2,4", "--seq", "(1,0)")[0] == 2


def test_classify_parse_error(capsys):
    assert run(capsys, "classify", "--group", "2,4", "--seq", "(1;0)")[0] == 2


def test_text_and_csv_formats(capsys):
    code, out = run(capsys, "constants", "--group", "2,2", "--format", "text")
    assert code == 0 and "OK" in out
    code, out = run(capsys, "constants", "--group", "2,2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("group,criterion,computed")
    code, out = run(capsys, "check", "invcyc", "--n", "3", "--format", "text")
    assert code == 0 and "verified" in out


# The exact csv and text output and the exit code of each command: csv rows
# end in \r\n, and an extremal listing without --classify counts 0 matches.
PINNED = {
    "extremal --classify": (
        ["extremal", "--group", "2,4", "--kind", "eta", "--classify"], 0,
        'group,kind,sequence,length,match_count\r\n'
        '"2,4",eta,"(0,3) (1,1)^3 (1,2)",5,4\r\n"2,4",eta,"(0,3) (1,0) (1,3)^3",5,4\r\n'
        '"2,4",eta,"(0,3)^3 (1,1) (1,2)",5,4\r\n"2,4",eta,"(0,3)^3 (1,0) (1,3)",5,4\r\n'
        '"2,4",eta,"(0,1) (1,2) (1,3)^3",5,4\r\n"2,4",eta,"(0,1) (1,0) (1,1)^3",5,4\r\n'
        '"2,4",eta,"(0,1)^3 (1,2) (1,3)",5,4\r\n"2,4",eta,"(0,1)^3 (1,0) (1,1)",5,4\r\n',
        '(0,3) (1,1)^3 (1,2)  [4 match(es)]\n(0,3) (1,0) (1,3)^3  [4 match(es)]\n'
        '(0,3)^3 (1,1) (1,2)  [4 match(es)]\n(0,3)^3 (1,0) (1,3)  [4 match(es)]\n'
        '(0,1) (1,2) (1,3)^3  [4 match(es)]\n(0,1) (1,0) (1,1)^3  [4 match(es)]\n'
        '(0,1)^3 (1,2) (1,3)  [4 match(es)]\n(0,1)^3 (1,0) (1,1)  [4 match(es)]\n',
    ),
    "extremal --up-to-aut": (
        ["extremal", "--group", "2,4", "--kind", "s", "--up-to-aut"], 0,
        'group,kind,sequence,length,match_count\r\n'
        '"2,4",s,"(0,2) (0,3) (1,2)^3 (1,3)^3",8,0\r\n"2,4",s,"(0,2)^3 (0,3) (1,2) (1,3)^3",8,0\r\n'
        '"2,4",s,"(0,0) (0,3) (1,1)^3 (1,2)^3",8,0\r\n"2,4",s,"(0,0)^3 (0,3) (1,1)^3 (1,2)",8,0\r\n',
        '(0,2) (0,3) (1,2)^3 (1,3)^3\n(0,2)^3 (0,3) (1,2) (1,3)^3\n'
        '(0,0) (0,3) (1,1)^3 (1,2)^3\n(0,0)^3 (0,3) (1,1)^3 (1,2)\n',
    ),
    "classify match": (
        ["classify", "--group", "2,4", "--seq", "(1,0) (0,1) (1,1)^3"], 0,
        'form,e1,e2,x,s,t,g\r\neta_a,"[1, 0]","[0, 1]",1,1,,\r\neta_a,"[1, 0]","[1, 1]",1,2,,\r\n'
        'eta_b,"[0, 1]","[1, 1]",,,,\r\neta_b,"[1, 0]","[1, 1]",,,,\r\n',
        '{"e1": [1, 0], "e2": [0, 1], "form": "eta_a", "s": 1, "x": 1}\n'
        '{"e1": [1, 0], "e2": [1, 1], "form": "eta_a", "s": 2, "x": 1}\n'
        '{"e1": [0, 1], "e2": [1, 1], "form": "eta_b"}\n'
        '{"e1": [1, 0], "e2": [1, 1], "form": "eta_b"}\n',
    ),
    "classify no match": (
        ["classify", "--group", "2,4", "--seq", "(1,0)^2 (0,1)^3"], 1,
        'form,e1,e2,x,s,t,g\r\n',
        'no match\n',
    ),
    "reproduce exp-1": (
        ["reproduce", "exp-1", "--m", "2", "--n", "3"], 0,
        'exp_minus_1,expected_length,group,lacks_exact_exp,length,max_multiplicity,ok,sequence\r\n'
        '5,12,"2,6",True,12,3,True,"(0,0)^3 (0,1)^3 (1,0)^3 (1,1)^3"\r\n',
        '(0,0)^3 (0,1)^3 (1,0)^3 (1,1)^3\n'
        'length 12 (expected 12), lacks length-exp zero-sum: True, max multiplicity 3 < 5\n',
    ),
    "check verified": (
        ["check", "property-C", "--m", "3"], 0,
        'check,params,status,counterexamples\r\nproperty-C,"{""m"": 3}",verified,0\r\n',
        "property-C {'m': 3}: verified\n",
    ),
    "check cut": (
        ["check", "property-D", "--m", "5", "--budget", "400"], 3,
        'check,params,status,counterexamples\r\nproperty-D,"{""m"": 5}",unverified,0\r\n',
        "property-D {'m': 5}: unverified\n",
    ),
}


@pytest.mark.parametrize("argv,code,csv_out,text_out", PINNED.values(), ids=PINNED.keys())
def test_pinned_csv_and_text(capsys, argv, code, csv_out, text_out):
    assert run(capsys, *argv, "--format", "csv") == (code, csv_out)
    assert run(capsys, *argv, "--format", "text") == (code, text_out)


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run(capsys, "constants", "--group", "2,2", "--which", "D", "--output", str(path))
    assert code == 0
    assert json.loads(path.read_text())["computed"] == 3


def test_output_under_a_missing_directory_is_a_user_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main(["constants", "--group", "2,2", "--which", "D", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {path}")
    assert captured.out == "" and not path.exists()


def test_output_to_a_directory_is_a_user_error(tmp_path, capsys):
    code = main(["constants", "--group", "2,2", "--which", "D", "--output", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {tmp_path}")
    assert captured.out == ""


def test_output_is_checked_before_the_search(tmp_path, capsys, monkeypatch):
    def search(*args):
        raise AssertionError("the search ran before --output was checked")

    monkeypatch.setattr(cli, "check_property", search)
    path = tmp_path / "missing" / "x.json"
    assert main(["check", "property-D", "--m", "5", "--output", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}")
    # The check does not truncate: a command that then fails leaves the file as it was.
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    assert main(["check", "property-D", "--output", str(kept)]) == 2
    assert kept.read_text() == "old\n"
    # A file that only the check made is removed again when the command fails.
    for argv in (["check", "property-D"], ["extremal", "--group", "5", "--kind", "s"]):
        new = tmp_path / "new.json"
        assert main([*argv, "--output", str(new)]) == 2
        assert not new.exists(), argv


def test_internal_error_exits_with_4_and_removes_only_a_new_output(tmp_path, capsys, monkeypatch):
    # Any exception but ValueError is a bug or a failed worker, not a
    # counterexample (exit 1) and not a user error (exit 2).
    def search(*args):
        raise RuntimeError("a search worker exited without its results")

    monkeypatch.setattr(cli, "check_property", search)
    new = tmp_path / "new.json"
    assert main(["check", "property-D", "--m", "5", "--output", str(new)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: a search worker exited without its results\n"
    assert captured.out == "" and not new.exists()
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    assert main(["check", "property-D", "--m", "5", "--output", str(kept)]) == 4
    assert kept.read_text() == "old\n"
    assert main(["check", "property-D", "--m", "5"]) == 4


def test_workers_flag(capsys):
    code, out = run(capsys, "constants", "--group", "2,4", "--which", "s", "--workers", "2")
    assert code == 0
    assert json.loads(out)["computed"] == 9


def test_incomplete_check_does_not_depend_on_workers(capsys):
    argv = ["check", "property-D", "--m", "5", "--budget", "400"]
    serial = run(capsys, *argv)
    assert run(capsys, *argv, "--workers", "2") == serial
    code, out = serial
    assert code == 3
    data = json.loads(out)
    assert (data["status"], data["nodes"]) == ("unverified", 400)


def test_invalid_workers(capsys):
    assert run(capsys, "constants", "--group", "2,2", "--workers", "0")[0] == 2
