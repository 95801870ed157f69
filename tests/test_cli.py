"""End-to-end CLI behavior: document shape, formats, determinism, exit codes."""

import json

import pytest

import hodgemoments.cli as cli
from hodgemoments import cyclo, hodge
from hodgemoments.chains import DegenerateReduction, build_chain
from hodgemoments.cli import main
from hodgemoments.families import Family
from hodgemoments.hodge import HodgeDiamond
from conftest import run_module


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hodge_both_routes_json(capsys):
    code, out, err = run_main(capsys, "hodge", "--family", "kl", "--n", "2", "--k", "4")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "hodge"
    assert doc["request"] == {"family": "kl", "n": 2, "k": 4}
    assert doc["payload"]["equal"] is True
    closed = doc["payload"]["closed"]
    assert closed["weight"] == 9
    assert sum(lev["h"] for lev in closed["levels"]) == 2


def test_output_is_byte_identical(capsys):
    argv = ("hodge", "--family", "kl", "--n", "2", "--k", "5", "--route", "both")
    _, first, _ = run_main(capsys, *argv)
    _, second, _ = run_main(capsys, *argv)
    assert first == second
    # canonical form: sorted keys survive a round-trip
    doc = json.loads(first)
    assert json.dumps(doc, sort_keys=True) + "\n" == first


def test_json_round_trip_every_command(capsys):
    for argv in (
        ("hodge", "--family", "airy", "--n", "3", "--k", "2"),
        ("dims", "--family", "kl-tilde", "--n", "2", "--k", "3"),
        ("counts", "--what", "q", "--n", "2", "--k", "4"),
        ("basis", "--family", "kl", "--n", "2", "--k", "4", "--mid"),
        ("verify", "--n", "2", "--k", "4"),
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == 0, (argv, err)
        doc = json.loads(out)
        assert doc == json.loads(json.dumps(doc))


def test_fractional_levels_serialize_as_strings(capsys):
    _, out, _ = run_main(capsys, "hodge", "--family", "airy", "--n", "3", "--k", "2",
                         "--route", "closed")
    doc = json.loads(out)
    levels = doc["payload"]["levels"]
    assert {lev["p"] for lev in levels} == {"5/4", "3/2", "7/4"}


def test_v21_defaults_and_forbids_nk(capsys):
    code, out, _ = run_main(capsys, "hodge", "--family", "v21")
    assert code == 0
    doc = json.loads(out)
    nz = [lev for lev in doc["payload"]["closed"]["levels"] if lev["h"]]
    assert [(lev["p"], lev["q"]) for lev in nz] == [(4, 5), (5, 4)]

    code, _, err = run_main(capsys, "hodge", "--family", "v21", "--n", "2", "--k", "4")
    assert code == 2
    assert "v21" in err


def test_tilde_rejects_basis_route(capsys):
    code, _, err = run_main(capsys, "hodge", "--family", "kl-tilde", "--n", "2",
                            "--k", "3", "--route", "basis")
    assert code == 2
    assert "closed route" in err


def test_tilde_needs_n2(capsys):
    code, _, err = run_main(capsys, "hodge", "--family", "kl-tilde", "--n", "3", "--k", "2")
    assert code == 2


def test_no_closed_table_reports_usage_error(capsys):
    # (5, 5): gcd(k, n+1) = 1, but five 6th roots of unity can sum to 0 (2 + 3)
    for n, k in [(3, 4), (5, 5)]:
        code, _, err = run_main(capsys, "hodge", "--family", "kl", "--n", str(n),
                                "--k", str(k), "--route", "closed")
        assert code == 2
        assert "closed" in err


def test_non_coprime_airy_dims_exit_2(capsys):
    code, _, err = run_main(capsys, "dims", "--family", "airy", "--n", "2", "--k", "4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [["dims", "--family", "kl"], ["counts", "--what", "a"]])
def test_composite_enumeration_over_budget_exits_2(capsys, monkeypatch, argv):
    # m = 12 is not a prime power: C(51, 11) exponent tuples, far over the budget
    def no_enumeration(m, index):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(cyclo, "tuple_vanishes", no_enumeration)
    code, out, err = run_main(capsys, *argv, "--n", "11", "--k", "40")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: m=12 is not a prime power")
    assert f"budget of {cyclo.ENUMERATION_BUDGET}" in err


def test_missing_nk_exit_2(capsys):
    code, _, err = run_main(capsys, "dims", "--family", "kl")
    assert code == 2


def test_route_mismatch_exits_1(capsys, monkeypatch):
    # force the closed table away from the basis answer to drive the contract
    wrong = HodgeDiamond(Family.KL_Z, 2, 4, 9, "pure",
                         {(p, 9 - p): 0 for p in range(10)})
    monkeypatch.setattr(cli, "hodge_kl_closed", lambda n, k: wrong)
    code, out, _ = run_main(capsys, "hodge", "--family", "kl", "--n", "2", "--k", "4")
    assert code == 1
    assert json.loads(out)["payload"]["equal"] is False


@pytest.mark.parametrize("family", ["kl", "kl-tilde"])
def test_basis_gate_runs_before_the_chain(capsys, monkeypatch, family):
    def no_chain(*args):
        raise AssertionError("the chain was built for an input the gate rejects")

    monkeypatch.setattr(cli, "build_chain", no_chain)
    code, out, err = run_main(capsys, "basis", "--family", family, "--n", "5", "--k", "18")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "no closed or basis table" in err


def test_airy_mid_is_rejected_before_the_chain(capsys, monkeypatch):
    def no_chain(*args):
        raise AssertionError("the chain was built for a --mid request on airy")

    monkeypatch.setattr(cli, "build_chain", no_chain)
    code, out, err = run_main(capsys, "basis", "--family", "airy", "--n", "5", "--k", "13",
                              "--mid")
    assert code == 2
    assert out == ""
    assert err == ("error: --mid does not apply to airy: its middle part is the full "
                   "cohomology; drop --mid\n")


def test_counts_d_on_a_prime_power_enumerates_nothing(capsys, monkeypatch):
    # C(52, 12) exponent tuples: the enumeration ran past 20 s here
    def no_enumeration(m, index):
        raise AssertionError("tuple_vanishes ran for a prime power")

    monkeypatch.setattr(cyclo, "tuple_vanishes", no_enumeration)
    code, out, _ = run_main(capsys, "counts", "--what", "d", "--n", "12", "--k", "40")
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 0


def test_failed_internal_check_is_one_line_exit_1():
    # d_k(6, 5) != 0, which the airy gate does not see: the support check fails
    proc = run_module("hodge", "--family", "airy", "--n", "6", "--k", "5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "raise max_degree" not in proc.stderr


def test_degenerate_reduction_exits_1(capsys, monkeypatch):
    def broken(n, k):
        raise DegenerateReduction("reduction failed to reconstruct")

    monkeypatch.setattr(cli, "hodge_kl_from_basis", broken)
    code, out, err = run_main(capsys, "hodge", "--family", "kl", "--n", "2", "--k", "4")
    assert code == 1
    assert out == ""
    assert err == "error: reduction failed to reconstruct\n"


def test_failed_sl2_certificate_in_verify_exits_1(capsys, monkeypatch):
    # a chain whose shift is 2N fails the sl2 certificate inside verify
    def doubled(family, n, k):
        chain = build_chain(family, n, k)
        chain.nmat = [{i: 2 * c for i, c in col.items()} for col in chain.nmat]
        return chain

    monkeypatch.setattr(hodge, "build_chain", doubled)
    code, out, err = run_main(capsys, "verify", "--n", "2", "--k", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, where):
    out_path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run_main(capsys, "dims", "--family", "kl", "--n", "2", "--k", "4",
                              "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1


def test_counts_point_query(capsys):
    code, out, _ = run_main(capsys, "counts", "--what", "n", "--n", "2", "--k", "4",
                            "--d", "3")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == 1


def test_counts_point_query_far_past_the_top(capsys):
    # past n*k + 1 every step is 0, and the count does not loop up to d
    code, out, _ = run_main(capsys, "counts", "--what", "n", "--n", "1", "--k", "1",
                            "--d", "1000000000000")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == 0


def test_counts_orbit_representatives(capsys):
    _, out, _ = run_main(capsys, "counts", "--what", "a", "--n", "2", "--k", "3")
    payload = json.loads(out)["payload"]
    assert payload["count"] == 1
    assert payload["orbit_representatives"] == [[1, 1, 1]]


def test_counts_d_flag_guard(capsys):
    code, _, err = run_main(capsys, "counts", "--what", "d", "--n", "2", "--k", "3",
                            "--d", "1")
    assert code == 2


def test_basis_vectors_blob(capsys):
    _, out, _ = run_main(capsys, "basis", "--family", "kl", "--n", "2", "--k", "4",
                         "--mid", "--vectors")
    payload = json.loads(out)["payload"]
    assert payload["kind"] == "mid"
    assert payload["total"] == 2
    for vecs in payload["vectors"].values():
        for terms in vecs:
            for term in terms:
                assert set(term) == {"coeff", "z", "v"}
                assert term["z"] >= 1


def test_csv_format(capsys):
    _, out, _ = run_main(capsys, "hodge", "--family", "kl", "--n", "2", "--k", "4",
                         "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "route,p,q,h"
    assert all(line.split(",")[0] in ("closed", "basis") for line in lines[1:])


def test_md_format_renders_tuple(capsys):
    _, out, _ = run_main(capsys, "hodge", "--family", "kl", "--n", "2", "--k", "4",
                         "--route", "closed", "--format", "md")
    assert "(0, 0, 0, 1, 0, 0, 1, 0, 0, 0)" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_main(capsys, "hodge", "--family", "kl", "--n", "2", "--k", "4",
                            "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["payload"]["equal"] is True


def test_verify_single_pair(capsys):
    code, out, _ = run_main(capsys, "verify", "--n", "2", "--k", "6")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["all_pass"] is True
    assert any(c["name"] == "route-kl" for c in payload["checks"])


def test_verify_sweep_excludes_nk(capsys):
    code, _, err = run_main(capsys, "verify", "--sweep", "--n", "2", "--k", "3")
    assert code == 2


@pytest.mark.parametrize("argv,flag", [
    (("--n", "-1", "--k", "2"), "--n"),
    (("--n", "2", "--k", "0"), "--k"),
    (("--sweep", "--max-n", "0"), "--max-n"),
    (("--sweep", "--max-n", "-2"), "--max-n"),
    (("--sweep", "--max-k", "0"), "--max-k"),
])
def test_verify_rejects_non_positive_sizes(capsys, argv, flag):
    code, out, err = run_main(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be positive\n"


def test_removed_max_degree_option_is_a_usage_error(capsys):
    for argv in (("basis", "--family", "v21"), ("hodge", "--family", "kl", "--n", "2",
                                                 "--k", "5")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--max-degree", "12"])
        assert exc.value.code == 2


def test_bad_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["hodge", "--family", "nope", "--n", "2", "--k", "3"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = run_module("dims", "--family", "kl", "--n", "2", "--k", "10")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["dim_h1"] == 22
    assert doc["payload"]["dim_mid"] == 16
