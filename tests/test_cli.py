"""End-to-end CLI behavior: document shape, formats, determinism, exit codes."""

import json

import pytest

import hodgemoments.cli as cli
from hodgemoments import cyclo, hodge, weyl
from hodgemoments.chains import DegenerateReduction, build_chain
from hodgemoments.cli import main
from hodgemoments.counting import weight_character
from hodgemoments.families import Family
from hodgemoments.hodge import HodgeDiamond
from conftest import run_module
from test_counting import strided_slice_step


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


def test_airy_after_kl_prints_the_fresh_bytes(capsys):
    # airy (5, 11) reads the image walk of kl (4, 11) from the same process;
    # its bytes are those of a fresh interpreter
    code, _, _ = run_main(capsys, "hodge", "--family", "kl", "--n", "4", "--k", "11",
                          "--route", "both")
    assert code == 0
    airy = ("hodge", "--family", "airy", "--n", "5", "--k", "11")
    code, after_kl, err = run_main(capsys, *airy)
    assert (code, err) == (0, "")
    fresh = run_module(*airy)
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert after_kl == fresh.stdout


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


def test_v21_basis_route_computes_no_closed_table(capsys, monkeypatch):
    called = []

    def hodge_v21(route):
        called.append(route)
        return real(route)

    real = cli.hodge_v21
    monkeypatch.setattr(cli, "hodge_v21", hodge_v21)
    code, out, _ = run_main(capsys, "hodge", "--family", "v21", "--route", "basis")
    assert (code, called) == (0, ["basis"])
    assert json.loads(out)["payload"]["kind"] == "pure"


def test_thousand_slot_chain_runs_both_routes(capsys):
    # a chain on 1001 slots enumerates its labels without one recursion per slot
    code, out, err = run_main(capsys, "hodge", "--family", "kl", "--n", "1000", "--k", "1",
                              "--route", "both")
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["equal"] is True


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


def test_composite_closed_table_runs_no_enumeration(capsys):
    # m = 35 is composite, and 23 is not in 5N + 7N, so (34, 23) passes the gate;
    # vanishing_tuple_count(35, 23) would raise EnumerationTooLarge, so the closed
    # table must read its tower line off the gate, not off a vanishing count
    code, out, err = run_main(capsys, "hodge", "--family", "kl", "--n", "34", "--k", "23",
                              "--route", "closed")
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["weight"] == 34 * 23 + 1


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


@pytest.mark.parametrize("argv", [["dims", "--family", "kl"], ["counts", "--what", "d"],
                                  ["counts", "--what", "a"], ["counts", "--what", "b"]])
def test_composite_counts_with_no_vanishing_sum_enumerate_nothing(capsys, monkeypatch, argv):
    # m = 35 is composite, and 23 is not in 5N + 7N, so by Lam-Leung no 23 of the
    # 35th roots of unity sum to 0: the count is 0 without C(57, 34) exponent tuples
    def no_enumeration(m, index):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(cyclo, "tuple_vanishes", no_enumeration)
    code, out, err = run_main(capsys, *argv, "--n", "34", "--k", "23")
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["soln_infty" if argv[0] == "dims" else "count"] == 0


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


def test_broken_basis_route_exits_1_with_a_report(capsys, monkeypatch):
    def broken(n, k):
        raise RuntimeError("full basis still nonzero in degree 9, past the top degree 8")

    monkeypatch.setattr(hodge, "hodge_airy_from_basis", broken)
    code, out, err = run_main(capsys, "verify", "--n", "2", "--k", "5")
    assert (code, err) == (1, "")
    payload = json.loads(out)["payload"]
    assert payload["all_pass"] is False
    assert [c for c in payload["checks"] if not c["pass"]] == [
        {"detail": "full basis still nonzero in degree 9, past the top degree 8",
         "name": "route-airy", "pass": False}]


def test_failed_projector_check_exits_1(capsys, monkeypatch):
    # hodge --family v21 takes no input, so a projector that fails its
    # commutation check is an internal fault, not bad input
    tensor_columns = weyl._tensor_columns

    def bad_shift(basis, pos, moves):
        cols = tensor_columns(basis, pos, moves)
        if moves == {0: (1, 1), 1: (2, 1)}:
            j = next(j for j, col in enumerate(cols) if col)
            cols[j][next(iter(cols[j]))] += 1
        return cols

    monkeypatch.setattr(weyl, "_tensor_columns", bad_shift)
    code, out, err = run_main(capsys, "hodge", "--family", "v21")
    assert (code, out) == (1, "")
    assert err == "error: projector does not commute with the shift\n"


def test_non_integral_dimension_exits_1(capsys, monkeypatch):
    # (2, 4) is valid input; a vanishing count that leaves (C(6, 2) - d_k) / 3
    # fractional is an arithmetic fault
    monkeypatch.setattr(hodge, "vanishing_tuple_count", lambda m, k: 1)
    code, out, err = run_main(capsys, "dims", "--family", "kl", "--n", "2", "--k", "4")
    assert (code, out) == (1, "")
    assert err == "error: (15 - 1) not divisible by 3\n"


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


@pytest.mark.parametrize("what", ["q", "n"])
def test_request_echoes_d_zero(capsys, what):
    code, out, _ = run_main(capsys, "counts", "--what", what, "--n", "2", "--k", "3",
                            "--d", "0")
    assert code == 0
    assert json.loads(out)["request"] == {"what": what, "n": 2, "k": 3, "d": 0}


def test_counts_point_query_far_past_the_top(capsys):
    # past n*k + 1 every step is 0, and the count does not loop up to d
    code, out, _ = run_main(capsys, "counts", "--what", "n", "--n", "1", "--k", "1",
                            "--d", "1000000000000")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == 0


@pytest.mark.parametrize("n,k", [(3, 5), (2, 3)])
def test_counts_point_query_far_past_the_top_reads_the_period(capsys, n, k):
    # past n*k the steps repeat with period n+1 (at (2, 3) not all 0); the
    # reader folds d back into one period
    code, out, _ = run_main(capsys, "counts", "--what", "n", "--n", str(n), "--k", str(k),
                            "--d", "1000000000000")
    assert code == 0
    want = strided_slice_step(weight_character((k,), n + 1), n + 1, 10 ** 12)
    assert json.loads(out)["payload"]["value"] == want


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


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_basis_vectors_need_json(capsys, monkeypatch, fmt):
    # csv and md have no place for the vectors: refuse before building the chain
    def no_chain(*args):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(cli, "build_chain", no_chain)
    code, out, err = run_main(capsys, "basis", "--family", "kl", "--n", "2", "--k", "4",
                              "--vectors", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: --vectors")


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


# today's exact csv and md lines for every payload shape both renderers take:
# key/value rows (dims, counts d/a/b and point queries), the counts columns,
# basis cardinalities, verify checks, fractional Airy levels, --route both
RENDERED = [
    ("dims --family kl --n 2 --k 4 --format csv", [
       "key,value", "dim_h1,5", "dim_mid,2", "family,kl", "irregularity,5", "k,4", "n,2",
       "soln_infty,0", "soln_zero,3"]),
    ("dims --family kl --n 2 --k 4 --format md", [
       "| key | value |", "| - | - |", "| dim_h1 | 5 |", "| dim_mid | 2 |",
       "| family | kl |", "| irregularity | 5 |", "| k | 4 |", "| n | 2 |",
       "| soln_infty | 0 |", "| soln_zero | 3 |"]),
    ("counts --what q --n 1 --k 3 --format csv", [
       "d,coefficient", "0,1", "1,0", "2,0", "3,0", "4,-1"]),
    ("counts --what n --n 1 --k 3 --format md", [
       "| d | value |", "| - | - |", "| 0 | 1 |", "| 1 | 0 |", "| 2 | 1 |", "| 3 | 0 |",
       "| 4 | 0 |"]),
    ("counts --what d --n 5 --k 2 --format csv", [
       "key,value", "count,3", "k,2", "m,6", "n,5"]),
    ("counts --what a --n 5 --k 2 --format csv", [
       "key,value", "count,1", "k,2", "m,6", "n,5"]),
    ("counts --what b --n 5 --k 2 --format md", [
       "| key | value |", "| - | - |", "| count | 0 |", "| k | 2 |", "| m | 6 |",
       "| n | 5 |"]),
    ("counts --what q --n 2 --k 4 --d 2 --format csv", [
       "key,value", "d,2", "k,4", "n,2", "value,1"]),
    ("basis --family kl --n 2 --k 4 --mid --format csv", [
       "degree,count", "3,1", "6,1"]),
    ("basis --family kl --n 2 --k 4 --mid --format md", [
       "| degree | count |", "| - | - |", "| 3 | 1 |", "| 6 | 1 |"]),
    ("verify --n 2 --k 2 --format csv", [
       "n,k,check,pass", "2,2,counting-clauses,True", "2,2,counting-closed-n2,True",
       "2,2,step-series,True", "2,2,hidden-step-identity,True", "2,2,jordan-blocks,True",
       "2,2,shift-coker,True", "2,2,coker-matches-steps,True", "2,2,basis-totals-kl,True",
       "2,2,mid-degree-mirror,True", "2,2,route-kl,True", "2,2,basis-totals-tilde,True",
       "2,2,tilde-kernel-dims,True", "2,2,tilde-eigen-relation,True",
       "2,2,dims-consistent,True", "2,2,mixed-tilde,True"]),
    ("verify --sweep --max-n 1 --max-k 2 --format md", [
       "| n | k | check | pass |", "| - | - | - | - |",
       "| 1 | 1 | counting-clauses | True |", "| 1 | 1 | step-series | True |",
       "| 1 | 1 | hidden-step-identity | True |", "| 1 | 1 | jordan-blocks | True |",
       "| 1 | 1 | shift-coker | True |", "| 1 | 1 | coker-matches-steps | True |",
       "| 1 | 1 | basis-totals-kl | True |", "| 1 | 1 | mid-degree-mirror | True |",
       "| 1 | 1 | route-kl | True |", "| 1 | 1 | basis-totals-tilde | True |",
       "| 1 | 1 | tilde-kernel-dims | True |", "| 1 | 1 | tilde-eigen-relation | True |",
       "| 1 | 1 | dims-consistent | True |", "| 1 | 2 | step-series | True |",
       "| 1 | 2 | jordan-blocks | True |", "| 1 | 2 | shift-coker | True |",
       "| 1 | 2 | tilde-kernel-tail | True |", "| 1 | 2 | tilde-eigen-relation | True |"]),
    ("hodge --family airy --n 3 --k 2 --format md", [
       "## closed", "", "**airy** n=3 k=2 weight=3 (pure)", "", "| p | q | h |",
       "| - | - | - |", "| 5/4 | 7/4 | 1 |", "| 3/2 | 3/2 | 0 |", "| 7/4 | 5/4 | 1 |", "",
       "## basis", "", "**airy** n=3 k=2 weight=3 (pure)", "", "| p | q | h |",
       "| - | - | - |", "| 5/4 | 7/4 | 1 |", "| 3/2 | 3/2 | 0 |", "| 7/4 | 5/4 | 1 |", "",
       "routes equal: True"]),
    ("hodge --family kl --n 2 --k 4 --route both --format md", [
       "## closed", "", "**kl** n=2 k=4 weight=9 (pure)", "",
       "(0, 0, 0, 1, 0, 0, 1, 0, 0, 0)", "", "## basis", "",
       "**kl** n=2 k=4 weight=9 (pure)", "", "(0, 0, 0, 1, 0, 0, 1, 0, 0, 0)", "",
       "routes equal: True"]),
]


@pytest.mark.parametrize("request_line,lines", RENDERED)
def test_csv_and_md_render_every_payload(capsys, request_line, lines):
    code, out, _ = run_main(capsys, *request_line.split())
    assert code == 0
    assert out == "\n".join(lines) + "\n"


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
