import json
import subprocess
import sys

import pytest

from polycount.cli import build_parser, main
from polycount.fields import build_field


def run_cli(*args):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_count_basic():
    code, out, _ = run_cli("count", "--p", "2", "--r", "1", "--m", "12", "--a", "0", "--s", "1")
    assert code == 0
    assert out.splitlines()[0] == "165"


def test_count_methods_agree():
    values = set()
    for method in ("auto", "brute", "general", "table", "closed"):
        code, out, _ = run_cli(
            "count", "--p", "2", "--r", "2", "--m", "3", "--a", "0", "--b", "1",
            "--method", method,
        )
        assert code == 0
        values.add(out.splitlines()[0])
    assert values == {"3"}


def test_count_json_provenance():
    code, out, _ = run_cli(
        "count", "--p", "5", "--m", "3", "--a", "2", "--s", "2", "--h", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    # (q^2 + S - (-1)^h rho(ma) - 1)/6 with S = -q rho(-a) = 5: (25+5+1-1)/6
    assert doc["count"] == 5
    assert doc["spec"]["field"]["generator_index"] == 2
    assert doc["spec"]["h"] == 1


def test_count_element_syntaxes():
    # a as plain integer, as coordinates, and as a generator power
    base = ["count", "--p", "5", "--m", "3", "--s", "2", "--h", "0"]
    vals = []
    for a in ("3", "g^3", "3,"):
        code, out, _ = run_cli(*base, "--a", a.rstrip(","))
        assert code == 0
        vals.append(out.splitlines()[0])
    # g = 2 mod 5, g^3 = 3
    assert vals[0] == vals[1]


def test_count_validation_error_exit_code():
    code, _, err = run_cli("count", "--p", "5", "--m", "3", "--s", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        "count --p 3 --m 3 --a 5,1",
        "count --p 3 --m 3 --a foo",
        "count --p 3 --m 3 --a g^x",
        "count --p 5 --r 2 --m 3 --a 99",
        "jacobi --p 15 --order 4 --t 1",
        "sum --kind jacobi --p 5 --t 2 --n 0",
        "sum --kind jacobi --p 5 --t 0 --n 2",
    ],
)
def test_invalid_input_exits_2_with_one_error_line(argv):
    # an uncaught exception would escape main and fail here with its traceback
    code, out, err = run_cli(*argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_cap_exit_code():
    code, _, err = run_cli(
        "count", "--p", "2", "--m", "16", "--a", "0", "--s", "1",
        "--method", "brute", "--oracle-cap", "100",
    )
    assert code == 3


def test_s_1_takes_no_discrete_log():
    # a log in F_{2^61} would build 1.5e9 baby steps, since 2^61 - 1 is prime
    code, out, _ = run_cli("count", "--p", "2", "--r", "61", "--m", "2", "--s", "1", "--a", "1")
    assert code == 0
    assert int(out.splitlines()[0]) == 2**60  # Carlitz: q/2 quadratics with trace 1 in characteristic 2
    assert build_field(2, 61)._baby_steps == {}


def test_a_discrete_log_past_the_cap_refuses_before_any_baby_step():
    argv = ["count", "--p", "2", "--r", "61", "--m", "2", "--s", str(2**61 - 1), "--a", "1", "--h", "5"]
    code, _, err = run_cli(*argv)
    assert code == 3
    assert "1518500250" in err  # isqrt(2^61 - 2) + 1 baby steps
    assert build_field(2, 61)._baby_steps == {}


def test_determinism():
    args = ("count", "--p", "2", "--r", "2", "--m", "5", "--a", "0", "--b", "1")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second


def test_list_output():
    code, out, _ = run_cli("list", "--p", "2", "--m", "3", "--a", "0", "--s", "1")
    assert code == 0
    assert out.strip() == "1\t1\t0\t1"
    code, out, _ = run_cli("list", "--p", "2", "--m", "2", "--a", "0", "--s", "1")
    assert code == 0
    assert out.strip() == ""


def test_table5_zero_diffs():
    code, out, _ = run_cli("table5")
    assert code == 0
    assert "# diffs=0" in out
    assert "DIFF" not in out


def test_table5_json():
    code, out, _ = run_cli("table5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["status"] == "ok" for row in rows)
    assert sum(1 for row in rows if row["q"] == 2) == 12


def test_catalog_output():
    code, out, _ = run_cli("catalog", "--r", "2", "--m", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("m\t")
    cells = {tuple(l.split("\t")[:3]) for l in lines[1:]}
    assert ("6", "0", "48") in cells
    assert ("6", "1,2", "56") in cells


def test_sum_monomial():
    code, out, _ = run_cli(
        "sum", "--kind", "monomial", "--p", "2", "--r", "2", "--t", "3", "--i", "0", "--n", "3"
    )
    assert code == 0
    assert out.strip().endswith("15")


def test_sum_monomial_reads_one_class_without_the_whole_histogram():
    # g = gcd(n, q - 1) = 65520 classes times p traces would be 4.3e9 cells
    code, out, err = run_cli(
        "sum", "--kind", "monomial", "--p", "65521", "--t", "1", "--n", "65520", "--format", "json"
    )
    assert code == 0, err
    coeffs = json.loads(out)["coefficients"]
    assert coeffs[1] == 65520 and sum(coeffs) == 65520  # x^(q-1) = 1 on F_q*


def test_sum_gauss_nonrational():
    code, out, _ = run_cli(
        "sum", "--kind", "gauss", "--p", "2", "--r", "3", "--t", "1", "--n", "7"
    )
    assert code == 0
    assert out.strip().endswith("non-rational")


def test_jacobi_subcommand():
    code, out, _ = run_cli("jacobi", "--p", "13", "--order", "4", "--t", "3")
    assert code == 0
    assert "-3" in out and "2" in out  # the (a4, b4) = (-3, 2) parameters


def test_verify_quick():
    code, out, _ = run_cli("verify")
    assert code == 0
    assert "failures=0" in out


def test_env_var_caps(monkeypatch):
    monkeypatch.setenv("POLYCOUNT_ORACLE_CAP", "100")
    code, _, err = run_cli(
        "count", "--p", "2", "--m", "16", "--a", "0", "--s", "1", "--method", "brute"
    )
    assert code == 3
    assert "cap" in err


def test_env_var_caps_are_read_on_every_call(monkeypatch):
    # the parser is built once per process; a cap variable set after that still counts
    argv = ("count", "--p", "2", "--m", "8", "--a", "0", "--s", "1", "--method", "brute")
    monkeypatch.delenv("POLYCOUNT_ORACLE_CAP", raising=False)
    code, out, _ = run_cli(*argv)
    assert code == 0 and out.splitlines()[0] == "14"
    monkeypatch.setenv("POLYCOUNT_ORACLE_CAP", "100")
    code, _, err = run_cli(*argv)
    assert code == 3
    assert "oracle cap 100" in err
    code, out, _ = run_cli(*argv, "--oracle-cap", "256")
    assert code == 0 and out.splitlines()[0] == "14"


@pytest.mark.parametrize(
    "var, argv",
    [
        ("POLYCOUNT_ORACLE_CAP", "count --p 3 --m 3 --method brute"),
        ("POLYCOUNT_ENUM_CAP", "count --p 3 --m 3"),
        ("POLYCOUNT_LISTING_CAP", "list --p 2 --m 3"),
    ],
)
def test_malformed_cap_variable_exits_2_with_one_error_line(monkeypatch, var, argv):
    monkeypatch.setenv(var, "abc")
    code, out, err = run_cli(*argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and var in err
    assert "Traceback" not in err


# subcommand -> (its smallest valid arguments, the cap flags it reads)
CAP_FLAGS = {
    "count": ("--p 2 --m 3", {"--enum-cap", "--oracle-cap"}),
    "list": ("--p 2 --m 3", {"--oracle-cap"}),
    "table5": ("", {"--oracle-cap"}),
    "catalog": ("--r 2 --m 3", set()),
    "verify": ("", {"--enum-cap"}),
    "sum": ("--kind jacobi --p 5 --t 2 --n 2", {"--enum-cap"}),
    "jacobi": ("--p 13 --order 4 --t 3", set()),
}


@pytest.mark.parametrize("command", sorted(CAP_FLAGS))
@pytest.mark.parametrize("flag", ["--enum-cap", "--oracle-cap"])
def test_each_subcommand_takes_only_the_caps_it_reads(command, flag):
    args, reads = CAP_FLAGS[command]
    argv = [command, *args.split(), flag, "7"]
    if flag in reads:
        assert getattr(build_parser().parse_args(argv), flag[2:].replace("-", "_")) == 7
    else:
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


def test_sum_jacobi():
    code, out, _ = run_cli("sum", "--kind", "jacobi", "--p", "5", "--t", "2", "--n", "2")
    assert code == 0
    assert out.strip().endswith("-1")


def test_count_brute_degree_13():
    code, out, _ = run_cli("count", "--p", "2", "--m", "13", "--a", "0", "--s", "1", "--method", "brute")
    assert code == 0
    assert out.splitlines()[0] == "315"


def test_jobs_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        run_cli("count", "--p", "2", "--m", "3", "--a", "0", "--s", "1", "--jobs", "2")
    assert exc.value.code == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "polycount.cli", "count", "--p", "2", "--m", "3", "--a", "0", "--s", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1"
