import contextlib
import gc
import io
import json
import sys
import weakref

import click
from click.testing import CliRunner

import pytest

from jetsym import normalize
from jetsym.core import JetsymError
from jetsym.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), standalone_mode=False)


def code(result):
    exc = result.exception
    if exc is not None and not isinstance(exc, SystemExit):
        if isinstance(exc, (click.UsageError, JetsymError)):
            return 2
        raise exc
    rv = result.return_value
    return rv if isinstance(rv, int) else 0


# --- check ----------------------------------------------------------------

def test_check_symmetry_exit_zero(runner):
    r = invoke(runner, "--pde", "heat", "check", "--q", "u_x")
    assert code(r) == 0
    assert "Symmetry" in r.output


def test_check_not_symmetry_exit_one(runner):
    r = invoke(runner, "--pde", "heat", "check", "--q", "x*u_t")
    assert code(r) == 1
    assert "NotSymmetry" in r.output


def test_check_json_output(runner):
    r = invoke(runner, "--json", "--pde", "heat", "check", "--q", "u_x",
               "--find")
    payload = json.loads(r.output)
    assert payload["verdict"] == "Symmetry"
    assert payload["inputs"]["pde"] == "heat"


def test_check_json_deterministic(runner):
    args = ("--json", "--pde", "kdv", "check", "--q", "t*u_x - 1", "--find")
    a = invoke(runner, *args).output
    b = invoke(runner, *args).output
    assert a == b


def test_check_phi_form(runner):
    r = invoke(runner, "--pde", "chiral", "check", "--phi", "inv(g)*g_x")
    assert code(r) == 0


GROUP_HEAT = ("--coords", "x,t", "--dependent", "g", "--matrix",
              "--invertible", "--matrices", "M", "--f", "g_t - g_xx",
              "--solved", "g_t = g_xx")


@pytest.mark.parametrize("phi", ["inv(g)*g_x", "inv(g)*g_t", "M"])
def test_phi_form_on_a_non_chiral_group_pde(runner, phi):
    # Q = g*Phi is g_x, g_t, g*M: translations and g -> g*(1 + a*M)
    r = invoke(runner, "--json", *GROUP_HEAT, "check", "--no-find",
               "--phi", phi)
    via_q = invoke(runner, "--json", *GROUP_HEAT, "check", "--no-find",
                   "--q", f"g*({phi})")
    assert code(r) == code(via_q) == 0
    got, want = json.loads(r.output), json.loads(via_q.output)
    assert got["verdict"] == want["verdict"] == "Symmetry"
    assert got["values"] == want["values"]


def test_certify_phi_on_a_non_chiral_group_pde(runner):
    r = invoke(runner, *GROUP_HEAT, "certify", "--phi", "inv(g)*g_x",
               "--lhat", "D_x*F")
    assert code(r) == 0
    r = invoke(runner, *GROUP_HEAT, "certify", "--phi", "M",
               "--lhat", "F*M")
    assert code(r) == 0


def test_phi_form_needs_an_invertible_matrix_dependent(runner):
    r = invoke(runner, "--pde", "heat", "check", "--phi", "u_x")
    assert code(r) == 2
    assert "invertible matrix" in str(r.exception)


def test_check_requires_exactly_one_of_q_phi(runner):
    r = invoke(runner, "--pde", "heat", "check")
    assert code(r) == 2


# --- certify --------------------------------------------------------------

def test_certify_good(runner):
    r = invoke(runner, "--pde", "heat", "certify", "--q", "u_x",
               "--lhat", "D_x*F")
    assert code(r) == 0


def test_certify_bad(runner):
    r = invoke(runner, "--pde", "heat", "certify", "--q", "u_x",
               "--lhat", "D_t*F")
    assert code(r) == 1


# --- bracket / structconsts ----------------------------------------------

def test_bracket(runner):
    r = invoke(runner, "--json", "--pde", "kdv", "bracket",
               "--q1", "u_t", "--q2", "t*u_x - 1")
    payload = json.loads(r.output)
    assert payload["values"]["bracket"] == "-u_x"


def test_structconsts_catalog_basis(runner):
    r = invoke(runner, "--json", "--pde", "kdv", "structconsts")
    assert code(r) == 0
    payload = json.loads(r.output)
    assert payload["inputs"]["basis"] == ["q1", "q2", "q3", "q4"]


# --- reduce / bt-apply ----------------------------------------------------

def test_reduce(runner):
    r = invoke(runner, "--pde", "heat", "reduce", "u_tt")
    assert code(r) == 0
    assert "u_xxxx" in r.output


def test_bt_apply_success(runner):
    r = invoke(runner, "--pde", "chiral", "bt-apply", "--phi", "M")
    assert code(r) == 0
    assert "comm(M, X)" in r.output or "comm(X, M)" in r.output


def test_bt_apply_insufficient_basis(runner):
    r = invoke(runner, "--pde", "chiral", "bt-apply", "--phi", "comm(X, M)")
    assert code(r) == 1


@pytest.mark.parametrize("phi, verdict", [
    ("g_x", "NotSymmetry"),
    ("x*inv(g)*g_t - t*inv(g)*g_x", "NoIntegral"),
    ("comm(X, M)", "NoIntegral"),
])
def test_bt_apply_tells_its_failures_apart(runner, phi, verdict):
    """A seed that fails the symmetry condition answers NotSymmetry with
    its remainder; one that passes it but has no integral in the basis
    answers NoIntegral; both exit 1."""
    text = invoke(runner, "--pde", "chiral", "bt-apply", "--phi", phi)
    assert code(text) == 1
    assert text.output.splitlines()[0] == f"verdict: {verdict}"
    r = invoke(runner, "--json", "--pde", "chiral", "bt-apply", "--phi", phi)
    assert code(r) == 1
    payload = json.loads(r.output)
    assert payload["verdict"] == verdict
    if verdict == "NotSymmetry":
        check = json.loads(invoke(runner, "--json", "--pde", "chiral", "check",
                                  "--no-find", "--phi", phi).output)
        assert payload["remainder"] == check["remainder"] != "0"
        assert "remainder: " in text.output
    else:
        assert payload["remainder"] is None


# --- parse / list ---------------------------------------------------------

def test_parse_roundtrip(runner):
    r = invoke(runner, "--pde", "heat", "parse", "u_tx + u_xt")
    assert code(r) == 0
    assert "2*u_xt" in r.output


@pytest.mark.parametrize("pde,text,name", [("heat", "inv(u)", "u"),
                                           ("chiral", "inv(g_x)", "g")])
def test_inverse_errors_name_the_dependent(monkeypatch, capsys, pde, text,
                                           name):
    status, out = run_cli(monkeypatch, capsys, "--pde", pde, "reduce", text)
    assert status == 2
    assert out.err.startswith("error: ")
    assert f" {name} " in out.err and "_(" not in out.err


def test_parse_error_exit_two(runner):
    r = invoke(runner, "--pde", "heat", "parse", "u_x + %")
    assert code(r) == 2


def test_list_catalog(runner):
    r = invoke(runner, "--json", "list")
    payload = json.loads(r.output)
    names = set(payload["values"])
    assert {"heat", "kdv", "chiral"} <= names


# --- custom problems ------------------------------------------------------

def test_custom_pde(runner):
    r = invoke(runner,
               "--coords", "x,t", "--dependent", "u",
               "--f", "u_t - u_x", "--solved", "u_t = u_x",
               "check", "--q", "u")
    assert code(r) == 0


@pytest.mark.parametrize("flags", [("--constants", "c_1"),
                                   ("--coords", "x,,t"),
                                   ("--dependent", "1u")])
def test_a_name_the_parser_cannot_read_exits_two(runner, flags):
    r = invoke(runner, *flags, "parse", "x")
    assert code(r) == 2
    assert "is not a letter followed by letters and digits" in str(r.exception)


def test_unknown_pde_exit_two(runner):
    r = invoke(runner, "--pde", "laplace", "check", "--q", "u_x")
    assert code(r) == 2


# --- batch ----------------------------------------------------------------

def test_batch(runner, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "# heat symmetries\n"
        "check --q u_x\n"
        "check --q x*u_t\n"
        "reduce u_tt\n")
    r = invoke(runner, "--pde", "heat", "batch", str(script))
    assert code(r) == 1  # worst verdict across lines
    assert "NotSymmetry" in r.output


def test_batch_line_errors_do_not_stop_the_batch(runner, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text('check --q "u_x +"\n'
                      "check --q u_x\n")
    r = invoke(runner, "--pde", "heat", "batch", str(script))
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert code(r) == 1
    assert "error: line 1:" in r.stderr
    assert "verdict: Symmetry" in r.stdout


def test_batch_too_deep_line_fails_on_its_own(runner, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text('parse "' + "(" * 3000 + "u" + ")" * 3000 + '"\n'
                      "check --q u_x\n")
    r = invoke(runner, "--pde", "heat", "batch", str(script))
    assert code(r) == 1
    assert "error: line 1: expression nested too deeply" in r.stderr
    assert "verdict: Symmetry" in r.stdout


CUSTOM = ["--coords", "x,t", "--constants", "k", "--f", "u_t - k*u_xx",
          "--solved", "u_t = k*u_xx"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_batch_forwards_every_global_flag(runner, tmp_path, json_flag):
    lines = [["check", "--no-find", "--q", "u_x"], ["reduce", "u_tt"],
             ["check", "--no-find", "--q", "u*u"]]
    script = tmp_path / "cmds.txt"
    script.write_text("".join(" ".join(f'"{a}"' for a in line) + "\n"
                              for line in lines))
    direct = [invoke(runner, *json_flag, *CUSTOM, *line) for line in lines]
    assert [code(r) for r in direct] == [0, 0, 1]
    r = invoke(runner, *json_flag, *CUSTOM, "batch", str(script))
    assert code(r) == 1
    assert r.stderr == ""
    assert r.stdout == "".join(d.stdout for d in direct)


def test_certify_folds_consecutive_signs(runner):
    args = ("--pde", "kdv", "certify", "--lhat", "2*D_x*F - -D_x*F", "--q")
    assert code(invoke(runner, *args, "3*u_x")) == 0
    assert code(invoke(runner, *args, "u_x")) == 1


def test_certify_reads_what_check_prints(runner):
    q = "u_x - 2*t*u_x + 2"
    r = invoke(runner, "--json", "--pde", "kdv", "check", "--q", q)
    cert = json.loads(r.output)["certificate"]
    assert "((-2)*t)" in cert
    assert code(invoke(runner, "--pde", "kdv", "certify", "--q", q,
                       "--lhat", cert)) == 0


def test_run_entrypoint_exit_codes():
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "-m", "jetsym.cli", "--pde", "heat", "check",
         "--q", "x*u_t"],
        capture_output=True, text=True)
    assert out.returncode == 1


UNRANKED = ["--coords", "x,t", "--f", "u_xt - u_xx - u_tt",
            "--solved", "u_xt = u_xx + u_tt"]


@pytest.mark.parametrize("command", [["check", "--no-find", "--q", "u_x"],
                                     ["reduce", "u_xxt"]],
                         ids=["check", "reduce"])
def test_unranked_solved_form_exits_two(monkeypatch, capsys, command):
    from jetsym.cli import run
    monkeypatch.setattr(sys, "argv", ["jetsym", *UNRANKED, *command])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        "error: no lex or orderly ranking puts the solved-form rhs jets "
        "u_xx, u_tt below the leading jet u_xt")


# --- term budget ----------------------------------------------------------

def binomial_product(factors: int) -> str:
    return "*".join(["(g + g_x)"] * factors)


def nested_commutators(depth: int) -> str:
    e = "g_x"
    for _ in range(depth):
        e = f"comm({e}, g + g_t + X + M)"
    return e


def run_cli(monkeypatch, capsys, *args):
    from jetsym.cli import run
    monkeypatch.setattr(sys, "argv", ["jetsym", *args])
    with pytest.raises(SystemExit) as exc:
        run()
    return exc.value.code, capsys.readouterr()


def test_binomial_product_exits_two_at_the_term_budget(monkeypatch, capsys):
    # n factors expand to 2**n words; the product forming more than
    # MAX_TERMS is refused before it is formed
    n = normalize.MAX_TERMS.bit_length()
    status, out = run_cli(monkeypatch, capsys, "--pde", "chiral", "parse",
                          binomial_product(n))
    assert status == 2
    assert out.out == ""
    assert out.err == (f"error: a product of {2 ** (n - 1)} by 2 terms "
                       f"exceeds the budget of {normalize.MAX_TERMS} terms\n")


@pytest.mark.parametrize("command", [["parse", nested_commutators(6)],
                                     ["reduce", nested_commutators(6)],
                                     ["check", "--phi", nested_commutators(6)],
                                     ["parse", binomial_product(13)]],
                         ids=["parse", "reduce", "check", "product"])
def test_blowups_exit_two_with_a_readable_message(monkeypatch, capsys,
                                                  command):
    # a small budget keeps this quick; the test above uses the real one
    monkeypatch.setattr(normalize, "MAX_TERMS", 4096)
    status, out = run_cli(monkeypatch, capsys, "--pde", "chiral", *command)
    assert status == 2
    assert out.err.startswith("error: a product of ")
    assert out.err.endswith(" terms exceeds the budget of 4096 terms\n")


def test_batch_blowup_line_fails_on_its_own(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(normalize, "MAX_TERMS", 4096)
    script = tmp_path / "cmds.txt"
    script.write_text(f'parse "{nested_commutators(6)}"\n'
                      "check --phi M\n")
    r = invoke(runner, "--pde", "chiral", "batch", str(script))
    assert code(r) == 1
    assert r.stderr.startswith("error: line 1: a product of ")
    assert "verdict: Symmetry" in r.stdout


@pytest.mark.parametrize("args", [
    ["--pde", "kdv", "check", "--q", "q1"],
    ["--json", "--pde", "heat", "reduce", "u_tt"],
    ["batch"],  # its error lines go to stderr
], ids=["text", "json", "batch"])
def test_in_process_cli_keeps_no_stream_alive(args, tmp_path):
    """Embedding the CLI with redirected stdout and stderr (as `batch` and
    perfbench do) must not keep the redirected buffers alive after they
    are dropped."""
    if args == ["batch"]:
        path = tmp_path / "lines"
        path.write_text('--pde heat reduce u_t\n--pde heat reduce "inv(u)"\n')
        args = ["batch", str(path)]
    out, err = io.StringIO(), io.StringIO()
    refs = weakref.ref(out), weakref.ref(err)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, standalone_mode=False, prog_name="jetsym")
        except click.exceptions.Exit:
            pass
    assert out.getvalue()
    assert bool(err.getvalue()) == (args[0] == "batch")
    del out, err
    gc.collect()
    assert [r() for r in refs] == [None, None]
