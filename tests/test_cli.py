import contextlib
import gc
import io
import json
import shlex
import sys
import weakref

import click
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import pytest

from jetsym import normalize
from jetsym.catalog import CATALOG_NAMES
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


@pytest.mark.parametrize("phi", ["M", "inv(g)*g_x", "g_x"])
def test_bt_apply_needs_a_chiral_pde(runner, phi):
    # the Backlund step is the chiral field's: on another PDE it answers
    # no seed, a symmetry (M, inv(g)*g_x) or not (g_x), and exits 2
    r = invoke(runner, *GROUP_HEAT, "bt-apply", "--phi", phi)
    assert code(r) == 2
    assert "needs the chiral equation" in str(r.exception)
    assert r.output == ""


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


@pytest.mark.parametrize("phi, verdict", [
    ("g_x", "NotSymmetry"),
    ("x*inv(g)*g_t - t*inv(g)*g_x", "NoIntegral"),
    ("M", "Integrated"),
])
def test_bt_apply_asks_check_symmetry_once(runner, monkeypatch, phi, verdict):
    """bt-apply integrates first, as an image certifies its seed: an
    integrated seed is never checked, and a failure is told apart on the
    one report of the seed's check."""
    from jetsym import backlund, cli, symmetry
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return symmetry.check_symmetry(*args, **kwargs)

    for module in (backlund, cli):
        monkeypatch.setattr(module, "check_symmetry", counted)
    r = invoke(runner, "--json", "--pde", "chiral", "bt-apply", "--phi", phi)
    assert json.loads(r.output)["verdict"] == verdict
    assert len(calls) == (verdict != "Integrated")


# --- parse / list ---------------------------------------------------------

def test_parse_roundtrip(runner):
    r = invoke(runner, "--pde", "heat", "parse", "u_tx + u_xt")
    assert code(r) == 0
    assert "2*u_xt" in r.output


def test_parse_folds_functions_of_zero(runner):
    # sin(0) = 0 and exp(0) = 1: the expression is 0; sin(2) stays symbolic
    r = invoke(runner, "--pde", "heat", "parse", "sin(x - x) + exp(0)*u - u")
    assert code(r) == 0
    assert r.output == "0\n"
    r = invoke(runner, "--json", "--pde", "heat", "parse",
               "cos(2*x - x - x)*sin(2) + exp(t*0)")
    assert json.loads(r.output)["values"]["normal_form"] == "1 + sin(2)"


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


# --- random input ---------------------------------------------------------

# the expression alphabet: jets of both catalog dependents, coordinates,
# constants and the catalog potential, then function heads, digits and
# punctuation, and the operator grammar's D_x and F
_SYMBOLS = ("u", "u_x", "u_t", "u_xt", "g", "g_x", "g_t", "x", "t", "c",
            "M", "X")
_TOKENS = (*_SYMBOLS, "inv(", "comm(", "D(", "sin(", "exp(", *"0123456789",
           *"+-*/(),", " ", "D_x", "F")
# token soup, which mostly fails to parse, and well-formed expressions and
# operators over the same alphabet, which mostly parse
_EXPR = st.recursive(
    st.sampled_from((*_SYMBOLS, *"0123")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        st.tuples(st.sampled_from(("inv(", "sin(", "exp(", "-(")), inner)
        .map(lambda a: f"{a[0]}{a[1]})"),
        st.tuples(inner, inner).map(lambda a: f"comm({a[0]}, {a[1]})"),
        st.tuples(inner, st.sampled_from("xt"))
        .map(lambda a: f"D({a[0]}, {a[1]})")),
    max_leaves=6)
_OPERATOR = st.lists(
    st.tuples(_EXPR, st.lists(st.sampled_from(("D_x", "D_t")), max_size=2),
              st.sampled_from(("", "*M")))
    .map(lambda a: "*".join((f"({a[0]})", *a[1], "F")) + a[2]),
    min_size=1, max_size=3).map(" + ".join)
_TEXT = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join), _EXPR)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CATALOG_NAMES), st.sampled_from(
    ["parse", "reduce", "--q", "--phi", "bracket", "certify"]),
    _TEXT, st.one_of(_TEXT, _OPERATOR))
def test_random_cli_input_exits_or_reports(pde, command, text, other):
    """Text drawn from the expression alphabet, on any catalog PDE, ends
    in an exit status, a usage error or a JetsymError: `code` re-raises
    anything else."""
    args = {"parse": ["parse", text], "reduce": ["reduce", text],
            "--q": ["check", "--no-find", "--q", text],
            "--phi": ["check", "--no-find", "--phi", text],
            "bracket": ["bracket", "--q1", text, "--q2", other],
            "certify": ["certify", "--q", text, "--lhat", other]}[command]
    r = invoke(CliRunner(), "--pde", pde, *args)
    assert code(r) in (0, 1, 2)


# a batch line: a well-formed command, token soup (which may hold quotes,
# flags and '#'), a line with an unbalanced quote, a comment or a blank
_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(("parse", "reduce")), _EXPR)
    .map(lambda a: f"{a[0]} {shlex.quote(a[1])}"),
    _EXPR.map(lambda q: f"check --no-find --q {shlex.quote(q)}"),
    _OPERATOR.map(lambda op: f"certify --q u_x --lhat {shlex.quote(op)}"))
_LINE = st.one_of(
    _COMMANDS,
    st.lists(st.sampled_from((*_TOKENS, "parse", "reduce", "check",
                              "--no-find", "--q", "--json", '"', "'", "#")),
             max_size=10).map(" ".join),
    st.tuples(st.sampled_from(("parse", "reduce")), _TEXT,
              st.sampled_from('"\'')).map(lambda a: f"{a[0]} {a[2]}{a[1]}"),
    st.text(st.sampled_from("abc xt"), max_size=8).map(lambda c: "# " + c),
    st.just(""))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG_NAMES), st.lists(_LINE, min_size=1,
                                                max_size=6))
def test_random_batch_files_report_every_bad_line(tmp_path_factory, pde,
                                                  lines):
    """A batch file of mixed lines ends in an exit status; each line that
    fails to split or to run is reported on stderr under its line number,
    and every line runs as it would on its own, also after a bad one."""
    path = tmp_path_factory.mktemp("batch") / "cmds.txt"
    path.write_text("".join(line + "\n" for line in lines))
    r = invoke(CliRunner(), "--pde", pde, "batch", str(path))
    stdout, bad, failed = "", [], False
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        try:
            args = shlex.split(line)
        except ValueError:  # unbalanced quotes
            bad.append(lineno)
            continue
        alone = invoke(CliRunner(), "--pde", pde, *args)
        status = code(alone)
        stdout += alone.stdout
        failed = failed or status != 0
        if status == 2:
            bad.append(lineno)
    assert code(r) == (1 if failed or bad else 0)
    assert r.stdout == stdout
    reported = [int(line.split(":")[1].split()[1])
                for line in r.stderr.splitlines() if line.startswith("error:")]
    assert reported == bad
