import contextlib
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

from hypothesis import given, settings, strategies as st

import pytest

import jetsym
from jetsym import normalize
from jetsym.catalog import CATALOG_NAMES
from jetsym.cli import UsageError, main

from helpers import invoke


# --- check ----------------------------------------------------------------

def test_check_symmetry_exit_zero():
    r = invoke("--pde", "heat", "check", "--q", "u_x")
    assert r.code == 0
    assert "Symmetry" in r.stdout


def test_check_not_symmetry_exit_one():
    r = invoke("--pde", "heat", "check", "--q", "x*u_t")
    assert r.code == 1
    assert "NotSymmetry" in r.stdout


def test_check_json_output():
    r = invoke("--json", "--pde", "heat", "check", "--q", "u_x",
               "--find")
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "Symmetry"
    assert payload["inputs"]["pde"] == "heat"


def test_check_json_deterministic():
    args = ("--json", "--pde", "kdv", "check", "--q", "t*u_x - 1", "--find")
    a = invoke(*args).stdout
    b = invoke(*args).stdout
    assert a == b


def test_check_phi_form():
    r = invoke("--pde", "chiral", "check", "--phi", "inv(g)*g_x")
    assert r.code == 0


GROUP_HEAT = ("--coords", "x,t", "--dependent", "g", "--matrix",
              "--invertible", "--matrices", "M", "--f", "g_t - g_xx",
              "--solved", "g_t = g_xx")


@pytest.mark.parametrize("phi", ["inv(g)*g_x", "inv(g)*g_t", "M"])
def test_phi_form_on_a_non_chiral_group_pde(phi):
    # Q = g*Phi is g_x, g_t, g*M: translations and g -> g*(1 + a*M)
    r = invoke("--json", *GROUP_HEAT, "check", "--no-find",
               "--phi", phi)
    via_q = invoke("--json", *GROUP_HEAT, "check", "--no-find",
                   "--q", f"g*({phi})")
    assert r.code == via_q.code == 0
    got, want = json.loads(r.stdout), json.loads(via_q.stdout)
    assert got["verdict"] == want["verdict"] == "Symmetry"
    assert got["values"] == want["values"]


def test_certify_phi_on_a_non_chiral_group_pde():
    r = invoke(*GROUP_HEAT, "certify", "--phi", "inv(g)*g_x",
               "--lhat", "D_x*F")
    assert r.code == 0
    r = invoke(*GROUP_HEAT, "certify", "--phi", "M",
               "--lhat", "F*M")
    assert r.code == 0


@pytest.mark.parametrize("phi", ["M", "inv(g)*g_x", "g_x"])
def test_bt_apply_needs_a_chiral_pde(phi):
    # the Backlund step is the chiral field's: on another PDE it answers
    # no seed, a symmetry (M, inv(g)*g_x) or not (g_x), and exits 2
    r = invoke(*GROUP_HEAT, "bt-apply", "--phi", phi)
    assert r.code == 2
    assert "needs the chiral equation" in r.stderr
    assert r.stdout == ""


def test_phi_form_needs_an_invertible_matrix_dependent():
    r = invoke("--pde", "heat", "check", "--phi", "u_x")
    assert r.code == 2
    assert "invertible matrix" in r.stderr


def test_check_requires_exactly_one_of_q_phi():
    r = invoke("--pde", "heat", "check")
    assert r.code == 2


# --- certify --------------------------------------------------------------

def test_certify_good():
    r = invoke("--pde", "heat", "certify", "--q", "u_x",
               "--lhat", "D_x*F")
    assert r.code == 0


def test_certify_bad():
    r = invoke("--pde", "heat", "certify", "--q", "u_x",
               "--lhat", "D_t*F")
    assert r.code == 1


# --- bracket / structconsts ----------------------------------------------

def test_bracket():
    r = invoke("--json", "--pde", "kdv", "bracket",
               "--q1", "u_t", "--q2", "t*u_x - 1")
    payload = json.loads(r.stdout)
    assert payload["values"]["bracket"] == "-u_x"


def test_structconsts_catalog_basis():
    r = invoke("--json", "--pde", "kdv", "structconsts")
    assert r.code == 0
    payload = json.loads(r.stdout)
    assert payload["inputs"]["basis"] == ["q1", "q2", "q3", "q4"]


# --- reduce / bt-apply ----------------------------------------------------

def test_reduce():
    r = invoke("--pde", "heat", "reduce", "u_tt")
    assert r.code == 0
    assert "u_xxxx" in r.stdout


def test_bt_apply_success():
    r = invoke("--pde", "chiral", "bt-apply", "--phi", "M")
    assert r.code == 0
    assert "comm(M, X)" in r.stdout or "comm(X, M)" in r.stdout


def test_bt_apply_insufficient_basis():
    r = invoke("--pde", "chiral", "bt-apply", "--phi", "comm(X, M)")
    assert r.code == 1


@pytest.mark.parametrize("phi, verdict", [
    ("g_x", "NotSymmetry"),
    ("x*inv(g)*g_t - t*inv(g)*g_x", "NoIntegral"),
    ("comm(X, M)", "NoIntegral"),
])
def test_bt_apply_tells_its_failures_apart(phi, verdict):
    """A seed that fails the symmetry condition answers NotSymmetry with
    its remainder; one that passes it but has no integral in the basis
    answers NoIntegral; both exit 1."""
    text = invoke("--pde", "chiral", "bt-apply", "--phi", phi)
    assert text.code == 1
    assert text.stdout.splitlines()[0] == f"verdict: {verdict}"
    r = invoke("--json", "--pde", "chiral", "bt-apply", "--phi", phi)
    assert r.code == 1
    payload = json.loads(r.stdout)
    assert payload["verdict"] == verdict
    if verdict == "NotSymmetry":
        check = json.loads(invoke("--json", "--pde", "chiral", "check",
                                  "--no-find", "--phi", phi).stdout)
        assert payload["remainder"] == check["remainder"] != "0"
        assert "remainder: " in text.stdout
    else:
        assert payload["remainder"] is None


@pytest.mark.parametrize("phi, verdict", [
    ("g_x", "NotSymmetry"),
    ("x*inv(g)*g_t - t*inv(g)*g_x", "NoIntegral"),
    ("M", "Integrated"),
])
def test_bt_apply_asks_check_symmetry_once(monkeypatch, phi, verdict):
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
    r = invoke("--json", "--pde", "chiral", "bt-apply", "--phi", phi)
    assert json.loads(r.stdout)["verdict"] == verdict
    assert len(calls) == (verdict != "Integrated")


# --- parse / list ---------------------------------------------------------

def test_parse_roundtrip():
    r = invoke("--pde", "heat", "parse", "u_tx + u_xt")
    assert r.code == 0
    assert "2*u_xt" in r.stdout


def test_parse_folds_functions_of_zero():
    # sin(0) = 0 and exp(0) = 1: the expression is 0; sin(2) stays symbolic
    r = invoke("--pde", "heat", "parse", "sin(x - x) + exp(0)*u - u")
    assert r.code == 0
    assert r.stdout == "0\n"
    r = invoke("--json", "--pde", "heat", "parse",
               "cos(2*x - x - x)*sin(2) + exp(t*0)")
    assert json.loads(r.stdout)["values"]["normal_form"] == "1 + sin(2)"


@pytest.mark.parametrize("pde,text,name", [("heat", "inv(u)", "u"),
                                           ("chiral", "inv(g_x)", "g")])
def test_inverse_errors_name_the_dependent(monkeypatch, capsys, pde, text,
                                           name):
    status, out = run_cli(monkeypatch, capsys, "--pde", pde, "reduce", text)
    assert status == 2
    assert out.err.startswith("error: ")
    assert f" {name} " in out.err and "_(" not in out.err


def test_parse_error_exit_two():
    r = invoke("--pde", "heat", "parse", "u_x + %")
    assert r.code == 2


def test_list_catalog():
    r = invoke("--json", "list")
    payload = json.loads(r.stdout)
    names = set(payload["values"])
    assert {"heat", "kdv", "chiral"} <= names


# --- custom problems ------------------------------------------------------

def test_custom_pde():
    r = invoke("--coords", "x,t", "--dependent", "u",
               "--f", "u_t - u_x", "--solved", "u_t = u_x",
               "check", "--q", "u")
    assert r.code == 0


@pytest.mark.parametrize("flags", [("--constants", "c_1"),
                                   ("--coords", "x,,t"),
                                   ("--dependent", "1u")])
def test_a_name_the_parser_cannot_read_exits_two(flags):
    r = invoke(*flags, "parse", "x")
    assert r.code == 2
    assert "is not a letter followed by letters and digits" in r.stderr


def test_unknown_pde_exit_two():
    r = invoke("--pde", "laplace", "check", "--q", "u_x")
    assert r.code == 2


# --- batch ----------------------------------------------------------------

def test_batch(tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "# heat symmetries\n"
        "check --q u_x\n"
        "check --q x*u_t\n"
        "reduce u_tt\n")
    r = invoke("--pde", "heat", "batch", str(script))
    assert r.code == 1  # worst verdict across lines
    assert "NotSymmetry" in r.stdout


def test_batch_line_errors_do_not_stop_the_batch(tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text('check --q "u_x +"\n'
                      "check --q u_x\n")
    r = invoke("--pde", "heat", "batch", str(script))
    assert r.code == 1
    assert "error: line 1:" in r.stderr
    assert "verdict: Symmetry" in r.stdout


def test_batch_too_deep_line_fails_on_its_own(tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text('parse "' + "(" * 3000 + "u" + ")" * 3000 + '"\n'
                      "check --q u_x\n")
    r = invoke("--pde", "heat", "batch", str(script))
    assert r.code == 1
    assert "error: line 1: expression nested too deeply" in r.stderr
    assert "verdict: Symmetry" in r.stdout


CUSTOM = ["--coords", "x,t", "--constants", "k", "--f", "u_t - k*u_xx",
          "--solved", "u_t = k*u_xx"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_batch_forwards_every_global_flag(tmp_path, json_flag):
    lines = [["check", "--no-find", "--q", "u_x"], ["reduce", "u_tt"],
             ["check", "--no-find", "--q", "u*u"]]
    script = tmp_path / "cmds.txt"
    script.write_text("".join(" ".join(f'"{a}"' for a in line) + "\n"
                              for line in lines))
    direct = [invoke(*json_flag, *CUSTOM, *line) for line in lines]
    assert [r.code for r in direct] == [0, 0, 1]
    r = invoke(*json_flag, *CUSTOM, "batch", str(script))
    assert r.code == 1
    assert r.stderr == ""
    assert r.stdout == "".join(d.stdout for d in direct)


def test_certify_folds_consecutive_signs():
    args = ("--pde", "kdv", "certify", "--lhat", "2*D_x*F - -D_x*F", "--q")
    assert invoke(*args, "3*u_x").code == 0
    assert invoke(*args, "u_x").code == 1


def test_certify_reads_what_check_prints():
    q = "u_x - 2*t*u_x + 2"
    r = invoke("--json", "--pde", "kdv", "check", "--q", q)
    cert = json.loads(r.stdout)["certificate"]
    assert "((-2)*t)" in cert
    assert invoke("--pde", "kdv", "certify", "--q", q,
                  "--lhat", cert).code == 0


def test_run_entrypoint_exit_codes():
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


def test_batch_blowup_line_fails_on_its_own(tmp_path, monkeypatch):
    monkeypatch.setattr(normalize, "MAX_TERMS", 4096)
    script = tmp_path / "cmds.txt"
    script.write_text(f'parse "{nested_commutators(6)}"\n'
                      "check --phi M\n")
    r = invoke("--pde", "chiral", "batch", str(script))
    assert r.code == 1
    assert r.stderr.startswith("error: line 1: a product of ")
    assert "verdict: Symmetry" in r.stdout


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_batch_on_a_path_it_cannot_read_exits_two(monkeypatch, capsys,
                                                   tmp_path, kind):
    path = tmp_path / "cmds.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"check --q u_x\nreduce \xff\n")
    status, out = run_cli(monkeypatch, capsys, "--pde", "heat", "batch",
                          str(path))
    assert status == 2
    assert out.err.startswith(f"error: cannot read {path}: ")
    assert out.out == ""


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
        main.main(args=args, standalone_mode=False, prog_name="jetsym")
    assert out.getvalue()
    assert bool(err.getvalue()) == (args[0] == "batch")
    del out, err
    gc.collect()
    assert [r() for r in refs] == [None, None]


# --- the parser -------------------------------------------------------------

CUSTOM_BACKWARD_HEAT = ["--f", "-u_t - u_xx", "--solved", "u_t = -u_xx"]


@pytest.mark.parametrize("args, status, fields", [
    (["--pde", "heat", "check", "--q", "-3*u_x"], 0,
     {"verdict": "Symmetry", "certificate": "-3*D_x*F"}),
    (["--pde", "kdv", "certify", "--q", "u_x", "--lhat", "-D_x*F"], 1,
     {"verdict": "NotCertified", "certificate": None}),
    (["--pde", "kdv", "certify", "--q", "-u_x", "--lhat", "-D_x*F"], 0,
     {"verdict": "Certified", "certificate": "-D_x*F"}),
    ([*CUSTOM_BACKWARD_HEAT, "check", "--q", "u_x"], 0,
     {"verdict": "Symmetry", "certificate": "D_x*F"}),
    ([*CUSTOM_BACKWARD_HEAT, "check", "--q", "-x*u_t"], 1,
     {"verdict": "NotSymmetry", "remainder": "(-2)*u_xxx"}),
], ids=["check", "certify-fails", "certify", "custom", "custom-fails"])
def test_an_option_value_may_start_with_a_dash(args, status, fields):
    """A value is the token after its option, whatever it starts with;
    argparse alone would read -3*u_x as an unknown option."""
    r = invoke("--json", *args)
    assert (r.code, r.stderr) == (status, "")
    payload = json.loads(r.stdout)
    assert {k: payload[k] for k in fields} == fields
    assert all(payload["inputs"][flag[2:]] == value
               for flag, value in zip(args, args[1:]) if flag in ("--q", "--lhat"))


def test_an_option_takes_a_flag_as_its_value():
    r = invoke("--pde", "heat", "check", "--q", "--no-find")
    assert r.code == 2
    assert r.stderr == "error: undeclared symbol 'no' (at position 2)\n"


@pytest.mark.parametrize("args", [
    ["--help"], ["-h"], ["check", "--help"], ["--pde", "heat", "check", "--bogus"],
    ["--pde", "heat", "check", "--q"], ["--pde"], ["--pde", "heat"], [],
], ids=["help", "h", "command-help", "unknown-option", "missing-value",
        "missing-global-value", "missing-command", "empty"])
def test_main_never_raises_system_exit(args):
    """--help prints and returns 0, and a line the parser cannot read raises
    UsageError: neither exits a process that embeds the CLI."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            status = main(args)
        except UsageError:
            status = 2
        except SystemExit:
            pytest.fail(f"main({args}) raised SystemExit")
    assert status == (0 if args[-1:] in (["--help"], ["-h"]) else 2)
    assert bool(out.getvalue()) == (status == 0)


PHI_HELP = "Phi-form seed: Q = g*Phi, for an invertible matrix g"
HELP = {  # each command's options and arguments, with their help text
    (): {"--json": "machine-readable output",
         "--pde": "catalog PDE (sine-gordon, heat, burgers, wave, kdv, chiral)",
         "--coords": "comma-separated coordinates",
         "--dependent": "dependent variable name",
         "--matrix": "dependent is matrix-valued",
         "--invertible": "dependent is invertible",
         "--constants": "comma-separated opaque constants",
         "--matrices": "comma-separated constant matrices",
         "--basefuncs": "comma-separated base functions",
         "--f": "custom PDE expression F",
         "--solved": 'custom solved form "lead = rhs"'},
    ("parse",): {"expression": ""},
    ("check",): {"--q": "characteristic Q (expression or catalog name)",
                 "--phi": PHI_HELP, "--no-find": "",
                 "--find": "search for an operator certificate"},
    ("certify",): {"--q": "", "--phi": PHI_HELP,
                   "--lhat": 'operator spec, e.g. "t*D_x*F"'},
    ("bracket",): {"--q1": "", "--q2": ""},
    ("structconsts",): {"--basis": "comma-separated characteristics "
                                   "(default: catalog basis)"},
    ("reduce",): {"expression": ""},
    ("bt-apply",): {"--phi": "seed Phi for the Backlund system"},
    ("list",): {},
    ("batch",): {"path": ""},
}


@pytest.mark.parametrize("command", list(HELP),
                         ids=lambda c: c[0] if c else "jetsym")
def test_help_prints_every_option_with_its_help(command):
    r = invoke(*command, "--help")
    assert (r.code, r.stderr) == (0, "")
    words = r.stdout.split()
    text = "".join(words)  # help wraps its lines, also at hyphens
    for name, help_text in HELP[command].items():
        assert name in words or f"{name}," in words
        assert "".join(help_text.split()) in text
    if not command:
        assert all(c[0] in text for c in HELP if c)


def test_cli_needs_no_click():
    """With click unimportable, the CLI imports and answers: its parser is
    the standard library's."""
    script = ("import sys; sys.modules['click'] = None\n"
              "from jetsym.cli import run\n"
              "sys.argv = ['jetsym', '--json', '--pde', 'kdv', 'check', "
              "'--q', 'q1']\n"
              "run()\n")
    env = {**os.environ, "PYTHONPATH": str(Path(jetsym.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["verdict"] == "Symmetry"


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
    in an exit status, a usage error or a JetsymError: `invoke` re-raises
    anything else."""
    args = {"parse": ["parse", text], "reduce": ["reduce", text],
            "--q": ["check", "--no-find", "--q", text],
            "--phi": ["check", "--no-find", "--phi", text],
            "bracket": ["bracket", "--q1", text, "--q2", other],
            "certify": ["certify", "--q", text, "--lhat", other]}[command]
    r = invoke("--pde", pde, *args)
    assert r.code in (0, 1, 2)


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
    r = invoke("--pde", pde, "batch", str(path))
    stdout, bad, failed = "", [], False
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        try:
            args = shlex.split(line)
        except ValueError:  # unbalanced quotes
            bad.append(lineno)
            continue
        alone = invoke("--pde", pde, *args)
        status = alone.code
        stdout += alone.stdout
        failed = failed or status != 0
        if status == 2:
            bad.append(lineno)
    assert r.code == (1 if failed or bad else 0)
    assert r.stdout == stdout
    reported = [int(line.split(":")[1].split()[1])
                for line in r.stderr.splitlines() if line.startswith("error:")]
    assert reported == bad
