"""Smoke test of tools/ladder.py: each ladder, cut to its first rung or
two and run once, gives the operation counts of the committed
BENCH_ladder.json.  The ladder reads engine internals (the D_i images kept
per problem, the `Pde`'s stores and their fields), so a change to those
shows here.  The rung functions are called, not `main`, so no record is
written."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location(
        "ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.REPEATS = 1
    module.KDV_ORDERS = module.KDV_ORDERS[:2]
    module.CHAIN_STEPS = 2
    module.FED_BACK = {name: (factor, prefix, powers[:2]) for name,
                       (factor, prefix, powers) in module.FED_BACK.items()}
    module.SUBSTITUTE = {name: powers[:2]
                         for name, powers in module.SUBSTITUTE.items()}
    module.PRETTY_POWERS = module.PRETTY_POWERS[:1]
    module.PARSE_SIZES = module.PARSE_SIZES[:3]
    module.RENDER_POWERS = module.RENDER_POWERS[:1]
    module.FIND_LADDER = {name: (char, cfgs[:1]) for name, (char, cfgs)
                          in module.FIND_LADDER.items()}
    module.CHAR_NF = {name: (factor, prefix, powers[:2]) for name,
                      (factor, prefix, powers) in module.CHAR_NF.items()}
    return module


# the fields that name a rung within its ladder
KEY_FIELDS = ("pde", "q", "cfg", "k", "step")


def _key(row: dict) -> tuple:
    return tuple(json.dumps(row.get(f)) for f in KEY_FIELDS)


def _counts(row: dict) -> dict:
    return {f: v for f, v in row.items() if not f.endswith("_s")}


RUNGS = {
    "reduce_kdv_u_t_k": lambda m: m.reduce_ladder(),
    "bt_apply_chain_integral":
        lambda m: m.chain_ladder(m.CHAIN_SEEDS["integral"]),
    "bt_apply_chain_fractional":
        lambda m: m.chain_ladder(m.CHAIN_SEEDS["fractional"]),
    "reduce_fed_back": lambda m: m.fed_back_ladder(),
    "substitute_solved_form_in_f_k": lambda m: m.substitute_ladder(),
    "pretty_chiral_g_plus_g_x_k": lambda m: m.pretty_ladder(),
    "parse_kdv_combination_k": lambda m: m.parse_ladder(),
    "render_chiral_g_plus_g_x_k": lambda m: m.render_ladder(),
    "find_operator_ansatz": lambda m: m.find_ladder(),
    "char_nf_cold_warm": lambda m: m.char_nf_ladder(),
}


@pytest.mark.parametrize("name", list(RUNGS))
def test_ladder_rungs_give_the_committed_counts(ladder, name):
    committed = json.loads((ROOT / "BENCH_ladder.json").read_text())[name]
    rows = {_key(row): _counts(row) for row in committed}
    got = RUNGS[name](ladder)
    assert got
    for row in got:
        assert _counts(row) == rows[_key(row)]
