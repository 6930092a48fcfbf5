"""Types, entries and plans survive copy, deepcopy and pickle.

A SemanticType pickles as ``(SemanticType, (base, params, is_var))`` and is
rebuilt through its constructor, so its hash is the receiving process's
hash of its text. What a copied or unpickled ``Value`` is stays open.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_name_rows import _plan_table, _request
from test_types import _types

import opsforge
from opsforge.stdlib import default_environment
from opsforge.types import SemanticType, parse_type

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def _same_type(a, b):
    return a == b and str(a) == str(b) and hash(a) == hash(b) and a.is_concrete() is (
        b.is_concrete()
    )


@pytest.mark.parametrize("how", ROUND_TRIPS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(t=_types())
def test_drawn_types_round_trip(how, t):
    back = ROUND_TRIPS[how](t)
    assert type(back) is SemanticType and _same_type(back, t)
    assert back.params == t.params and back.is_var is t.is_var


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_variables_round_trip(how):
    for text in ("'T", "List<'T>", "Map<'K, List<'V>>"):
        t = parse_type(text)
        back = ROUND_TRIPS[how](t)
        assert _same_type(back, t) and back.variables() == t.variables()


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_every_bundled_entry_round_trips(how):
    infos = default_environment().infos
    assert len(infos) == 54
    for info in infos:
        back = ROUND_TRIPS[how](info)
        assert back == info and hash(back) == hash(info)
        assert back.signature_string() == info.signature_string()
        assert (back.arg_params, back.special_param, back.mutable_index) == (
            info.arg_params, info.special_param, info.mutable_index
        )


PLAN_ROWS = {label: row for label, row in _plan_table().items() if "signature" in row}


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("label", PLAN_ROWS)
def test_plan_table_plans_round_trip(how, label):
    tree = default_environment().match(_request(PLAN_ROWS[label]))
    back = ROUND_TRIPS[how](tree)
    assert back.signature == tree.signature == PLAN_ROWS[label]["signature"]
    assert back == tree and hash(back) == hash(tree)
    assert back.out_type is None or _same_type(back.out_type, tree.out_type)


UNPICKLE = """
import pickle, sys
from opsforge.types import parse_type
table = {parse_type("List<Map<Real, ImageU8>>"): "found", parse_type("'T"): "var"}
got = [table.get(pickle.loads(bytes.fromhex(h))) for h in sys.argv[1:]]
print(hash("List<Map<Real, ImageU8>>"), *got)
"""


def test_another_hash_seed_unpickles_types_that_find_their_dict_keys():
    blobs = [pickle.dumps(parse_type(t)).hex() for t in ("List<Map<Real, ImageU8>>", "'T")]
    own = hash("List<Map<Real, ImageU8>>")
    seeds = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(opsforge.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", UNPICKLE, *blobs], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        assert out[1:] == ["found", "var"]
        seeds.append(int(out[0]))
    # at least one child hashed the text apart from this process
    assert any(h != own for h in seeds)
