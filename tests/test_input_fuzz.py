"""Hostile input through the command-line boundary.

Descriptors, sweep configs and `entropy coding` flags are built from
hostile JSON values (integers beyond the float range, NaN and Infinity
tokens, bools, strings, null and nested lists) mixed with valid ones, so
that checks past the first are reached too.  Whatever arrives, `main`
returns a documented exit code and never raises.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conformal_lab.cli import main
from conformal_lab.families import FAMILIES, FAMILY_NAMES

HOSTILE = st.sampled_from([
    10**400, -10**400, 10**300, float("nan"), float("inf"), float("-inf"), 1e300,
    True, False, "0.1", "", None, [], [[0.1, [0.0]]], [0.1, None], {},
])
VALID = st.sampled_from([0.1, 0.2, 0.5, 0, 1, 2, [0.1, 0.05], [-0.3, 0.1]])
VALUE = st.one_of(HOSTILE, VALID)


def _mostly(valid):
    """A draw from the strategy valid, or one time in five a hostile value,
    so that most inputs get past the document's shape to the values in it."""
    return st.integers(0, 4).flatmap(lambda i: HOSTILE if i == 0 else valid)



def _member(complete):
    """(family name, params) with the family's own keys, each value hostile
    or valid; all of them when complete, as a descriptor needs."""
    def params(spec):
        required = (*spec.required, *spec.optional) if complete else spec.required
        optional = () if complete else spec.optional
        return st.fixed_dictionaries(
            {key: VALUE for key in required}, optional={key: VALUE for key in optional}
        )

    return st.sampled_from(FAMILY_NAMES).flatmap(
        lambda name: st.tuples(st.just(name), params(FAMILIES[name]))
    )


@st.composite
def descriptors(draw):
    name, params = draw(_member(complete=True))
    doc = {"version": draw(_mostly(st.just(1))), "family": draw(_mostly(st.just(name))),
           "params": draw(_mostly(st.just(params)))}
    if draw(st.booleans()):
        doc["C"] = draw(VALUE)
    return doc


@st.composite
def grid_entries(draw):
    name, params = draw(_member(complete=False))
    entry = {"family": draw(_mostly(st.just(name))), **params}
    if draw(st.booleans()):
        entry["C"] = draw(VALUE)
    return entry


SWEEP_CONFIG = st.fixed_dictionaries(
    {"version": _mostly(st.just(1))},
    optional={
        "level": _mostly(st.just(1)),
        "grid": _mostly(st.lists(grid_entries(), min_size=1, max_size=2)),
        "samples_per_edge": _mostly(st.just(2)),
        "curve_samples": _mostly(st.just(9)),
    },
)
#: flag text that argparse's int and float accept, from hostile values up
INT_FLAG = st.sampled_from([10**400, -10**400, 10**300, -1, 0, 1, 2, 3]).map(str)
FLOAT_FLAG = st.one_of(
    INT_FLAG, st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e400", "1e-400"]),
    st.floats().map(repr),
)

FUZZ = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _exit_code(argv):
    code = main(argv)
    assert code in (0, 1, 2, 3)
    return code


@FUZZ
@given(doc=descriptors())
def test_hostile_descriptor_exits_with_a_code(tmp_path, doc):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    _exit_code(["verify", "--metric", str(path), "--level", "1", "--k", "2"])


@FUZZ
@given(doc=SWEEP_CONFIG)
def test_hostile_sweep_config_exits_with_a_code(tmp_path, doc):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    _exit_code(["sweep", "--config", str(path), "--level", "1"])


@FUZZ
@given(volume=FLOAT_FLAG, dim=INT_FLAG, rho=FLOAT_FLAG)
def test_hostile_coding_flags_exit_with_a_code(volume, dim, rho):
    _exit_code(["entropy", "coding", f"--volume={volume}", f"--dim={dim}", f"--rho={rho}"])
