"""Fuzzed config files and packet bytes: bad input is reported, never raised
as anything but the documented error."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svdlab import cli, defense
from svdlab.attack import AttackConfig
from svdlab.defense import DefenseConfig
from svdlab.errors import InvalidInput
from svdlab.flsim import DataConfig, FlConfig

SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-3, max_value=70)
    | st.floats() | st.floats(min_value=0.0, max_value=1.0) | st.text(max_size=6)
    | st.sampled_from(["svdefense", "dgp", "rho", "l2", "inferred", "defense_replay", "zero"])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _names(*classes):
    return [f.name for cls in classes for f in fields(cls)] + ["junk"]


def _section(names, values=VALUES):
    return st.dictionaries(st.sampled_from(names), values, max_size=5)


CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "seed": VALUES,
        "data": _section(_names(DataConfig)) | VALUES,
        "model": _section(["hidden_dims", "junk"], st.lists(SCALARS, max_size=3) | VALUES),
        "fl": _section(_names(FlConfig), VALUES | _section(_names(DefenseConfig))) | VALUES,
        "attack": _section(_names(AttackConfig, cli.AttackHarnessConfig)) | VALUES,
        "junk": VALUES,
    },
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=CONFIGS)
def test_load_spec_reports_never_raises(config_path, raw):
    config_path.write_text(json.dumps(raw))
    spec, errors = cli.load_spec(str(config_path))
    assert all(isinstance(e, str) for e in errors)
    if not errors:
        assert isinstance(spec, cli.ExperimentSpec) and spec.validate() == []


def _packets():
    dims = st.integers(min_value=0, max_value=4)

    def raw(shape):
        return defense.DefensePacket(
            layer_id=1, kind="raw", orig_shape=shape, values=np.arange(float(np.prod(shape)))
        )

    def svd(pqk):
        p, q, k = pqk
        return defense.DefensePacket(
            layer_id=2, kind="svd", orig_shape=(p, q), channel_weights=np.ones(p),
            u_star=np.ones((p, k)), sigma_star=np.ones(k), vt_star=np.ones((k, q)), entropy=0.5,
        )

    shapes = st.tuples(dims) | st.tuples(dims.filter(bool), dims.filter(bool))
    return st.builds(raw, shapes) | st.builds(svd, st.tuples(dims, dims, dims))


@settings(max_examples=300, deadline=None)
@given(packet=_packets(), cut=st.integers(min_value=0, max_value=400),
       flips=st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                                st.integers(min_value=0, max_value=255)), max_size=3),
       tail=st.binary(max_size=9))
def test_deserialize_is_strict(packet, cut, flips, tail):
    good = defense.serialize_packet(packet)
    back = defense.deserialize_packet(good)
    assert defense.serialize_packet(back) == good
    blob = bytearray(good[:cut] + tail)
    for at, value in flips:
        if at < len(blob):
            blob[at] = value
    try:
        parsed = defense.deserialize_packet(bytes(blob))
    except InvalidInput:
        return
    assert defense.serialize_packet(parsed) == bytes(blob)


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=120))
def test_random_bytes_parse_or_raise_invalid_input(blob):
    try:
        defense.deserialize_packet(blob)
    except InvalidInput:
        pass
