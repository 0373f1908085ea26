"""Fuzzed config files, packet bytes, packet lists and checkpoint bytes: bad
input is reported, never raised as anything but the documented error, and
raw packets travel bit-exact as their bitmap and stored values. Fuzzed matrices:
linalg.svd keeps its contract at every shape, rank and power-of-two scale.
Fuzzed uploads: pruning and noise match independent references. Fuzzed noise
scales: a training run exits 0 or with one numerical failure line, and no warning.
Fuzzed tiny train, attack and sweep runs: exit 0, 2 or 3, only error lines on stderr, no NaN written."""

import json
import math
import shutil
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import HEADER_BYTES, kind_defense, reference_pruned, transposed, wire_blob, wire_bytes
from svdlab import cli, defense, linalg, tinynn
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
    """(packet, the shape of its tensor): raw values of any shape, or svd
    factors of a p x q tensor that keep k <= min(p, q) values (rank 0 and
    k >= 2 included), some rows of u_star and columns of vt_star all +0.0
    or all -0.0, and some single entries of u_star +0.0 or -0.0; a row of
    u_star left all +0.0 may send the channel weight +0.0, as a dead
    channel does (so may every row at rank 0)."""
    dims = st.integers(min_value=0, max_value=4)
    picks = st.lists(st.integers(0, 3), max_size=3)
    zeros = st.sampled_from([0.0, -0.0])

    def raw(shape):
        return defense.DefensePacket(values=np.arange(float(np.prod(shape))).reshape(shape)), shape

    def svd(p, q, k, dead_rows, dead_cols, zero, holes, dead_weights):
        u, vt = np.ones((p, k)), np.ones((k, q))
        u[[j % p for j in dead_rows]] = zero
        vt[:, [i % q for i in dead_cols]] = zero
        for at, hole in holes if k else ():
            u.flat[at % u.size] = hole
        dead = dead_weights & ~u.view(np.uint64).any(axis=1)
        return defense.DefensePacket(channel_weights=np.where(dead, 0.0, 1.0), u_star=u,
                                     sigma_star=np.ones(k), vt_star=vt, entropy=0.5), (p, q)

    shapes = st.tuples(dims) | st.tuples(dims.filter(bool), dims.filter(bool))
    sides = st.integers(min_value=2, max_value=4)  # H = 0.5 <= ln(min(p, q))
    holes = st.lists(st.tuples(st.integers(0, 15), zeros), max_size=3)
    svds = st.tuples(sides, sides).flatmap(
        lambda pq: st.builds(svd, st.just(pq[0]), st.just(pq[1]), st.integers(0, min(pq)),
                             picks, picks, zeros, holes, st.booleans()))
    return st.builds(raw, shapes) | svds


@settings(max_examples=300, deadline=None)
@given(packet_shape=_packets(), cut=st.integers(min_value=0, max_value=400),
       flips=st.lists(st.tuples(st.integers(min_value=0, max_value=400)
                                | st.none(),  # or the first mask byte
                                st.integers(min_value=0, max_value=255)), max_size=3),
       tail=st.binary(max_size=9), other_kind=st.booleans())
def test_deserialize_is_strict(packet_shape, cut, flips, tail, other_kind):
    packet, shape = packet_shape
    cfg, kind = kind_defense(packet), "raw" if packet.values is not None else "svd"
    good = defense.serialize_packet(packet)
    back = defense.deserialize_packet(good, shape, cfg)
    assert defense.serialize_packet(back) == good
    if other_kind and len(shape) == 2:  # a run whose defense sends the other kind
        cfg = DefenseConfig(method="svdefense" if kind == "raw" else "none")
        with pytest.raises(InvalidInput):
            defense.deserialize_packet(good, shape, cfg)
    blob = bytearray(good[:cut] + tail)
    for at, value in flips:
        at = HEADER_BYTES[kind] if at is None else at
        if at < len(blob):
            blob[at] = value
    try:
        parsed = defense.deserialize_packet(bytes(blob), shape, cfg)
    except InvalidInput:
        return
    assert defense.serialize_packet(parsed) == bytes(blob)


NONE = DefenseConfig()


@st.composite
def _raw_values(draw):
    """A raw tensor, empty ones included, whose entries are any f64 with
    probability `density` and +0.0 or -0.0 otherwise."""
    shape = draw(st.tuples(st.integers(0, 40)) | st.tuples(st.integers(1, 6), st.integers(1, 6)))
    dense = draw(arrays(np.float64, shape, elements=st.floats(width=64)))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.where(rng.random(shape) < density, dense,
                    np.where(rng.random(shape) < 0.5, -0.0, 0.0))


def _raw_blob(values: np.ndarray, mask) -> bytes:
    """The raw packet of `values` built by hand: a bitmap of `mask` and the
    masked values."""
    return wire_blob(np.packbits(mask).tobytes() + values.ravel()[mask].tobytes())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=_raw_values(), extra=st.lists(st.integers(min_value=0, max_value=39), max_size=3),
       cut=st.none() | st.integers(min_value=0, max_value=400),
       flips=st.lists(st.tuples(st.integers(0, 400)  # or the bitmap:
                                | st.integers(HEADER_BYTES["raw"], HEADER_BYTES["raw"] + 4),
                                st.integers(0, 7)), max_size=3),
       tail=st.binary(max_size=9))
def test_raw_packets_travel_bit_exact_in_the_bitmap_form(values, extra, cut, flips, tail):
    packet = defense.DefensePacket(values=values)
    good = defense.serialize_packet(packet)
    stored = values.ravel().view(np.uint64) != 0  # -0.0 is stored, +0.0 is not
    if np.isnan(values).any():  # no honest upload holds one, so no form parses
        with pytest.raises(InvalidInput, match="NaN"):
            defense.deserialize_packet(good, values.shape, NONE)
        return
    back = defense.deserialize_packet(good, values.shape, NONE)
    assert back.values.shape == values.shape and back.values.tobytes() == values.tobytes()
    # of the bitmap form, one that also stores some +0.0 entries, the
    # retired dense form (the values alone) and one with a pad bit set, the
    # serializer writes the first and the parser accepts that one alone
    n, k = values.size, int(np.count_nonzero(stored))
    assert len(good) == HEADER_BYTES["raw"] + -(-n // 8) + 8 * k
    more = stored.copy()
    more[[i % n for i in extra if n]] = True
    forms = [_raw_blob(values, stored), _raw_blob(values, more), values.tobytes()]
    assert good == forms[0]
    if n % 8:
        padded = bytearray(forms[0])
        padded[HEADER_BYTES["raw"] + (n - 1) // 8] |= 1
        forms.append(bytes(padded))
    for blob in forms:
        if blob != good:
            with pytest.raises(InvalidInput):
                defense.deserialize_packet(blob, values.shape, NONE)
    blob = bytearray(good if cut is None else good[:cut] + tail)
    for at, bit in flips:
        if blob:
            blob[at % len(blob)] ^= 1 << bit
    try:
        parsed = defense.deserialize_packet(bytes(blob), values.shape, NONE)
    except InvalidInput:
        return
    assert defense.serialize_packet(parsed) == bytes(blob)


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=120),
       shape=st.tuples(st.integers(0, 12)) | st.tuples(st.integers(1, 4), st.integers(1, 4)),
       method=st.sampled_from(defense.METHODS))
def test_random_bytes_parse_or_raise_invalid_input(blob, shape, method):
    try:
        defense.deserialize_packet(blob, shape, DefenseConfig(method=method))
    except InvalidInput:
        pass


@settings(max_examples=150, deadline=None, derandomize=True)
@given(method=st.sampled_from(defense.METHODS),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)),
       density=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_defended_packets_travel_against_their_tensor_shapes(method, dims, density, seed):
    # each packet is the header and its payload, parses back against its
    # tensor's shape to a packet that rebuilds the same bits and writes the
    # same blob; against another 2-D shape an svd blob is refused or read as
    # a canonical packet of that shape (its mask may fit both), and a 1-D
    # shape, whose kind is raw, refuses it
    d, h, c = dims
    rng = np.random.default_rng(seed)
    grads = [rng.normal(size=s) * (rng.random(s) < density) for s in ((h, d), (h,), (c, h), (c,))]
    cfg = DefenseConfig(method=method)
    packets, _ = defense.defend_update(grads, cfg, seed=rng)
    for packet, t in zip(packets, grads, strict=True):
        blob = defense.serialize_packet(packet)
        assert len(blob) == wire_bytes(packet)
        back = defense.deserialize_packet(blob, t.shape, cfg)
        assert back.entropy == packet.entropy and defense.serialize_packet(back) == blob
        x, y = defense.reconstruct_packet(packet), defense.reconstruct_packet(back)
        assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())
        for shape in {t.shape[::-1], (t.size,)} - {t.shape} if packet.values is None else ():
            try:
                other = defense.deserialize_packet(blob, shape, cfg)
            except InvalidInput:
                continue
            assert len(shape) == 2 and defense.serialize_packet(other) == blob


_MODEL = tinynn.init_model(6, [3], 2, seed=0)
_OTHER = tinynn.init_model(6, [4], 2, seed=0)  # as many tensors, other shapes
_CHECKPOINT = tinynn.init_model(4, [3, 2], 2, seed=0)  # two hidden layers: four widths


@st.composite
def _damaged_checkpoints(draw, blob: bytes):
    """`blob`, the _CHECKPOINT file, cut short, with its width count or one
    of its widths rewritten, with 1-4 of its bytes overwritten, or
    extended."""
    how = draw(st.sampled_from(["truncated", "header", "mutated", "extended"]))
    if how == "truncated":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "extended":
        return blob + draw(st.binary(min_size=1, max_size=24))
    out = bytearray(blob)
    if how == "header":  # u32 0 is the count, u32 j the j-th width
        at = len(tinynn.MODEL_MAGIC) + 4 * draw(st.integers(0, len(_CHECKPOINT.layers) + 1))
        struct.pack_into("<I", out, at, draw(st.integers(0, 4) | st.integers(0, 2**32 - 1)))
        return bytes(out)
    for at, value in draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                                   min_size=1, max_size=4)):
        out[at] = value
    return bytes(out)


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoints")
    (path / "good.bin").write_bytes(tinynn.model_bytes(_CHECKPOINT))
    return path


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_checkpoint_bytes_load_or_raise_invalid_input(checkpoint_dir, data):
    # a file that loads is one model_bytes writes back byte for byte
    blob = data.draw(_damaged_checkpoints((checkpoint_dir / "good.bin").read_bytes()))
    (checkpoint_dir / "damaged.bin").write_bytes(blob)
    try:
        model = tinynn.load_model(checkpoint_dir / "damaged.bin")
    except InvalidInput:
        return
    assert tinynn.model_bytes(model) == blob


def _upload(model, method):
    return defense.defend_update(model.tensors(), DefenseConfig(method=method), seed=0)[0]


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(["none", "svdefense"]),
       edits=st.lists(st.tuples(st.sampled_from(["drop", "dup", "move", "other", "transpose"]),
                                st.integers(0, 7), st.integers(0, 7)), max_size=4))
def test_packet_lists_decode_or_raise_invalid_input(method, edits):
    packets, other = _upload(_MODEL, method), _upload(_OTHER, method)
    for op, i, j in edits:
        if not packets:
            break
        i %= len(packets)
        if op == "drop":
            del packets[i]
        elif op == "dup":
            packets.insert(j % (len(packets) + 1), packets[i])
        elif op == "move":
            packets.insert(j % len(packets), packets.pop(i))
        elif op == "other":  # the same position from a model of other shapes
            packets[i] = other[i % len(other)]
        else:
            packets[i] = transposed(packets[i])
    try:
        back = defense.packets_to_gradset(packets, _MODEL)
    except InvalidInput:
        return
    assert [t.shape for t in back] == [t.shape for t in _MODEL.tensors()]


@st.composite
def _svd_inputs(draw):
    """A p x q matrix (1 <= p, q <= 64), its exact rank (None when unknown)
    and a power-of-two exponent. Either built like a weighted gradient: r
    random directions times sparse ReLU activations, rows scaled by their
    norms (r = 0 gives the zero matrix); or with singular values graded from
    1 down to 10**-decay, so some fall on either side of the rank cut."""
    p, q = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        r = draw(st.integers(0, min(p, q)))
        acts = np.maximum(rng.normal(size=(r, q)), 0.0) * (rng.random((r, q)) < 0.2)
        acts[:, :r] += np.eye(r)
        m = rng.normal(size=(p, r)) @ acts
        m *= np.sqrt(np.sum(m * m, axis=1))[:, None]
    else:
        n, r = min(p, q), None
        qu, qv = (np.linalg.qr(rng.normal(size=(d, n)))[0] for d in (p, q))
        m = (qu * np.logspace(0.0, -draw(st.floats(0.0, 16.0)), n)) @ qv.T
    return m, r, draw(st.integers(-500, 500))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_svd_inputs())
def test_svd_contract(case):
    m, rank, e = case
    f = linalg.svd(m)
    p, q = m.shape
    k = len(f.sigma)
    assert f.u.shape == (p, k) and f.vt.shape == (k, q)
    if rank == 0:
        np.testing.assert_array_equal(f.u, np.eye(p, 1))
        np.testing.assert_array_equal(f.sigma, [0.0])
        np.testing.assert_array_equal(f.vt, np.eye(1, q))
    else:
        spectrum = np.linalg.svd(m, compute_uv=False)
        ratio = spectrum / (linalg.RANK_TOL * spectrum[0])
        if not np.any(np.abs(ratio - 1.0) < 0.1):  # no value within rounding of the cut
            assert k == np.count_nonzero(ratio > 1.0)
        assert rank is None or k == rank
    assert np.linalg.norm(f.assemble() - m) <= 1e-8 * np.linalg.norm(m)
    np.testing.assert_allclose(f.u.T @ f.u, np.eye(k), atol=1e-8)
    np.testing.assert_allclose(f.vt @ f.vt.T, np.eye(k), atol=1e-8)
    assert np.all(np.diff(f.sigma) <= 0.0)
    assert np.all(f.u[np.argmax(np.abs(f.u), axis=0), np.arange(k)] >= 0.0)
    g = linalg.svd(np.ldexp(m, e))
    np.testing.assert_array_equal(g.sigma, np.ldexp(f.sigma, e))
    np.testing.assert_array_equal(g.u, f.u)
    np.testing.assert_array_equal(g.vt, f.vt)


@st.composite
def _uploads(draw):
    """A two-layer model, a gradient set of its shapes and a second one to
    carry in, of entries with repeated magnitudes and zeros of both signs."""
    d, h, c = (draw(st.integers(1, 5)) for _ in range(3))
    entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, 7.0])
    shapes = [(h, d), (h,), (c, h), (c,)]
    grads, carry = ([draw(arrays(np.float64, shape, elements=entries)) for shape in shapes]
                    for _ in range(2))
    params = tinynn.ModelParams([tinynn.LayerParams(w, b) for w, b in zip(grads[::2], grads[1::2])])
    return params, grads, carry


RATES = st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_uploads(), method=st.sampled_from(["prune", "dgp"]), small=RATES, large=RATES,
       carried=st.booleans())
def test_pruning_matches_the_reference(case, method, small, large, carried):
    params, grads, carry_in = case
    large = large if method == "dgp" else 0.0
    cfg = DefenseConfig(method=method, prune_rate=small, dgp_small_rate=small, dgp_large_rate=large)
    residual = carry_in if method == "dgp" and carried else None
    packets, carry = defense.defend_update(grads, cfg, seed=0, residual=residual)
    sent = defense.packets_to_gradset(packets, params)
    inputs = grads if residual is None else [t + c for t, c in zip(grads, residual)]
    for x, s in zip(inputs, sent):
        np.testing.assert_array_equal(s, reference_pruned(x, small, large))
        if small == large == 0.0:  # a zero rate zeroes nothing
            np.testing.assert_array_equal(s, x)
    if method == "prune":
        assert carry is None
        return
    for x, s, c in zip(inputs, sent, carry):  # error feedback loses nothing
        np.testing.assert_array_equal(s + c, x)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_uploads(), method=st.sampled_from(["dp_gauss", "dp_lap"]),
       seed=st.integers(0, 2**32 - 1))
def test_noise_is_drawn_in_wire_order(case, method, seed):
    params, grads, _ = case
    cfg = DefenseConfig(method=method, noise_scale=0.5)
    packets, _ = defense.defend_update(grads, cfg, seed=seed)
    ref = np.random.default_rng(seed)
    draw = ref.normal if method == "dp_gauss" else ref.laplace
    for t, s in zip(grads, defense.packets_to_gradset(packets, params)):
        np.testing.assert_array_equal(s, t + draw(0.0, 0.5, t.shape))


@pytest.fixture(scope="module")
def noise_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("noise")


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(method=st.sampled_from(defense.NOISE_METHODS), exponent=st.floats(-300.0, 308.0))
@example(method="dp_gauss", exponent=308.0)  # infinite draws: a log-uniform draw rarely
@example(method="dp_lap", exponent=308.0)  # lands this close to the largest double
def test_any_noise_scale_trains_or_fails_numerically(noise_dir, capsys, method, exponent):
    cfg = {"seed": 1, "data": {"num_classes": 2, "per_class": 6, "per_class_test": 2, "side": 4},
           "fl": {"num_clients": 2, "clients_per_round": 2, "rounds": 1,
                  "defense": {"method": method, "noise_scale": 10.0**exponent}}}
    path, out = noise_dir / "cfg.json", noise_dir / f"out-{method}-{exponent!r}"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["train", "--config", str(path), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert not caught
    assert rc in (0, 3)
    assert all(line.startswith("numerical failure: ") for line in lines) and len(lines) == rc // 3
    if rc == 0:
        rows = (out / "rounds.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(row.split(",")[1])) for row in rows)


ADAPTIVE_FOR = {"none": "none", "svdefense": "defense_replay", "dp_gauss": "eot", "dp_lap": "eot",
                "prune": "prune_mask", "dgp": "prune_mask"}
FLOAT_KEYS = ["fl.local_lr", "fl.dirichlet_alpha", "fl.rho", "fl.defense.beta",
              "fl.defense.noise_scale", "attack.lr"]
RATE_KEYS = {"prune": ["fl.defense.prune_rate"],
             "dgp": ["fl.defense.dgp_small_rate", "fl.defense.dgp_large_rate"]}


LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)


@st.composite
def _runs(draw):
    """(command words, config): a tiny train, attack or sweep run under one
    defense and its own adaptive attacker on 1-2 hidden layers of width 1-4
    (a width of 1 makes thin weight matrices), with 1-2 sweep values and
    each float key either left at its default or drawn log-uniformly from
    1e-300 to 1e300. The data, client and batch sizes are drawn small.
    Rates are drawn only for the defense that reads them: every rate is
    validated, and one above 1 ends the run at the config."""
    method = draw(st.sampled_from(sorted(ADAPTIVE_FOR)))
    small = st.integers(1, 2)
    cfg = {"seed": draw(st.integers(0, 3)),
           "data": {"num_classes": draw(st.integers(2, 4)), "per_class": draw(st.integers(1, 4)),
                    "per_class_test": draw(small), "side": draw(st.integers(4, 6))},
           "model": {"hidden_dims": draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))},
           "fl": {"num_clients": draw(st.integers(1, 4)), "clients_per_round": draw(small),
                  "rounds": draw(small), "local_epochs": draw(small),
                  "local_batch_size": draw(st.integers(1, 3)),
                  "partition_scheme": draw(st.sampled_from(["dirichlet", "rho"])),
                  "defense": {"method": method}},
           "attack": {"adaptive": ADAPTIVE_FOR[method],
                      "distance": draw(st.sampled_from(["l2", "neg_cosine_layerwise"])),
                      "iterations": draw(st.integers(1, 3)), "eot_samples": draw(small),
                      "batch_size": draw(small), "n_examples": draw(small),
                      "restarts": draw(small)}}
    for key in FLOAT_KEYS + RATE_KEYS.get(method, []):
        value = draw(st.none() | LOG_UNIFORM)
        if value is not None:
            *sections, name = key.split(".")
            node = cfg
            for section in sections:
                node = node[section]
            node[name] = value
    command = draw(st.sampled_from(["train", "attack", "sweep"]))
    if command != "sweep":
        return [command], cfg
    values = ",".join(map(repr, draw(st.lists(LOG_UNIFORM, min_size=1, max_size=2))))
    return [command, "--axis", draw(st.sampled_from(cli.SWEEP_AXES)), "--values", values], cfg


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(run=_runs())
def test_any_tiny_run_exits_cleanly(run_dir, capsys, run):
    command, cfg = run
    path, out = run_dir / "cfg.json", run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    path.write_text(json.dumps(cfg))
    rc = cli.main([*command, "--config", str(path), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc in (0, 2, 3)
    assert all(line.startswith(("config error: ", "input error: ", "numerical failure: "))
               for line in lines) and bool(lines) == (rc != 0)
    for written in out.rglob("*.csv"):
        assert "nan" not in written.read_text().lower(), written.name
    if rc == 0 and command[0] != "attack":
        models = list(out.rglob("model.bin"))
        assert models
        for model in models:
            tinynn.load_model(model)  # refuses a non-finite tensor
