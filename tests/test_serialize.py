import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uichan import linalg, serialize
from uichan.bell import Behaviour, chsh_optimal_strategy
from uichan.channels import channel_direct
from uichan.models import (TensorModel, embed_tensor_as_commuting, random_model,
                           random_pvm_family, random_tensor_model)
from uichan.serialize import SchemaError


class TestMatrixRoundTrip:
    def test_matrix_exact(self):
        M = linalg.haar_unitary_from(linalg.rng_from_seed(5), 3)
        back = serialize.matrix_from_json(json.loads(json.dumps(serialize.matrix_to_json(M))))
        assert np.array_equal(M, back)

    def test_vector_exact(self):
        v = linalg.haar_state_vector(linalg.rng_from_seed(6), 5)
        back = serialize.matrix_from_json(json.loads(json.dumps(serialize.matrix_to_json(v))))
        assert back.ndim == 1
        assert np.array_equal(v, back)

    def test_bad_documents(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_json({"dim": 2, "re": [1, 0], "im": [0]})
        with pytest.raises(SchemaError):
            serialize.matrix_from_json({"dim": 2, "re": [1, 0, 0], "im": [0, 0, 0]})
        with pytest.raises(SchemaError):
            serialize.matrix_from_json({"re": [1], "im": [0]})
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SchemaError):
                serialize.matrix_from_json({"dim": 2, "re": [1, 0, 0, 1], "im": [0, bad, 0, 0]})


class TestModelRoundTrip:
    def test_tensor_vector_state(self):
        tm = random_tensor_model(2, 2, 2, 3, seed=7)
        back = serialize.model_from_json(serialize.model_to_json(tm))
        assert back.n == tm.n and back.dA == tm.dA and back.dB == tm.dB
        assert np.array_equal(back.state, tm.state)
        for x in range(2):
            assert np.array_equal(back.U[x], tm.U[x])
            assert np.array_equal(back.V[x], tm.V[x])

    def test_tensor_density_state(self):
        tm = random_tensor_model(2, 1, 2, 2, state="density", seed=8)
        back = serialize.model_from_json(serialize.model_to_json(tm))
        assert back.state.ndim == 2
        assert np.array_equal(back.state, tm.state)

    def test_commuting(self):
        cm = random_model("commuting", 2, 2, 2, 2, seed=9)
        back = serialize.model_from_json(serialize.model_to_json(cm))
        assert back.d == cm.d
        assert np.array_equal(back.U[1], cm.U[1])

    def test_scalar_local_dims(self):
        tm = random_tensor_model(2, 1, 1, 1, seed=10)
        back = serialize.model_from_json(serialize.model_to_json(tm))
        assert back.state.ndim == 1 and back.state.shape == (1,)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            serialize.model_from_json({"kind": "other"})


def rank_deficient_density(rng, d, rank):
    G = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    W = G @ G.conj().T
    return W / np.trace(W).real


def sample_state(kind, d, seed):
    rng = linalg.rng_from_seed(seed)
    if kind == "vector":
        return linalg.haar_state_vector(rng, d)
    if kind == "full-rank":
        return linalg.wishart_density(rng, d)
    return rank_deficient_density(rng, d, 2)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBitExactRoundTrips:
    """Reading back what was written gives the same bits, signed zeros included."""

    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    @pytest.mark.parametrize("state", ["vector", "full-rank", "rank-deficient"])
    def test_model(self, kind, state):
        tm = random_tensor_model(2, 2, 2, 3, seed=14)
        model = TensorModel(n=2, m=2, dA=2, dB=3, state=sample_state(state, 6, 15), U=tm.U, V=tm.V)
        if kind == "commuting":
            model = embed_tensor_as_commuting(model)  # its identity factors hold signed zeros
        text = json.dumps(serialize.model_to_json(model))
        back = serialize.model_from_json(json.loads(text))
        assert type(back) is type(model)
        for name in ("state", "U", "V"):
            assert same_bits(getattr(back, name), getattr(model, name))
        assert json.dumps(serialize.model_to_json(back)) == text

    @pytest.mark.parametrize("state", ["vector", "full-rank", "rank-deficient"])
    def test_strategy(self, state):
        alice = random_pvm_family(3, 2, 3, seed=16)
        bob = random_pvm_family(2, 2, 3, seed=17)  # d < n: one zero projector per setting
        rho = sample_state(state, 6, 18)
        text = json.dumps(serialize.strategy_to_json(alice, bob, rho))
        a2, b2, rho2 = serialize.strategy_from_json(json.loads(text))
        assert same_bits(a2.projectors, alice.projectors)
        assert same_bits(b2.projectors, bob.projectors)
        assert same_bits(rho2, rho)

    def test_signed_zeros_survive_matrix_reading(self):
        M = np.array([[complex(-0.0, -0.0), complex(1.0, -0.0)],
                      [complex(-0.0, 1.0), complex(0.0, 0.0)]])
        assert np.signbit(M.real).sum() == 2 and np.signbit(M.imag).sum() == 2
        back = serialize.matrix_from_json(json.loads(json.dumps(serialize.matrix_to_json(M))))
        assert same_bits(back, M)


class TestChannelAndBehaviour:
    def test_channel_round_trip(self):
        fam = channel_direct(random_tensor_model(2, 2, 2, 2, seed=11))
        back = serialize.channel_from_json(serialize.channel_to_json(fam))
        assert np.array_equal(back.supers, fam.supers)

    def test_ragged_channel_grid(self):
        doc = serialize.channel_to_json(channel_direct(random_tensor_model(2, 2, 2, 2, seed=12)))
        doc["super"][1] = doc["super"][1][:1]
        with pytest.raises(SchemaError):
            serialize.channel_from_json(doc)
        doc["super"] = doc["super"][:1]
        with pytest.raises(SchemaError):
            serialize.channel_from_json(doc)

    def test_behaviour_round_trip(self):
        p = np.full((2, 2, 2, 2), 1.0 / 4)
        b = Behaviour(n=2, m=2, p=p)
        back = serialize.behaviour_from_json(serialize.behaviour_to_json(b))
        assert np.array_equal(back.p, b.p)

    def test_behaviour_with_nan_rejected(self):
        doc = serialize.behaviour_to_json(Behaviour(n=2, m=2, p=np.full((2, 2, 2, 2), 0.25)))
        doc["p"][0][1][1][0] = float("nan")
        with pytest.raises(SchemaError):
            serialize.behaviour_from_json(doc)

    def test_table_shared_schema(self):
        doc = {"n": 2, "m": 2, "p": np.zeros((2, 2, 2, 2)).tolist()}
        t = serialize.table_from_json(doc)
        assert t.shape == (2, 2, 2, 2)
        with pytest.raises(SchemaError):
            serialize.table_from_json({"n": 2, "m": 2, "p": [[0.0]]})
        doc["p"][1][0][1][1] = float("nan")
        with pytest.raises(SchemaError):
            serialize.table_from_json(doc)


class TestStrategy:
    def test_round_trip(self):
        alice, bob, psi = chsh_optimal_strategy()
        doc = serialize.strategy_to_json(alice, bob, psi)
        a2, b2, psi2 = serialize.strategy_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(psi2, psi)
        for x in range(2):
            for a in range(2):
                assert np.array_equal(a2.projectors[x][a], alice.projectors[x][a])
                assert np.array_equal(b2.projectors[x][a], bob.projectors[x][a])


class TestDumps:
    def test_deterministic(self):
        doc = serialize.model_to_json(random_tensor_model(2, 1, 2, 2, seed=12))
        assert serialize.dumps(doc) == serialize.dumps(doc)

    @pytest.mark.parametrize("indent", [None, 0, 1, 2, 4])
    def test_document_around_payload_text(self, indent):
        # the manifest is made after the payload, from the digest of the payload's own text
        payload = {"text": "two\nlines", "rows": [[1.5, -0.0], []], "empty": {},
                   "long": [0.25] * (serialize.FLOAT_SLICE + 1)}
        digests = []

        def manifest(payload_sha256):
            digests.append(payload_sha256)
            return {"command": "x", "config": {"seed": None}, "payload_sha256": payload_sha256}

        text = "".join(serialize.document_pieces(payload, manifest, indent))
        want = hashlib.sha256(json.dumps(payload, indent=indent).encode()).hexdigest()
        assert digests == [want]
        assert text == json.dumps({"payload": payload, "manifest": manifest(want)}, indent=indent)

    def test_digests(self, tmp_path):
        path = tmp_path / "blob"
        data = np.random.default_rng(0).bytes(3 * (1 << 20) + 12345)  # over 1 MiB, not a multiple
        path.write_bytes(data)
        assert serialize.sha256_file(str(path)) == hashlib.sha256(data).hexdigest()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e300, -1e300, 1e-300, -1e-300]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
STRINGS = st.one_of(st.text(max_size=8), st.sampled_from(["a\nb", 'say "hi"', "ünïcødé ✓"]))
SCALARS = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), STRINGS)
KEYS = st.one_of(STRINGS, st.integers(), FLOATS, st.booleans(), st.none())
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, st.lists(FLOATS, max_size=6), st.lists(FLOATS.map(np.float64), max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(STRINGS, inner, max_size=4),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=16)


class TestDumpsEqualsJson:
    """``dumps`` against ``json.dumps`` itself, not against an earlier ``dumps``."""

    @settings(max_examples=400, deadline=None)
    @given(doc=DOCUMENTS, indent=st.sampled_from([None, 0, 1, 2, 4]))
    def test_byte_identical(self, doc, indent):
        assert serialize.dumps(doc, indent) == json.dumps(doc, indent=indent, allow_nan=False)

    @pytest.mark.parametrize("indent", [None, 0, 1, 2, 4])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises(self, indent, bad):
        beyond_a_piece = [0.5] * (3 * serialize.FLOAT_SLICE + 7)
        beyond_a_piece[2 * serialize.FLOAT_SLICE + 1] = bad
        for doc in (bad, [bad], [0.5, bad, -1.0], {"p": [[0.25, bad]]}, (bad, 1.0),
                    beyond_a_piece):
            with pytest.raises(ValueError):
                serialize.dumps(doc, indent)
