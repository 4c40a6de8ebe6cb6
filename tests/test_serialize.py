import hashlib
import json
import re
import time

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

from oracles import behaviour_from_json


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
        back = behaviour_from_json(serialize.behaviour_to_json(b))
        assert np.array_equal(back.p, b.p)

    def test_behaviour_with_nan_rejected(self):
        doc = serialize.behaviour_to_json(Behaviour(n=2, m=2, p=np.full((2, 2, 2, 2), 0.25)))
        doc["p"][0][1][1][0] = float("nan")
        with pytest.raises(SchemaError):
            behaviour_from_json(doc)

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
        # the digest is of the bytes that were parsed, here a few MB of them
        path = tmp_path / "blob.json"
        data = json.dumps({"p": np.random.default_rng(0).standard_normal(150_000).tolist()},
                          indent=1).encode()
        path.write_bytes(data)
        doc, digest = serialize.read_json(str(path))
        assert digest == hashlib.sha256(data).hexdigest()
        assert doc == json.loads(data)


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


def float_corpus():
    """Finite doubles: 200,000 random bit patterns and the edges of ``repr``'s two forms.

    The edges are the ulp neighbours of 1e-4 and 1e16, where ``repr`` switches
    between plain and exponent form, of the smallest and largest doubles,
    every power of 2 and of 10, and every integer within +-1e5, each with both signs.
    """
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False).view(float)
    edges = []
    for x in (1e-4, 1e16, 5e-324, np.finfo(float).max):
        edges.append(x)
        for toward in (0.0, np.inf):
            step = x
            for _ in range(8):  # past the largest double it steps to inf, dropped below
                with np.errstate(over="ignore"):
                    step = np.nextafter(step, toward)
                edges.append(step)
    powers = [2.0 ** k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    edges = np.concatenate([edges, powers, np.arange(-100_000, 100_001, dtype=float)])
    corpus = np.concatenate([bits, edges, -edges])
    return corpus[np.isfinite(corpus)].tolist()


class TestFloatTextEqualsJson:
    """``orjson`` writes the digits and ``repr`` the exponent forms: the text is ``json``'s."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return float_corpus()

    @pytest.mark.parametrize("indent", [2, None])
    def test_dumps(self, corpus, indent):
        if serialize.dumps(corpus, indent) != json.dumps(corpus, indent=indent):
            pairs = zip(corpus, serialize.dumps(corpus, None)[1:-1].split(", "))
            wrong = [(x, text) for x, text in pairs if text != repr(x)]
            pytest.fail(f"{len(wrong)} floats are not written as json writes them: {wrong[:5]}")

    def test_reader_reads_json_bits(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        text = json.dumps({"p": corpus}, indent=2)
        path.write_text(text)
        doc, _ = serialize.read_json(str(path))
        assert same_bits(np.array(doc["p"]), np.array(json.loads(text)["p"]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises_before_a_piece(self, corpus, bad):
        payload = {"p": corpus[:3 * serialize.FLOAT_SLICE] + [bad]}  # in the list's last slice
        with pytest.raises(ValueError) as expected:
            json.dumps(bad, allow_nan=False)
        with pytest.raises(ValueError) as raised:
            serialize.document_pieces(payload, lambda digest: {})  # the call, not its pieces
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError):
            serialize.dumps(payload["p"])


class TestReadJson:
    def test_nesting_limit(self, tmp_path):
        path, depth = tmp_path / "nested.json", serialize.MAX_NESTING
        for opener, closer in (("[", "]"), ('{"a": ', "}")):
            path.write_text(opener * depth + "1" + closer * depth)
            serialize.read_json(str(path))
            path.write_text(opener * (depth + 1) + "1" + closer * (depth + 1))
            with pytest.raises(SchemaError, match=re.escape(
                    f"{path} nests arrays and objects deeper than {depth} levels")):
                serialize.read_json(str(path))

    def test_many_shallow_brackets_read(self, tmp_path):
        # more brackets than the limit, none deep, brackets and escaped quotes in strings
        path = tmp_path / "shallow.json"
        doc = {"rows": [[k, "[{" * 3, '\\"]]'] for k in range(3000)], "]": "[" * 5000}
        path.write_text(json.dumps(doc))
        assert serialize.read_json(str(path))[0] == doc

    def test_closers_in_a_string_hide_no_depth(self, tmp_path):
        # counted, the 3000 "]" of the string would cancel the 2000 openers that follow
        path = tmp_path / "hidden.json"
        path.write_text('["' + "]" * 3000 + '", ' + '{"a": ' * 2000 + "1" + "}" * 2000 + "]")
        with pytest.raises(SchemaError, match="nests arrays and objects deeper than"):
            serialize.read_json(str(path))

    @pytest.mark.parametrize("escape", ["\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u005c",
                                        "\\\\", '\\"'])
    def test_a_string_ending_in_an_escape_hides_no_depth(self, tmp_path, escape):
        # read as a quote's escape, the string's closing quote would hide the 1025 levels
        path = tmp_path / "escape.json"
        depth = serialize.MAX_NESTING
        path.write_text('["x' + escape + '", ' + "[" * depth + "]" * depth + "]")
        with pytest.raises(SchemaError, match="nests arrays and objects deeper than"):
            serialize.read_json(str(path))
        path.write_text('["x' + escape + '", ' + "[" * (depth - 1) + "]" * (depth - 1) + "]")
        assert serialize.read_json(str(path))[0][0] == json.loads('"x' + escape + '"')

    @pytest.mark.parametrize("openers", [10, 1100], ids=["shallow", "deep"])
    def test_unclosed_string_of_escaped_quotes_is_refused_at_once(self, tmp_path, openers):
        # a string cut that fails at each '"' and rescans to the end takes minutes on this file
        path = tmp_path / "unclosed.json"
        path.write_bytes(b"[" * openers + b'"' + b'\\"' * 500_000)
        start = time.perf_counter()
        with pytest.raises(SchemaError, match="is not valid JSON" if openers < 1024 else
                           "nests arrays and objects deeper than"):
            serialize.read_json(str(path))
        assert time.perf_counter() - start < 5

    def test_deep_objects_are_refused_before_parsing(self, tmp_path):
        # orjson 3.8 has no depth limit: 100,000 nested objects end it with a segmentation fault
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' * 100_000 + "1" + "}" * 100_000)
        with pytest.raises(SchemaError, match="nests arrays and objects deeper than"):
            serialize.read_json(str(path))
