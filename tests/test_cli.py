import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
import warnings
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from uichan import bell, channels, cli, linalg, models, seesaw, serialize
from uichan.cli import MAX_JSON_INDENT, main
from uichan.models import (CommutingModel, TensorModel, embed_tensor_as_commuting,
                           random_tensor_model)

from oracles import anti_hermitian_choi_channel, behaviour_from_json

CHSH_OPTIMUM = (2 + np.sqrt(2)) / 4


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_payload(path):
    with open(path) as fh:
        return json.load(fh)["payload"]


def write_haar_v(doc, path, seed=0):
    """Write a commuting model document with V[0] replaced by a Haar unitary on (H, B').

    As in the benchmark's Haar probe the model stays unitary, but the entries
    of that V no longer commute with those of U.
    """
    haar = linalg.haar_unitary_from(linalg.rng_from_seed(seed), doc["n"] * doc["d"])
    path.write_text(json.dumps(dict(doc, V=[serialize.matrix_to_json(haar), *doc["V"][1:]])))
    return path


def failed_checks(report):
    return [c["name"] for c in read_payload(report)["checks"] if not c["pass"]]


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    assert main(["gen", "--kind", "tensor", "--n", "2", "--m", "2",
                 "--dA", "2", "--dB", "2", "--seed", "7", "-o", str(path)]) == 0
    return path


class TestGenAndVerify:
    def test_fresh_model_verifies(self, model_path, tmp_path):
        report = tmp_path / "report.json"
        assert main(["verify", "-i", str(model_path), "-o", str(report)]) == 0
        doc = read_payload(report)
        assert doc["pass"]
        names = {c["name"] for c in doc["checks"]}
        assert {"unitarity", "dual_formula", "choi_psd", "trace_preserving",
                "embedding_invariance"} <= names

    def test_commuting_model_verifies_commutation(self, tmp_path):
        path = tmp_path / "cm.json"
        report = tmp_path / "rep.json"
        assert main(["gen", "--kind", "commuting", "--seed", "3", "-o", str(path)]) == 0
        assert main(["verify", "-i", str(path), "-o", str(report)]) == 0
        names = {c["name"] for c in read_payload(report)["checks"]}
        assert "commutation" in names

    def test_commutator_measured_once_per_verify(self, tmp_path, monkeypatch):
        # a tensor verify embeds its model, whose commutator is 0 by construction; a model
        # file forms each of its 4 m^2 entry products once, and a failed check is located
        # from the same measurement
        m = 2
        paths = {kind: tmp_path / f"{kind}.json" for kind in ("tensor", "commuting")}
        for kind, path in paths.items():
            assert main(["gen", "--kind", kind, "--n", "2", "--m", str(m), "--dA", "2",
                         "--dB", "3", "--seed", "5", "-o", str(path)]) == 0
        paths["haar"] = write_haar_v(read_payload(paths["commuting"]), tmp_path / "haar.json")
        calls = []
        original = models._entry_products
        monkeypatch.setattr(models, "_entry_products",
                            lambda *a: calls.append(a) or original(*a))
        report = tmp_path / "report.json"
        for kind, rc, products in (("tensor", 0, 0), ("commuting", 0, 4 * m * m),
                                   ("haar", 1, 4 * m * m)):
            calls.clear()
            assert main(["verify", "-i", str(paths[kind]), "-o", str(report)]) == rc
            assert len(calls) == products, kind
        assert failed_checks(report) == ["commutation"]

    def test_file_cannot_borrow_the_embeddings_zero(self, tmp_path):
        # the embedding carries its commutator 0 in memory only; its file is measured again
        doc = serialize.model_to_json(embed_tensor_as_commuting(random_tensor_model(2, 2, 2, 2,
                                                                                    seed=4)))
        plain, report = tmp_path / "plain.json", tmp_path / "report.json"
        plain.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(plain), "-o", str(report)]) == 0
        checks = {c["name"]: c for c in read_payload(report)["checks"]}
        assert checks["commutation"]["defect"] == 0.0
        haar = write_haar_v(doc, tmp_path / "haar.json")
        assert main(["verify", "-i", str(haar), "-o", str(report)]) == 1
        assert failed_checks(report) == ["commutation"]

    @pytest.mark.parametrize("n, m, dA, dB", [(3, 3, 3, 2), (2, 2, 8, 8)])
    def test_measured_embedding_commutes_exactly(self, tmp_path, n, m, dA, dB):
        # a model file measures its commutators; the real-stacked entry products round
        # u_ij v_kl and v_kl u_ij alike, where a complex product leaves ~1e-16 at (3, 3, 3, 2)
        path, report = tmp_path / "cm.json", tmp_path / "report.json"
        assert main(["gen", "--kind", "commuting", "--n", str(n), "--m", str(m), "--dA", str(dA),
                     "--dB", str(dB), "-o", str(path)]) == 0
        assert main(["verify", "-i", str(path), "-o", str(report)]) == 0
        checks = {c["name"]: c for c in read_payload(report)["checks"]}
        assert checks["commutation"]["defect"] == 0.0 and checks["dual_formula"]["pass"]

    def test_corrupted_unitary_fails(self, model_path, tmp_path):
        doc = read_payload(model_path)
        doc["U"][0]["re"][0] += 0.1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(bad)]) == 1

    def test_nan_entry_exit_2(self, model_path, tmp_path, capsys):
        doc = read_payload(model_path)
        doc["U"][0]["re"][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(bad), "-o", str(tmp_path / "report.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_overflowing_entries_record_null_defect(self, model_path, tmp_path, capsys):
        # finite entries whose products overflow give a NaN unitarity defect
        doc = read_payload(model_path)
        doc["U"][0]["re"] = [1e200] * len(doc["U"][0]["re"])
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        with np.errstate(all="ignore"):
            assert main(["verify", "-i", str(bad), "-o", str(report)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        payload = read_payload(report)
        unitarity = next(c for c in payload["checks"] if c["name"] == "unitarity")
        assert unitarity["defect"] is None and unitarity["pass"] is False
        assert not payload["pass"]
        assert payload["skipped"] == ["dual_formula", "choi_psd", "trace_preserving",
                                      "embedding_invariance"]

    @pytest.mark.parametrize("kind, field, expected", [
        ("commuting", ("V", 1), ["verify: unitarity failed: worst ||M^dag M - I||_F nan at "
                                 "stored V (setting y=2, 1-based labels)",
                                 "verify: commutation failed: worst ||[u_ij, v_kl]||_F inf at "
                                 "(i, j)=(1, 1), (k, l)=(1, 1) (setting pair x=1, y=2, "
                                 "1-based labels)"]),
        ("tensor", ("U", 0), ["verify: unitarity failed: worst ||M^dag M - I||_F nan at "
                              "stored U (setting x=1, 1-based labels)"]),
    ])
    def test_huge_entries_warn_nothing(self, tmp_path, capsys, kind, field, expected):
        # overflowing defects fail their checks; stderr holds the failure lines and no numpy noise
        path = tmp_path / "model.json"
        assert main(["gen", "--kind", kind, "--n", "2", "--m", "2", "--dA", "8", "--dB", "8",
                     "-o", str(path)]) == 0
        doc = read_payload(path)
        name, x = field
        doc[name][x]["re"][0] = 1e200
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "-i", str(path), "-o", str(tmp_path / "report.json")]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == expected

    @pytest.mark.parametrize("indent", [2, -1, 0, 1, 4])
    def test_output_is_the_dumped_document(self, model_path, tmp_path, indent):
        # against json.dumps itself: the file and the digested payload text
        model3 = tmp_path / "model3.json"
        assert main(["gen", "--n", "3", "--seed", "2", "-o", str(model3)]) == 0
        for argv in (["verify", "-i", str(model_path)], ["channel", "-i", str(model3)],
                     ["seesaw", "--preset", "chsh"]):
            out = tmp_path / "out.json"
            assert main(argv + ["--json-indent", str(indent), "-o", str(out)]) == 0
            text = out.read_text()
            doc = json.loads(text)
            json_indent = indent if indent >= 0 else None
            expected = json.dumps({"payload": doc["payload"], "manifest": doc["manifest"]},
                                  indent=json_indent) + "\n"
            # digests, not texts: pytest's diff of two unequal MB-long strings takes minutes
            assert sha256(text) == sha256(expected), argv
            assert doc["manifest"]["payload_sha256"] == sha256(
                json.dumps(doc["payload"], indent=json_indent))

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_tol_exit_2(self, model_path, tmp_path, capsys, tol):
        # the tolerance is written into the payload, which JSON cannot hold if it is not finite
        for argv in (["verify", "-i", str(model_path)], ["pipeline", "--preset", "chsh"],
                     ["swap-demo", "--n", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + [f"--tol={tol}", "-o", str(tmp_path / "out.json")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--tol: must be a finite number" in err and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_tol_only_on_commands_that_read_it(self, model_path, tmp_path, capsys):
        # verify, pipeline and swap-demo take --tol; the other commands have no tolerance to set
        for argv in (["gen"], ["channel", "-i", str(model_path)], ["bell", "-i", str(model_path)],
                     ["bell-direct", "--preset", "chsh"], ["seesaw", "--preset", "chsh"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tol", "1", "-o", str(tmp_path / "out.json")])
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert "unrecognized arguments: --tol 1" in err and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_out_of_range_numbers_exit_2(self, tmp_path, capsys):
        # a non-finite --rel-tol never converges and cannot go into the manifest;
        # a negative dimension used to reach numpy
        out = tmp_path / "out.json"
        for argv in (["seesaw", "--preset", "chsh", "--rel-tol", "nan"],
                     ["seesaw", "--preset", "chsh", "--rel-tol", "inf"],
                     ["gen", "--dA", "-1"], ["gen", "--n", "-2"]):
            try:
                code = main(argv + ["-o", str(out)])
            except SystemExit as exc:
                code = exc.code
            assert code == 2, argv
            assert "Traceback" not in capsys.readouterr().err
            assert not out.exists()
        # Philox takes no negative seed; 10**20 spaces overflow, and a large indent pads every line
        for argv, message in (
                (["gen", "--seed", "-1"], "--seed: must be a non-negative integer"),
                (["seesaw", "--preset", "chsh", "--seed", "-1"], "--seed: must be a non-negative"),
                (["swap-demo", "--seed", "-1"], "--seed: must be a non-negative integer"),
                (["gen", "--json-indent", str(10**20)], f"--json-indent: must be an integer of "
                                                        f"at most {MAX_JSON_INDENT}"),
                (["gen", "--json-indent", str(MAX_JSON_INDENT + 1)], "--json-indent: must be")):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["-o", str(out)])
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, argv
            assert not out.exists()

    def test_cptp_tolerances_are_the_channels_bounds(self, model_path, tmp_path):
        report = tmp_path / "report.json"
        assert main(["verify", "-i", str(model_path), "-o", str(report)]) == 0
        tolerance = {c["name"]: c["tolerance"] for c in read_payload(report)["checks"]}
        assert tolerance["choi_psd"] == channels.CP_TOL
        assert tolerance["trace_preserving"] == channels.TP_TOL

    def test_unitarity_verdict_matches_model_check(self, tmp_path):
        # n = 2, dA = 1, dB = 4: the tolerance is tol(8) of the 8 x 8 V, not tol(n dA) = tol(2)
        tm = random_tensor_model(2, 1, 1, 4, seed=3)
        tm = TensorModel(n=2, m=1, dA=1, dB=4, state=tm.state, U=tm.U, V=tm.V * (1 + 1e-10))
        assert linalg.tol(2) < tm.checks()[0].defect <= linalg.tol(8)
        tm.check()
        path, report = tmp_path / "model.json", tmp_path / "report.json"
        path.write_text(json.dumps(serialize.model_to_json(tm)))
        # the scaled V leaks trace at 2e-10, so verify still fails on trace_preserving
        main(["verify", "-i", str(path), "-o", str(report)])
        unitarity = next(c for c in read_payload(report)["checks"] if c["name"] == "unitarity")
        assert unitarity["pass"] and unitarity["tolerance"] == tm.tolerance == linalg.tol(8)
        assert main(["channel", "-i", str(path), "-o", str(tmp_path / "channel.json")]) == 0

    def test_tol_is_applied_before_the_channel_gate(self, model_path, tmp_path, capsys):
        # no model defect is within 1e-30, so the channel checks are skipped, not run
        report = tmp_path / "report.json"
        assert main(["verify", "-i", str(model_path), "--tol", "1e-30", "-o", str(report)]) == 1
        payload = read_payload(report)
        assert payload["skipped"] == ["dual_formula", "choi_psd", "trace_preserving",
                                      "embedding_invariance"]
        assert [c["name"] for c in payload["checks"]] == ["unitarity", "state"]
        assert all(c["tolerance"] == 1e-30 for c in payload["checks"])
        assert capsys.readouterr().err.startswith("verify: unitarity failed: worst ||M^dag M")

    def test_loose_tol_does_not_excuse_the_model_from_its_own_check(self, tmp_path, capsys):
        # --tol 1 lets the model checks pass, but the channel routes check the model at its own
        # tolerance first: a U off by 1e-3 is an input error (2), not a failed check (1)
        path, report = tmp_path / "model.json", tmp_path / "report.json"
        assert main(["gen", "--seed", "3", "-o", str(path)]) == 0
        doc = read_payload(path)
        doc["U"][0]["re"][1] += 1e-3
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "-i", str(path), "--tol", "1", "-o", str(report)]) == 2
        assert capsys.readouterr().err == ("error: TensorModel: unitarity failed: worst "
                                           "||M^dag M - I||_F 1.260e-03 at stored U "
                                           "(setting x=1, 1-based labels)\n")
        assert not report.exists()

    @pytest.mark.parametrize("flaw", ["not_utf8", "deeply_nested"])
    @pytest.mark.parametrize("argv", [["verify", "-i"], ["channel", "-i"], ["bell", "-i"],
                                      ["bell-direct", "-i"], ["seesaw", "-f"],
                                      ["pipeline", "--preset", "chsh", "-i"],
                                      ["pipeline", "--preset", "chsh", "-f"]])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, argv, flaw):
        bad = tmp_path / "bad.json"
        if flaw == "not_utf8":
            bad.write_bytes(b"\xff" + b"{}")
        else:
            bad.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out.json"
        assert main(argv + [str(bad), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("document", ["model", "strategy", "channel", "table", "matrix"])
    def test_size_fields_must_be_json_integers(self, tmp_path, capsys, document):
        # 2.9 and "2" used to be read as 2, and true as 1
        tm = random_tensor_model(2, 2, 2, 2, seed=5)
        docs = {
            "model": (["verify", "-i"], serialize.model_to_json(tm), ["n", "m", "dA", "dB"]),
            "strategy": (["bell-direct", "-i"],
                         serialize.strategy_to_json(*bell.chsh_optimal_strategy()),
                         ["n", "m", "dA", "dB"]),
            "channel": (["bell", "-i"], serialize.channel_to_json(channels.channel_direct(tm)),
                        ["n", "m"]),
            "table": (["seesaw", "--restarts", "1", "-f"],
                      {"n": 2, "m": 2, "p": bell.chsh_functional().tolist()}, ["n", "m"]),
            "matrix": (["verify", "-i"], serialize.model_to_json(tm), ["dim"]),
        }
        argv, doc, fields = docs[document]
        commuting = serialize.model_to_json(embed_tensor_as_commuting(tm))
        cases = [(doc, field) for field in fields] + [(commuting, "d")] * (document == "model")
        out = tmp_path / "out.json"
        for k, (base, field) in enumerate(cases):
            for value in (2.9, "2", True):
                broken = json.loads(json.dumps(base))
                (broken["U"][0] if field == "dim" else broken)[field] = value
                bad = tmp_path / f"bad-{k}-{value!r}.json"  # its own file: no truncating rewrite
                bad.write_text(json.dumps(broken))
                assert main(argv + [str(bad), "-o", str(out)]) == 2, (field, value)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and len(err.splitlines()) == 1, err
                assert f"{field} must be a JSON integer, got {value!r}" in err
                assert not out.exists()

    def test_parse_error_exit_2(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["verify", "-i", str(garbage)]) == 2
        assert main(["verify", "-i", str(tmp_path / "missing.json")]) == 2

    def test_payloads_byte_identical_across_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--kind", "tensor", "--seed", "41"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        with open(a) as fa, open(b) as fb:
            da, db = json.load(fa), json.load(fb)
        assert json.dumps(da["payload"]) == json.dumps(db["payload"])
        assert da["manifest"]["payload_sha256"] == db["manifest"]["payload_sha256"]

    def test_manifest_carries_inputs_and_version(self, model_path, tmp_path):
        out = tmp_path / "channel.json"
        assert main(["channel", "-i", str(model_path), "-o", str(out)]) == 0
        with open(out) as fh:
            manifest = json.load(fh)["manifest"]
        assert manifest["command"] == "channel"
        assert manifest["inputs"]["model"]["path"] == str(model_path)
        assert len(manifest["inputs"]["model"]["sha256"]) == 64
        assert manifest["version"]


def perturbed(family, x, y, row, col, by=1e-3):
    supers = np.array(family.supers)
    supers[x, y, row, col] += by
    return channels.ChannelFamily(n=family.n, m=family.m, supers=supers)


class TestVerifyNamesWhereARouteCheckFailed:
    def run(self, model_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "-i", str(model_path), "-o", str(report)])
        payload = read_payload(report)
        # the location goes to stderr only: the payload keeps its keys
        assert set(payload) == {"checks", "skipped", "pass"}
        assert all(set(c) == {"name", "defect", "tolerance", "pass"} for c in payload["checks"])
        return rc, {c["name"]: c for c in payload["checks"]}, capsys.readouterr().err

    def test_passing_run_is_silent(self, model_path, tmp_path, capsys):
        rc, _, err = self.run(model_path, tmp_path, capsys)
        assert rc == 0 and err == ""

    def test_dual_formula(self, model_path, tmp_path, capsys, monkeypatch):
        from_moments = channels.channel_from_moments
        monkeypatch.setattr(channels, "channel_from_moments",
                            lambda *a, **k: perturbed(from_moments(*a, **k), 1, 0, 3, 5))
        rc, checks, err = self.run(model_path, tmp_path, capsys)
        assert rc == 1
        assert not checks["dual_formula"]["pass"] and checks["embedding_invariance"]["pass"]
        assert abs(checks["dual_formula"]["defect"] - 1e-3) <= 1e-12
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verify: dual_formula failed")
        assert "supers[1, 0][3, 5]" in lines[0] and "x=2, y=1" in lines[0]

    def test_embedding_invariance(self, model_path, tmp_path, capsys, monkeypatch):
        direct = channels.channel_direct

        def embedded_off(model, **kwargs):
            family = direct(model, **kwargs)
            return perturbed(family, 0, 1, 7, 2) if isinstance(model, CommutingModel) else family

        monkeypatch.setattr(channels, "channel_direct", embedded_off)
        rc, checks, err = self.run(model_path, tmp_path, capsys)
        assert rc == 1
        assert checks["dual_formula"]["pass"] and not checks["embedding_invariance"]["pass"]
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verify: embedding_invariance failed")
        assert "supers[0, 1][7, 2]" in lines[0] and "x=1, y=2" in lines[0]

    def test_trace_preserving_on_a_model_its_own_check_accepts(self, tmp_path, capsys):
        # V scaled by 1 + 1e-10 stays within tol(8), but each trace grows by 2e-10 > TP_TOL
        path = tmp_path / "model.json"
        assert main(["gen", "--n", "2", "--m", "1", "--dA", "1", "--dB", "4",
                     "-o", str(path)]) == 0
        doc = read_payload(path)
        for matrix in doc["V"]:
            matrix["re"] = [v * (1 + 1e-10) for v in matrix["re"]]
            matrix["im"] = [v * (1 + 1e-10) for v in matrix["im"]]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc, checks, err = self.run(path, tmp_path, capsys)
        assert rc == 1 and [name for name, c in checks.items() if not c["pass"]] == [
            "trace_preserving"]
        # the four diagonal traces part in their last bits; the first largest is named
        S = channels.channel_direct(serialize.model_from_json(doc)).supers[0, 0]
        traces = np.array([np.trace(S[:, col].reshape(4, 4)) for col in range(16)])
        a, b = divmod(int(np.argmax(np.abs(traces - np.eye(4).ravel()))), 4)
        assert err == (f"verify: trace_preserving failed: worst |Tr L(E_ab) - delta_ab| 2.000e-10 "
                       f"at (a, b)=({a + 1}, {b + 1}) (setting pair x=1, y=1, 1-based labels)\n")
        assert a == b

    def test_embedding_inherits_the_records_of_the_model_it_embeds(self, tmp_path, capsys):
        # U scaled by 1 + 2e-10 stays within tol(8); U x I on the d = 4 embedding measures
        # twice that defect, over the same tol(8), and used to end verify with exit 2
        path = tmp_path / "model.json"
        assert main(["gen", "--n", "2", "--m", "1", "--dA", "1", "--dB", "4",
                     "-o", str(path)]) == 0
        doc = read_payload(path)
        for matrix in doc["U"]:
            matrix["re"] = [v * (1 + 2e-10) for v in matrix["re"]]
            matrix["im"] = [v * (1 + 2e-10) for v in matrix["im"]]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc, checks, err = self.run(path, tmp_path, capsys)
        assert 2e-10 < checks["unitarity"]["defect"] <= checks["unitarity"]["tolerance"]
        assert checks["embedding_invariance"]["pass"]
        assert rc == 1 and [name for name, c in checks.items() if not c["pass"]] == [
            "trace_preserving"]
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verify: trace_preserving failed:")

    def test_choi_psd_and_trace_preserving(self, model_path, tmp_path, capsys, monkeypatch):
        # a negated member is neither CP nor TP: each failed check gets one line, in payload order
        direct = channels.channel_direct

        def negated(model, **kwargs):
            supers = np.array(direct(model, **kwargs).supers)
            supers[1, 0] *= -1
            return channels.ChannelFamily(n=model.n, m=model.m, supers=supers)

        monkeypatch.setattr(channels, "channel_direct", negated)
        rc, checks, err = self.run(model_path, tmp_path, capsys)
        lines = err.splitlines()
        assert rc == 1 and [line.split(" failed: ")[0] for line in lines] == [
            "verify: dual_formula", "verify: choi_psd", "verify: trace_preserving"]
        assert lines[1].startswith("verify: choi_psd failed: least Choi eigenvalue -")
        assert f"{-checks['choi_psd']['defect']:.3e} (setting pair x=2, y=1," in lines[1]
        assert lines[2].startswith("verify: trace_preserving failed: worst |Tr L(E_ab) - "
                                   "delta_ab| 2.000e+00 at (a, b)=(")
        assert lines[2].endswith("(setting pair x=2, y=1, 1-based labels)")

    def test_commutation(self, tmp_path, capsys):
        path = tmp_path / "cm.json"
        assert main(["gen", "--kind", "commuting", "--n", "2", "--m", "2", "--dA", "2",
                     "--dB", "2", "--seed", "3", "-o", str(path)]) == 0
        haar = write_haar_v(read_payload(path), tmp_path / "haar.json")
        rc, checks, err = self.run(haar, tmp_path, capsys)
        assert rc == 1 and not checks["commutation"]["pass"]
        # the worst entry pair, one pair at a time with complex products
        cm = serialize.model_from_json(json.loads(haar.read_text()))
        worst = max((float(np.linalg.norm(a @ b - b @ a)), x, y, dagger, i, j, k, l)
                    for x, y, dagger in np.ndindex(cm.m, cm.m, 2)
                    for i, j, k, l in np.ndindex(cm.n, cm.n, cm.n, cm.n)
                    for a, b in [((cm.u_blocks(x)[i, j].conj().T if dagger
                                   else cm.u_blocks(x)[i, j]), cm.v_blocks(y)[k, l])])
        norm, x, y, dagger, i, j, k, l = worst
        assert abs(checks["commutation"]["defect"] - norm) <= 1e-12 * norm
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verify: commutation failed: worst ||[")
        assert f"{checks['commutation']['defect']:.3e} at" in lines[0]
        assert ("u_ij^dag" in lines[0]) == bool(dagger)
        assert f"(i, j)=({i + 1}, {j + 1}), (k, l)=({k + 1}, {l + 1})" in lines[0]
        assert f"x={x + 1}, y={y + 1}" in lines[0]

    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    @pytest.mark.parametrize("name, x", [("U", 1), ("V", 0)])
    def test_unitarity(self, tmp_path, capsys, kind, name, x):
        path = tmp_path / "model.json"
        assert main(["gen", "--kind", kind, "--seed", "3", "-o", str(path)]) == 0
        doc = read_payload(path)
        doc[name][x]["re"][1] += 1e-3
        path.write_text(json.dumps(doc))
        rc, checks, err = self.run(path, tmp_path, capsys)
        assert rc == 1 and not checks["unitarity"]["pass"] and checks["state"]["pass"]
        label = "y" if name == "V" else "x"
        assert err.splitlines()[0] == (
            f"verify: unitarity failed: worst ||M^dag M - I||_F "
            f"{checks['unitarity']['defect']:.3e} at stored {name} "
            f"(setting {label}={x + 1}, 1-based labels)")

    def test_unitarity_nan_counts_as_largest(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "model.json"
        assert main(["gen", "--m", "3", "--seed", "3", "-o", str(path)]) == 0
        defects = np.array([[0.0, 5.0, 0.0], [np.nan, 0.0, np.nan]])
        monkeypatch.setattr(TensorModel, "_unitarity_by_matrix", property(lambda self: defects))
        rc, checks, err = self.run(path, tmp_path, capsys)
        assert rc == 1 and checks["unitarity"]["defect"] is None
        assert err == ("verify: unitarity failed: worst ||M^dag M - I||_F nan at stored V "
                       "(setting y=1, 1-based labels)\n")

    def test_state(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert main(["gen", "--state", "density", "--seed", "3", "-o", str(path)]) == 0
        doc = read_payload(path)
        doc["state"]["matrix"]["re"][0] += 1e-3  # the trace is off by 1e-3
        path.write_text(json.dumps(doc))
        rc, checks, err = self.run(path, tmp_path, capsys)
        assert rc == 1 and checks["unitarity"]["pass"] and not checks["state"]["pass"]
        state = checks["state"]
        assert err == (f"verify: state failed: defect {state['defect']:.3e} exceeds tolerance "
                       f"{state['tolerance']:.3e}\n")

    def test_commutation_nan_counts_as_largest(self, tmp_path, capsys, monkeypatch):
        # the first NaN norm is named even after a larger finite one
        path = tmp_path / "cm.json"
        assert main(["gen", "--kind", "commuting", "--seed", "3", "-o", str(path)]) == 0
        norms = np.zeros((2, 2, 2, 4, 4))
        norms[0, 0, 0, 0, 0] = 5.0
        norms[1, 1, 0, 2, 3] = norms[1, 1, 1, 0, 0] = np.nan
        monkeypatch.setattr(CommutingModel, "_commutator_norms", property(lambda self: norms))
        rc, checks, err = self.run(path, tmp_path, capsys)
        assert rc == 1 and checks["commutation"]["defect"] is None
        assert err == ("verify: commutation failed: worst ||[u_ij^dag, v_kl]||_F nan at "
                       "(i, j)=(2, 1), (k, l)=(2, 2) (setting pair x=2, y=1, 1-based labels)\n")


class TestChannelCommand:
    def test_methods_agree(self, model_path, tmp_path):
        d_path, m_path = tmp_path / "direct.json", tmp_path / "moments.json"
        assert main(["channel", "-i", str(model_path), "-o", str(d_path)]) == 0
        assert main(["channel", "-i", str(model_path), "--method", "moments",
                     "-o", str(m_path)]) == 0
        cd = serialize.channel_from_json(read_payload(d_path))
        cm = serialize.channel_from_json(read_payload(m_path))
        assert np.max(np.abs(cd.supers - cm.supers)) <= 1e-10

    def test_audit_flag(self, model_path, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["channel", "-i", str(model_path), "--audit", "-o", str(out)]) == 0
        audit = json.loads(capsys.readouterr().out)
        assert audit["pass"]

    def test_n_guard_and_override(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "m5.json"
        out = tmp_path / "c5.json"
        assert main(["gen", "--n", "5", "--m", "1", "--dA", "1", "--dB", "1",
                     "--seed", "1", "-o", str(path)]) == 0
        assert main(["channel", "-i", str(path), "-o", str(out)]) == 2
        monkeypatch.setenv("UICHAN_MAX_N", "5")
        assert main(["channel", "-i", str(path), "-o", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("UICHAN_MAX_N", "abc")
        assert main(["channel", "-i", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: UICHAN_MAX_N must be an integer") and "Traceback" not in err


class TestOneFailureText:
    def test_channel_names_the_entry_verify_names(self, tmp_path, capsys):
        # the Haar-V model: channel's error line carries verify's failure text, one line each
        path, out = tmp_path / "cm.json", tmp_path / "out.json"
        assert main(["gen", "--kind", "commuting", "--seed", "19", "-o", str(path)]) == 0
        haar = write_haar_v(read_payload(path), tmp_path / "haar.json", seed=19)
        capsys.readouterr()
        assert main(["verify", "-i", str(haar), "-o", str(out)]) == 1
        failure = ("commutation failed: worst ||[u_ij, v_kl]||_F 2.010e+00 at (i, j)=(1, 1), "
                   "(k, l)=(2, 1) (setting pair x=2, y=1, 1-based labels)\n")
        assert capsys.readouterr().err == "verify: " + failure
        for method in ("direct", "moments"):
            channel = tmp_path / f"{method}.json"
            assert main(["channel", "-i", str(haar), "--method", method, "-o", str(channel)]) == 2
            assert capsys.readouterr().err == "error: CommutingModel: " + failure
            assert not channel.exists()

    def test_channel_audit_exits_1(self, tmp_path, capsys):
        # V scaled by 1 + 1e-10: the model's unitarity check accepts it, the channel's trace
        # is off by 2e-10; the audit fails and exits 1, and the channel is written anyway
        path, out = tmp_path / "scaled.json", tmp_path / "channel.json"
        assert main(["gen", "--n", "2", "--m", "1", "--dA", "1", "--dB", "4",
                     "-o", str(path)]) == 0
        doc = read_payload(path)
        for V in doc["V"]:
            V["re"], V["im"] = ([v * (1 + 1e-10) for v in V[part]] for part in ("re", "im"))
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["channel", "-i", str(path), "--audit", "-o", str(out)]) == 1
        audit = json.loads(capsys.readouterr().out)
        assert audit["completely_positive"] and not audit["trace_preserving"]
        assert audit["pass"] is False and out.exists()

    def test_check_failed_exits_1_on_a_channel_the_audit_accepts(self, tmp_path, capsys):
        # a real input for main's exit-1 handler: the audit reads only the Hermitian part of
        # the Choi matrix, so it passes a channel whose extracted table is not real
        chan, beh = tmp_path / "chan.json", tmp_path / "beh.json"
        chan.write_text(json.dumps(serialize.channel_to_json(anti_hermitian_choi_channel(1e-3))))
        assert main(["bell", "-i", str(chan), "-o", str(beh)]) == 1
        assert capsys.readouterr().err == (
            "check failed: extracted behaviour: imaginary_residue failed: largest |Im p(ab|xy)| "
            "1.250e-04 at (a, b)=(1, 2) (setting pair x=1, y=1, 1-based labels)\n")
        assert not beh.exists()

    def test_bell_names_a_nan_choi_eigenvalue(self, tmp_path, capsys):
        # one entry of 1.7e308 overflows the Choi matrix's Hermitian part: a NaN least eigenvalue
        model, chan, beh = tmp_path / "model.json", tmp_path / "chan.json", tmp_path / "beh.json"
        assert main(["gen", "--dA", "2", "--dB", "3", "--seed", "4", "-o", str(model)]) == 0
        assert main(["channel", "-i", str(model), "-o", str(chan)]) == 0
        doc = read_payload(chan)
        doc["super"][0][0]["re"][0] = 1.7e308
        chan.write_text(json.dumps(doc))
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):  # the CLI prints these as warnings
            assert main(["bell", "-i", str(chan), "-o", str(beh)]) == 2
        assert capsys.readouterr().err == (
            "error: channel fails its CPTP audit: choi_psd failed: least Choi eigenvalue nan "
            "(setting pair x=1, y=1, 1-based labels); trace_preserving failed: worst "
            "|Tr L(E_ab) - delta_ab| 1.700e+308 at (a, b)=(1, 1) (setting pair x=1, y=1, "
            "1-based labels)\n")
        assert not beh.exists()

    def test_seesaw_reads_uichan_max_n_before_optimizing(self, tmp_path, capsys, monkeypatch):
        f5, out = tmp_path / "f5.json", tmp_path / "seesaw.json"
        f = np.random.default_rng(5).standard_normal((5, 5, 1, 1))
        f5.write_text(json.dumps({"n": 5, "m": 1, "p": f.tolist()}))
        argv = ["seesaw", "-f", str(f5), "--dA", "1", "--dB", "1", "--restarts", "2",
                "-o", str(out)]
        monkeypatch.delenv("UICHAN_MAX_N", raising=False)
        with monkeypatch.context() as patched:
            patched.setattr(seesaw, "optimize_bell", lambda *a: pytest.fail("optimized first"))
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: ancilla dimension n=5 exceeds the dense-storage guard (max_n=4); pass max_n "
            "explicitly (or set UICHAN_MAX_N for the CLI) to override\n")
        assert not out.exists()
        monkeypatch.setenv("UICHAN_MAX_N", "5")
        assert main(argv) == 0
        verification = read_payload(out)["verification"]
        assert verification["pass"] and verification["deviation"] <= 1e-12


class TestBellCommands:
    def test_bell_extraction_matches_direct(self, tmp_path):
        strat = tmp_path / "strategy.json"
        assert main(["bell-direct", "--preset", "chsh", "-o", str(tmp_path / "b0.json")]) == 0
        # write the preset strategy out through the pipeline command files
        from uichan.bell import chsh_optimal_strategy
        alice, bob, psi = chsh_optimal_strategy()
        strat.write_text(json.dumps(serialize.strategy_to_json(alice, bob, psi)))

        assert main(["pipeline", "-i", str(strat), "--preset", "chsh",
                     "-o", str(tmp_path / "pipe.json")]) == 0
        doc = read_payload(tmp_path / "pipe.json")
        assert doc["max_deviation"] <= 1e-10
        assert abs(doc["value_direct"] - CHSH_OPTIMUM) <= 1e-9

    def test_given_file_wins_over_preset(self, tmp_path):
        # a non-CHSH strategy: --preset chsh fills in only the functional, which no file gives
        from uichan.bell import behaviour_direct
        alice = models.random_pvm_family(2, 2, 2, seed=3)
        bob = models.random_pvm_family(3, 2, 2, seed=4)
        psi = linalg.haar_state_vector(linalg.rng_from_seed(5), 6)
        strat = tmp_path / "strategy.json"
        strat.write_text(json.dumps(serialize.strategy_to_json(alice, bob, psi)))
        expected = serialize.behaviour_to_json(behaviour_direct(alice, bob, psi))
        for command, key in (("bell-direct", None), ("pipeline", "behaviour_direct")):
            out = tmp_path / f"{command}.json"
            assert main([command, "-i", str(strat), "--preset", "chsh", "-o", str(out)]) == 0
            with open(out) as fh:
                doc = json.load(fh)
            assert (doc["payload"][key] if key else doc["payload"]) == expected, command
            assert {name: i["path"] for name, i in doc["manifest"]["inputs"].items()} == {
                "strategy": str(strat)}, command

    def test_bell_from_channel_file(self, model_path, tmp_path):
        chan, beh = tmp_path / "chan.json", tmp_path / "beh.json"
        assert main(["channel", "-i", str(model_path), "-o", str(chan)]) == 0
        assert main(["bell", "-i", str(chan), "-o", str(beh)]) == 0
        b = behaviour_from_json(read_payload(beh))
        assert np.max(np.abs(b.p.sum(axis=(0, 1)) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("scale", [-1.0, 1.5])
    def test_bell_refuses_a_channel_that_fails_its_audit(self, tmp_path, capsys, scale):
        # one member's real part scaled: negated, its least Choi eigenvalue is -1.29 and its
        # traces are off by 2; scaled by 1.5, off by 0.5.  Both would still extract to tables
        # whose cells sum to 1, the negated one with p = -0.199
        model, chan, beh = tmp_path / "model.json", tmp_path / "chan.json", tmp_path / "beh.json"
        assert main(["gen", "--dA", "2", "--dB", "3", "--seed", "4", "-o", str(model)]) == 0
        assert main(["channel", "-i", str(model), "-o", str(chan)]) == 0
        doc = read_payload(chan)
        member = doc["super"][0][1]
        member["re"] = [scale * v for v in member["re"]]
        chan.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["bell", "-i", str(chan), "-o", str(beh)]) == 2
        # each failed record once, in its own words; scaled by 1.5 the member is still CP
        trace = ("trace_preserving failed: worst |Tr L(E_ab) - delta_ab| "
                 f"{abs(scale - 1):.3e} at (a, b)=(1, 1) (setting pair x=1, y=2, 1-based labels)")
        choi = ("choi_psd failed: least Choi eigenvalue -1.287e+00 "
                "(setting pair x=1, y=2, 1-based labels); ") if scale < 0 else ""
        assert capsys.readouterr().err == f"error: channel fails its CPTP audit: {choi}{trace}\n"
        assert not beh.exists()

    def test_bell_direct_requires_input(self):
        assert main(["bell-direct"]) == 2

    @pytest.mark.parametrize("command", ["bell-direct", "pipeline"])
    @pytest.mark.parametrize("flaw", ["state_doubled", "projector_tripled"])
    def test_invalid_strategy_exit_2(self, tmp_path, capsys, command, flaw):
        # the CHSH strategy with one flaw; unchecked, its (x, y) cells sum to 4 or to 3.5
        from uichan.bell import chsh_functional, chsh_optimal_strategy
        alice, bob, psi = chsh_optimal_strategy()
        if flaw == "state_doubled":
            psi = 2 * psi
        else:
            P = np.array(alice.projectors)
            P[0, 0] = 3 * np.eye(2)
            alice = models.PVMFamily(d=2, m=2, n=2, projectors=P)
        strat, functional = tmp_path / "strategy.json", tmp_path / "chsh.json"
        strat.write_text(json.dumps(serialize.strategy_to_json(alice, bob, psi)))
        functional.write_text(json.dumps({"n": 2, "m": 2, "p": chsh_functional().tolist()}))
        argv = [command, "-i", str(strat), "-o", str(tmp_path / "out.json")]
        if command == "pipeline":
            argv += ["-f", str(functional)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_csv_export(self, tmp_path):
        csv_path = tmp_path / "behaviour.csv"
        assert main(["bell-direct", "--preset", "chsh", "--csv", str(csv_path),
                     "-o", str(tmp_path / "b.json")]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "a,b,x,y,p"
        assert len(lines) == 1 + 2 * 2 * 2 * 2
        total = sum(float(line.split(",")[4]) for line in lines[1:])
        assert abs(total - 4.0) <= 1e-10  # one unit of probability per (x, y)


class TestPipelineAndSeesaw:
    def test_pipeline_preset(self, tmp_path):
        out = tmp_path / "pipe.json"
        assert main(["pipeline", "--preset", "chsh", "-o", str(out)]) == 0
        doc = read_payload(out)
        assert doc["pass"]
        assert abs(doc["value_lifted"] - CHSH_OPTIMUM) <= 1e-9

    def test_seesaw_preset(self, tmp_path):
        out = tmp_path / "seesaw.json"
        assert main(["seesaw", "--preset", "chsh", "--restarts", "3",
                     "--seed", "3", "-o", str(out)]) == 0
        doc = read_payload(out)
        assert doc["value"] >= 0.85
        assert doc["verification"]["pass"]
        assert doc["exact_updates"]

    def test_seesaw_functional_file(self, tmp_path):
        from uichan.bell import chsh_functional
        fpath = tmp_path / "chsh.json"
        fpath.write_text(json.dumps({"n": 2, "m": 2, "p": chsh_functional().tolist()}))
        out = tmp_path / "res.json"
        assert main(["seesaw", "-f", str(fpath), "--restarts", "2",
                     "--seed", "5", "-o", str(out)]) == 0
        assert read_payload(out)["value"] >= 0.75

    def test_seesaw_restarts_in_manifest_only(self, tmp_path):
        out = tmp_path / "seesaw.json"
        assert main(["seesaw", "--preset", "chsh", "-o", str(out)]) == 0
        with open(out) as fh:
            doc = json.load(fh)
        payload, restarts = doc["payload"], doc["manifest"]["restarts"]
        assert "restarts" not in payload
        assert doc["manifest"]["payload_sha256"] == sha256(json.dumps(payload, indent=2))
        assert len(restarts) == 20
        assert all(r["stop"] in ("converged", "decreased", "max_iters") for r in restarts)
        best = restarts[payload["restart_index"]]
        assert best["value"] == payload["value"] and best["sweeps"] == len(payload["trace"])

    def test_manifest_env_leaves_payload_digest_alone(self, tmp_path, monkeypatch):
        docs = []
        for threads in (None, "1"):
            if threads is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            out = tmp_path / f"seesaw{threads}.json"
            assert main(["seesaw", "--preset", "chsh", "--restarts", "2", "-o", str(out)]) == 0
            with open(out) as fh:
                docs.append(json.load(fh))
        envs = [doc["manifest"]["env"] for doc in docs]
        assert [env["openblas_num_threads"] for env in envs] == [None, "1"]
        for env in envs:
            assert env["python"] == platform.python_version()
            assert env["numpy"] == np.__version__
            assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
        assert docs[0]["payload"] == docs[1]["payload"]
        assert (docs[0]["manifest"]["payload_sha256"] == docs[1]["manifest"]["payload_sha256"]
                == sha256(json.dumps(docs[0]["payload"], indent=2)))

    def test_manifest_env_records_uichan_max_n(self, model_path, tmp_path, monkeypatch):
        # the guard override changes which models a run accepts, so the manifest names it
        docs = []
        for max_n in (None, "5"):
            if max_n is None:
                monkeypatch.delenv("UICHAN_MAX_N", raising=False)
            else:
                monkeypatch.setenv("UICHAN_MAX_N", max_n)
            out = tmp_path / f"channel{max_n}.json"
            assert main(["channel", "-i", str(model_path), "-o", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        assert [doc["manifest"]["env"]["uichan_max_n"] for doc in docs] == [None, "5"]
        assert docs[0]["payload"] == docs[1]["payload"]
        assert docs[0]["manifest"]["payload_sha256"] == docs[1]["manifest"]["payload_sha256"]


def test_python_m_uichan_help():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "uichan", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "seesaw" in proc.stdout


class TestEmitStreamsTheDocument:
    """``cli._emit`` writes the document in pieces; the bytes are ``json.dumps``'s."""

    @staticmethod
    def payload():
        S = serialize.FLOAT_SLICE
        rng = np.random.default_rng(4)
        lists = [(rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)).tolist()
                 for k in (0, 1, S - 1, S, S + 1, 3 * S + 7)]
        return {"n": 4, "text": "a\nb", "flat": lists[0],
                "rows": [lists[1], {"deep": (lists[2], lists[3])}], "pair": (lists[4], [lists[5]])}

    @pytest.mark.parametrize("indent", [None, 0, 1, 2, 4])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_document_is_json_dumps(self, tmp_path, capsys, indent, to_file):
        payload = self.payload()
        out = tmp_path / "out.json"
        args = Namespace(command="gen", json_indent=-1 if indent is None else indent,
                         output=str(out) if to_file else None)
        cli._emit(args, payload, {}, time.perf_counter())
        text = out.read_text() if to_file else capsys.readouterr().out
        manifest = json.loads(text)["manifest"]
        expected = json.dumps({"payload": payload, "manifest": manifest}, indent=indent) + "\n"
        assert sha256(text) == sha256(expected)  # pytest's diff of unequal MB-long texts is slow
        assert manifest["payload_sha256"] == sha256(json.dumps(payload, indent=indent))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_payload_leaves_output_alone(self, tmp_path, capsys, bad):
        out = tmp_path / "out.json"
        out.write_text("kept")
        S = serialize.FLOAT_SLICE
        for where in ("head", "slice", "tail", "scalar", "key", "tuple"):
            payload = self.payload()
            if where == "head":
                payload["pair"][1][0][0] = bad
            elif where == "slice":
                payload["pair"][1][0][2 * S] = bad
            elif where == "tail":
                payload["pair"][1][0][-1] = bad
            elif where == "scalar":
                payload["rows"][1]["x"] = bad
            elif where == "key":
                payload["rows"][1][bad] = 1.0
            else:
                payload["rows"][1]["deep"] = (*payload["rows"][1]["deep"], (1, bad))
            for output in (str(out), None):
                args = Namespace(command="gen", json_indent=2, output=output)
                with pytest.raises(ValueError):
                    cli._emit(args, payload, {}, time.perf_counter())
                assert out.read_text() == "kept", where
                assert capsys.readouterr().out == "", where

    def test_holds_no_copy_of_the_text(self, tmp_path):
        rng = np.random.default_rng(5)
        payload = {"super": [rng.standard_normal(65536).tolist() for _ in range(8)]}
        out = tmp_path / "big.json"
        args = Namespace(command="channel", json_indent=2, output=str(out))
        tracemalloc.start()
        try:
            cli._emit(args, payload, {}, time.perf_counter())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size / 4, (peak, out.stat().st_size)

    @staticmethod
    def emit(path, payload, indent=2):
        args = Namespace(command="gen", json_indent=indent, output=str(path))
        cli._emit(args, payload, {}, time.perf_counter())
        return path.read_text()

    def test_overwrite_of_a_longer_file_leaves_exactly_the_new_bytes(self, tmp_path):
        payload = self.payload()
        fresh = self.emit(tmp_path / "fresh.json", payload)
        over = tmp_path / "over.json"
        over.write_text("x" * (len(fresh) + 2 ** 20))
        text = self.emit(over, payload)
        doc = json.loads(text)
        assert doc["payload"] == json.loads(fresh)["payload"]
        assert text == json.dumps({"payload": payload, "manifest": doc["manifest"]}, indent=2) + "\n"
        assert doc["manifest"]["payload_sha256"] == sha256(json.dumps(payload, indent=2))

    def test_overwrite_keeps_inode_mode_and_links(self, tmp_path):
        out, link = tmp_path / "out.json", tmp_path / "link.json"
        out.write_text("x" * 2 ** 20)
        out.chmod(0o640)
        os.link(out, link)
        before = out.stat()
        text = self.emit(out, self.payload())
        after = out.stat()
        assert (after.st_ino, after.st_nlink) == (before.st_ino, 2)
        assert after.st_mode & 0o7777 == 0o640
        assert link.read_text() == text and json.loads(text)["payload"]
        # a new file gets the mode a truncating open gives it, under the umask
        self.emit(tmp_path / "new.json", self.payload())
        open(tmp_path / "reference", "w").close()
        assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_symlink_output_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 2 ** 20)
        link.symlink_to(target)
        text = self.emit(link, self.payload())
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == text
        assert json.loads(text)["manifest"]["payload_sha256"] == sha256(
            json.dumps(self.payload(), indent=2))

    def test_devnull_output(self, capsys):
        assert main(["gen", "-o", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("where", ["dir", "missing/out.json"])
    def test_unwritable_output_exit_2_as_a_truncating_open(self, tmp_path, capsys, where):
        path = tmp_path / where
        if where == "dir":
            path.mkdir()
        with pytest.raises(OSError) as exc:
            open(path, "w")
        assert main(["gen", "-o", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_bell_csv_over_a_longer_csv_leaves_exactly_the_new_lines(self, model_path, tmp_path):
        chan = tmp_path / "chan.json"
        assert main(["channel", "-i", str(model_path), "-o", str(chan)]) == 0
        fresh, over = tmp_path / "fresh.csv", tmp_path / "over.csv"
        over.write_text("a,b,x,y,p\n" + "9,9,9,9,0.5\n" * 10000)
        for csv in (fresh, over):
            assert main(["bell", "-i", str(chan), "--csv", str(csv), "-o", os.devnull]) == 0
        assert over.read_bytes() == fresh.read_bytes()
        assert len(fresh.read_text().splitlines()) == 1 + 2 * 2 * 2 * 2

    def test_interrupted_write_leaves_a_prefix_and_no_old_tail(self, tmp_path, monkeypatch):
        out = tmp_path / "out.json"
        out.write_text("x" * 2 ** 20)
        pieces = serialize.document_pieces
        written = []

        def failing(*args):
            for piece in pieces(*args):
                if len(written) == 3:
                    raise KeyboardInterrupt
                written.append(piece)
                yield piece

        monkeypatch.setattr(serialize, "document_pieces", failing)
        with pytest.raises(KeyboardInterrupt):
            self.emit(out, self.payload())
        assert out.read_text() == "".join(written)
        assert json.dumps({"payload": self.payload()}, indent=2).startswith("".join(written))


class TestSwapDemo:
    def test_pass_for_supported_n(self, tmp_path, capsys):
        for n in ("2", "3"):
            out = tmp_path / f"swap{n}.json"
            assert main(["swap-demo", "--n", n, "--seed", "5", "-o", str(out)]) == 0
            doc = read_payload(out)
            assert doc["pass"] and doc["max_defect"] <= 1e-12
            assert "PASS" in capsys.readouterr().out

    def test_unsupported_n(self):
        assert main(["swap-demo", "--n", "7"]) == 2
