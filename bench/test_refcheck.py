"""Each reference check accepts a true output and rejects it with one entry corrupted."""

import copy
import itertools
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import refcheck
import run
import tracing
import workloads
from uichan import bell, channels, models, seesaw, serialize


def corrupt(doc: dict, eps: float = 1e-6) -> dict:
    out = copy.deepcopy(doc)
    out["re"][0] += eps
    return out


@pytest.fixture(scope="module")
def exported():
    model = models.random_tensor_model(2, 2, 2, 3, state="density", seed=3)
    channel = channels.channel_direct(model)
    return (serialize.model_to_json(model), serialize.channel_to_json(channel),
            serialize.behaviour_to_json(bell.behaviour_from_channel(channel)))


def test_channel_check(exported):
    model, channel, _ = exported
    refcheck.check_channel_doc(channel, model, np.random.default_rng(0))
    for x, y in itertools.product(range(2), range(2)):
        bad = copy.deepcopy(channel)
        bad["super"][x][y] = corrupt(bad["super"][x][y])
        with pytest.raises(refcheck.CheckFailed):
            refcheck.check_channel_doc(bad, model, np.random.default_rng(0))


def test_behaviour_check(exported):
    _, _, behaviour = exported
    refcheck.check_behaviour_doc(behaviour, 2, 2)
    bad = copy.deepcopy(behaviour)
    bad["p"][1][0][1][1] += 1e-6
    with pytest.raises(refcheck.CheckFailed):
        refcheck.check_behaviour_doc(bad, 2, 2)


def test_cptp_check():
    n2 = 4
    identity = np.eye(n2 * n2)
    refcheck.check_cptp(identity, "identity")
    transpose = identity.reshape(n2, n2, n2, n2).transpose(0, 1, 3, 2).reshape(n2 * n2, n2 * n2)
    with pytest.raises(refcheck.CheckFailed, match="Choi"):
        refcheck.check_cptp(transpose, "transpose")
    leaky = identity.copy()
    leaky[0, 0] += 1e-6
    with pytest.raises(refcheck.CheckFailed, match="trace"):
        refcheck.check_cptp(leaky, "leaky")


@pytest.fixture(scope="module")
def seesaw_doc(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("seesaw"))
    functional = os.path.join(d, "f.json")
    workloads.write_json(functional, {"n": 2, "m": 3, "p": workloads.i3322().tolist()})
    out = os.path.join(d, "out.json")
    workloads.run_cli("seesaw", "-f", functional, "--dA", 2, "--dB", 2, "--restarts", 2,
                      "--seed", 0, "-o", out)
    return workloads.payload(out)


def test_seesaw_check(seesaw_doc):
    f = workloads.i3322()
    refcheck.check_seesaw_doc(seesaw_doc, f, refcheck.I3322_QUANTUM_BOUND)
    bad_value = dict(seesaw_doc, value=seesaw_doc["value"] + 1e-6)
    bad_p = copy.deepcopy(seesaw_doc)
    bad_p["strategy"]["P"][1][0] = corrupt(bad_p["strategy"]["P"][1][0])
    bad_state = copy.deepcopy(seesaw_doc)
    bad_state["strategy"]["state"]["matrix"] = corrupt(bad_state["strategy"]["state"]["matrix"])
    for bad in (bad_value, bad_p, bad_state):
        with pytest.raises(refcheck.CheckFailed):
            refcheck.check_seesaw_doc(bad, f, refcheck.I3322_QUANTUM_BOUND)
    with pytest.raises(refcheck.CheckFailed, match="quantum bound"):
        refcheck.check_seesaw_doc(seesaw_doc, f, seesaw_doc["value"] - 1e-6)


def test_i3322_local_bound_is_zero():
    f = workloads.i3322()
    best = max(sum(f[a[x], b[y], x, y] for x in range(3) for y in range(3))
               for a in itertools.product(range(2), repeat=3)
               for b in itertools.product(range(2), repeat=3))
    assert best == 0.0


@pytest.fixture(scope="module")
def verify_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("verify"))
    wl = workloads.VerifyD64(seed=0, workdir=d)
    ops = {op.name: op for op in wl.ops()}
    ops["verify-pair-0"].run()
    ops["verify-haar-commuting"].run()
    return wl, d


def test_verify_check(verify_dir):
    wl, d = verify_dir
    wl._check_pair(None)
    report = workloads.payload(os.path.join(d, "report-tensor.json"))
    refcheck.check_verify_doc(report, wl.TENSOR_CHECKS)
    for field, value in (("defect", math.nan), ("pass", False), ("tolerance", -1.0)):
        bad = copy.deepcopy(report)
        bad["checks"][3][field] = value
        with pytest.raises(refcheck.CheckFailed):
            refcheck.check_verify_doc(bad, wl.TENSOR_CHECKS)
    dropped = dict(report, checks=report["checks"][:-1])
    with pytest.raises(refcheck.CheckFailed):
        refcheck.check_verify_doc(dropped, wl.TENSOR_CHECKS)


def test_commutation_rejection_check(verify_dir):
    _, d = verify_dir
    report = workloads.payload(os.path.join(d, "report-haar.json"))
    refcheck.check_commutation_rejected(report)
    bad = copy.deepcopy(report)
    next(c for c in bad["checks"] if c["name"] == "commutation")["pass"] = True
    with pytest.raises(refcheck.CheckFailed):
        refcheck.check_commutation_rejected(bad)


def _corrupt_first(family):
    arrays = [[np.array(a) for a in row] for row in family]
    arrays[0][0].flat[1] += 1e-6
    return arrays


def test_grid_check(tmp_path):
    wl = workloads.GridLibrary(seed=0, workdir=str(tmp_path))
    op = wl.ops()[-1]
    out = op.run()
    op.check(out)
    corrupted = [
        dict(out, via_moments=SimpleNamespace(supers=_corrupt_first(out["via_moments"].supers))),
        dict(out, embedded=SimpleNamespace(supers=_corrupt_first(out["embedded"].supers))),
        dict(out, direct=SimpleNamespace(supers=_corrupt_first(out["direct"].supers))),
        dict(out, table=SimpleNamespace(tables=_corrupt_first(out["table"].tables))),
        dict(out, defects=dict(out["defects"], u_leg=1e-6)),
        dict(out, behaviour=SimpleNamespace(p=_corrupt_first([[out["behaviour"].p]])[0][0])),
    ]
    for bad in corrupted:
        with pytest.raises(refcheck.CheckFailed):
            op.check(bad)


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tracer_attributes_spans_and_restores_the_program():
    original = channels.channel_direct
    tracer = tracing.Tracer()
    model = models.random_model("commuting", 2, 1, 2, 2, seed=0)
    with tracer.installed():
        assert seesaw.channel_direct is not original
        channels.channel_direct(model)
    assert channels.channel_direct is original and seesaw.channel_direct is original
    assert tracer.calls["channels.channel_direct.commuting"] == 1
    assert tracer.calls["models.check"] >= 1
    assert min(tracer.self_s.values()) >= 0.0
