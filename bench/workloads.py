"""The benchmark's workloads: inputs made from a seed, and one round of operations.

Constructing a workload is its set-up: it generates and writes the inputs.
``ops()`` returns one round, the fixed list of operations the run repeats;
every round is the same, so call counts per job and the share of failed
operations do not depend on how many rounds a run manages.  An operation's
``run`` is the timed part, the calls a user makes; its ``check`` reads the
outputs afterwards and compares them with ``refcheck``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import refcheck
from uichan import bell, channels, cli, models


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    job: bool = True  # False for probes, which are neither timed nor traced


class OpFailed(RuntimeError):
    """The program exited with another code than the operation expects."""


def run_cli(*argv, expect: int = 0) -> str:
    """Run ``uichan ARGV`` in-process through ``cli.main``; return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    if rc != expect:
        raise OpFailed(f"uichan {argv[0]} exited {rc}, expected {expect}: {err.getvalue().strip()}")
    return out.getvalue()


def payload(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["payload"]


def write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class VerifyD64:
    """``uichan verify`` on a tensor model (n=2, m=2, dA=dB=8) and on its d=64 embedding.

    A job is the pair of verifies for one seed.  Each round also makes two
    probes: the first commuting model with V replaced by Haar-random
    unitaries on the shared system must exit 1 on ``commutation``, and a
    tensor model with one NaN entry in U, the same for every seed, must
    exit 2.
    """

    PAIRS = 2
    TENSOR_CHECKS = {"unitarity", "state", "dual_formula", "choi_psd", "trace_preserving",
                     "embedding_invariance"}
    COMMUTING_CHECKS = {"unitarity", "state", "commutation", "dual_formula", "choi_psd",
                        "trace_preserving"}

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        dims = ("--n", 2, "--m", 2, "--dA", 8, "--dB", 8)
        for k in range(self.PAIRS):
            for kind in ("tensor", "commuting"):
                run_cli("gen", "--kind", kind, *dims, "--seed", seed * self.PAIRS + k,
                        "-o", self._path(f"{kind}{k}.json"))

        doc = payload(self._path("commuting0.json"))
        rng = np.random.default_rng(seed)
        for V in doc["V"]:
            H = haar_unitary(rng, V["dim"]).reshape(-1)
            V["re"], V["im"] = H.real.tolist(), H.imag.tolist()
        write_json(self._path("haar.json"), doc)

        run_cli("gen", "--kind", "tensor", *dims, "--seed", 0, "-o", self._path("nan.json"))
        doc = payload(self._path("nan.json"))
        doc["U"][0]["re"][0] = float("nan")
        write_json(self._path("nan.json"), doc)

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _verify_pair(self, k: int) -> None:
        for kind in ("tensor", "commuting"):
            run_cli("verify", "-i", self._path(f"{kind}{k}.json"), "-o", self._path(f"report-{kind}.json"))

    def _check_pair(self, _) -> None:
        refcheck.check_verify_doc(payload(self._path("report-tensor.json")), self.TENSOR_CHECKS)
        refcheck.check_verify_doc(payload(self._path("report-commuting.json")), self.COMMUTING_CHECKS)

    def ops(self) -> list[Op]:
        jobs = [Op(f"verify-pair-{k}", lambda k=k: self._verify_pair(k), self._check_pair)
                for k in range(self.PAIRS)]
        haar = Op("verify-haar-commuting",
                  lambda: run_cli("verify", "-i", self._path("haar.json"),
                                  "-o", self._path("report-haar.json"), expect=1),
                  lambda _: refcheck.check_commutation_rejected(payload(self._path("report-haar.json"))),
                  job=False)
        nan = Op("verify-nan-tensor",
                 lambda: run_cli("verify", "-i", self._path("nan.json"),
                                 "-o", self._path("report-nan.json"), expect=2),
                 lambda _: None, job=False)
        return jobs + [haar, nan]


class ExportN4:
    """``uichan channel --audit`` and then ``uichan bell`` on an n=4, m=2, dA=dB=2 tensor model."""

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        self.model = os.path.join(workdir, "model.json")
        self.channel = os.path.join(workdir, "channel.json")
        self.behaviour = os.path.join(workdir, "behaviour.json")
        run_cli("gen", "--kind", "tensor", "--n", 4, "--m", 2, "--dA", 2, "--dB", 2,
                "--seed", seed, "-o", self.model)
        self.rng = np.random.default_rng(seed)

    def _export(self) -> str:
        audit = run_cli("channel", "-i", self.model, "-o", self.channel, "--audit")
        run_cli("bell", "-i", self.channel, "-o", self.behaviour)
        return audit

    def _check(self, audit: str) -> None:
        if json.loads(audit)["pass"] is not True:
            raise refcheck.CheckFailed(f"CPTP audit failed: {audit}")
        model = payload(self.model)
        refcheck.check_channel_doc(payload(self.channel), model, self.rng)
        refcheck.check_behaviour_doc(payload(self.behaviour), model["n"], model["m"])

    def ops(self) -> list[Op]:
        return [Op("export", self._export, self._check)]


def i3322() -> np.ndarray:
    """I3322 (Collins and Gisin 2004) as a table f[a, b, x, y]; index 0 is outcome label 1.

    I = -2 pA(1|1) - pA(1|2) - pB(1|1) + sum_xy c[x][y] p(11|xy) with
    c = [[1, 1, 1], [1, 1, -1], [1, -1, 0]].  A marginal is written through
    the other party's first setting.  The local bound is 0, qubits reach
    0.25 and the quantum bound is 0.2508754.
    """
    f = np.zeros((2, 2, 3, 3))
    f[0, :, :, 0] += np.array([-2.0, -1.0, 0.0])
    f[:, 0, 0, :] += np.array([-1.0, 0.0, 0.0])
    f[0, 0] += np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 0.0]])
    return f


class SeesawI3322:
    """``uichan seesaw`` on I3322 at dA=dB=4 with 20 restarts, one seed per job."""

    SEEDS = 8  # see-saw sweeps vary by seed; more seeds per round steady the median

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        self.f = i3322()
        self.functional = os.path.join(workdir, "i3322.json")
        write_json(self.functional, {"n": 2, "m": 3, "p": self.f.tolist()})
        self.seeds = [seed * self.SEEDS + k for k in range(self.SEEDS)]

    def _result(self, k: int) -> str:
        return os.path.join(self.dir, f"seesaw{k}.json")

    def ops(self) -> list[Op]:
        return [
            Op(f"seesaw-{k}",
               lambda k=k, s=s: run_cli("seesaw", "-f", self.functional, "--dA", 4, "--dB", 4,
                                        "--restarts", 20, "--seed", s, "-o", self._result(k)),
               lambda _, k=k: refcheck.check_seesaw_doc(payload(self._result(k)), self.f,
                                                        refcheck.I3322_QUANTUM_BOUND))
            for k, s in enumerate(self.seeds)
        ]


#: the acceptance grid: (n, m, dA, dB)
GRID = [(n, m, dA, dB) for n in (2, 3) for m in (1, 2) for dA in (2, 3) for dB in (2, 3)]


class GridLibrary:
    """Library calls on every point of the acceptance grid; no files and no JSON."""

    def __init__(self, seed: int, workdir: str):
        self.cases = []
        for i, (n, m, dA, dB) in enumerate(GRID):
            s = seed * len(GRID) + i
            model = models.random_tensor_model(n, m, dA, dB, state=("vector", "density")[i % 2],
                                               seed=s)
            alice = models.random_pvm_family(dA, m, n, seed=2 * s)
            bob = models.random_pvm_family(dB, m, n, seed=2 * s + 1)
            self.cases.append((model, alice, bob))
        self.rng = np.random.default_rng(seed)

    @staticmethod
    def _job(model, alice, bob) -> dict:
        direct = channels.channel_direct(model)
        table = channels.moment_table(model)
        via_moments = channels.channel_from_moments(table)
        report = channels.cptp_report(direct)
        defects = table.contraction_defects()
        embedded = channels.channel_direct(models.embed_tensor_as_commuting(model))
        lifted = models.diagonal_fourier_lift(alice, bob, model.state)
        behaviour = bell.behaviour_from_channel(channels.channel_direct(lifted))
        return {"direct": direct, "table": table, "via_moments": via_moments, "report": report,
                "defects": defects, "embedded": embedded, "behaviour": behaviour}

    def _check(self, model, alice, bob, out: dict) -> None:
        if not out["report"].accepted:
            raise refcheck.CheckFailed(f"CPTP audit rejected a valid model: {out['report']}")
        born = refcheck.born_rule(alice.projectors, bob.projectors, model.state)
        refcheck.check_grid(out["direct"].supers, out["via_moments"].supers,
                            out["embedded"].supers, out["table"].tables, out["defects"],
                            model.U, model.V, model.density(), model.n, model.dA, model.dB,
                            out["behaviour"].p, born, self.rng)

    def ops(self) -> list[Op]:
        return [Op(f"grid-{n}-{m}-{dA}-{dB}",
                   lambda c=case: self._job(*c),
                   lambda out, c=case: self._check(*c, out))
                for case, (n, m, dA, dB) in zip(self.cases, GRID)]


WORKLOADS = {
    "verify-d64": VerifyD64,
    "export-n4": ExportN4,
    "seesaw-i3322": SeesawI3322,
    "grid-library": GridLibrary,
}
