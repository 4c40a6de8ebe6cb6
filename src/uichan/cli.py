"""Command-line surface: stable file formats, audit reports, run manifests.

Every output file wraps its payload as ``{"payload": ..., "manifest": ...}``;
the manifest echoes the command, configuration, seed, toolkit version,
input digests and the payload digest, so reruns with identical inputs are
checkable byte-for-byte on the payload section.  ``manifest.env`` names the
Python, numpy and BLAS build the run used, and ``UICHAN_MAX_N`` as set.

Exit codes: 0 success, 1 numerical check failure, 2 input error.
The dense-storage guard n <= 4 can be overridden with the environment
variable ``UICHAN_MAX_N``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import platform
import stat
import sys
import time
from typing import Any, Callable

import numpy as np

from . import __version__, bell, channels, linalg, models, seesaw, serialize
from .errors import (DimensionMismatchError, DomainError, InconsistentChannelError,
                     InvalidModelError, PipelineInconsistencyError)
from .serialize import SchemaError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
MAX_JSON_INDENT = 64  # every nesting level writes a newline plus level * indent spaces


def _max_n() -> int:
    text = os.environ.get("UICHAN_MAX_N", str(channels.DEFAULT_MAX_N))
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"UICHAN_MAX_N must be an integer, got {text!r}") from None


def _read_json(path: str, parse: Callable[[dict], Any]) -> tuple[Any, dict]:
    """``parse`` of the payload in the JSON file ``path``, and the file's manifest entry.

    The entry holds the path and the SHA-256 of the bytes parsed.  The
    document is dropped on return, so it is not held while the command works.
    """
    doc, sha256 = serialize.read_json(path)
    if isinstance(doc, dict) and "payload" in doc:
        doc = doc["payload"]
    return parse(doc), {"path": path, "sha256": sha256}


def _env() -> dict:
    """Python, numpy, BLAS and guard override of this run; seeded bit-identity is per BLAS build."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "uichan_max_n": os.environ.get("UICHAN_MAX_N")}


@contextlib.contextmanager
def _overwrite(path: str):
    """A binary file written over ``path`` in place, then cut to the bytes written.

    Like ``open(path, "wb")``, but the file is not truncated at open: on ext4
    that waits for the disk to settle the earlier contents (README, "File
    formats").  The inode, mode and hard links are kept and symlinks are
    followed.  The cut runs however the write ends, so an interrupted write
    leaves a prefix of the new text and no old tail; a device or FIFO is not cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _emit(args, payload: dict, inputs: dict[str, dict], t0: float, **extra) -> None:
    """Write payload and manifest; ``extra`` entries go into the manifest, never the payload.

    ``inputs`` maps each input's name to its ``_read_json`` manifest entry.

    The document goes out piece by piece, so that no whole copy of its text
    is held; ``wall_ms`` counts writing the payload.
    """
    indent = args.json_indent if args.json_indent >= 0 else None
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}

    def manifest(payload_sha256: str) -> dict:
        return {
            "command": args.command,
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "config": config,
            "inputs": inputs,
            "payload_sha256": payload_sha256,
            "wall_ms": round((time.perf_counter() - t0) * 1000.0, 3),
            "env": _env(),
            **extra,
        }

    pieces = serialize.document_pieces(payload, manifest, indent)  # a NaN payload raises here
    if getattr(args, "output", None):
        with _overwrite(args.output) as fh:
            fh.writelines(pieces)
            fh.write(b"\n")
    else:
        sys.stdout.writelines(piece.decode() for piece in pieces)
        sys.stdout.write("\n")


def _load_functional(args) -> tuple[np.ndarray, dict[str, dict]]:
    if args.functional:
        f, source = _read_json(args.functional, serialize.table_from_json)
        return f, {"functional": source}
    if args.preset == "chsh":
        return bell.chsh_functional(), {}
    raise SchemaError("provide -f FUNCTIONAL or --preset chsh")


def _load_strategy(args) -> tuple[tuple, dict[str, dict]]:
    if args.input:
        strategy, source = _read_json(args.input, serialize.strategy_from_json)
        return strategy, {"strategy": source}
    if args.preset == "chsh":
        return bell.chsh_optimal_strategy(), {}
    raise SchemaError("provide -i STRATEGY or --preset chsh")


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    model = models.random_model(args.kind, args.n, args.m, args.dA, args.dB,
                                state=args.state, seed=args.seed)
    _emit(args, serialize.model_to_json(model), {}, t0)
    return EXIT_OK


def cmd_channel(args) -> int:
    t0 = time.perf_counter()
    model, source = _read_json(args.input, serialize.model_from_json)
    max_n = _max_n()
    if args.method == "direct":
        channel = channels.channel_direct(model, max_n=max_n)
    else:
        channel = channels.channel_from_moments(channels.moment_table(model, max_n=max_n))
    _emit(args, serialize.channel_to_json(channel), {"model": source}, t0)
    if args.audit:
        report = channels.cptp_report(channel)
        print(serialize.dumps({
            "min_choi_eigenvalue": report.min_choi_eigenvalue,
            "trace_defect": report.trace_defect,
            "completely_positive": report.choi_psd.passed,
            "trace_preserving": report.trace_preserving.passed,
            "pass": report.accepted,
        }, args.json_indent if args.json_indent >= 0 else None))
        if not report.accepted:
            return EXIT_CHECK_FAILED
    return EXIT_OK


DUAL_FORMULA_TOL = 1e-10  # verify's dual_formula: largest |direct - moment route| entry accepted
EMBEDDING_TOL = 1e-12  # verify's embedding_invariance: largest |tensor - embedded| entry accepted


def _report(check: models.Check) -> dict:
    """The payload entry of a check; a failed one also gets one stderr line saying where."""
    if not check.passed:
        print(f"verify: {check.failure}", file=sys.stderr)
    # a NaN or infinite defect (say from overflowing entries) is written as null, failing
    defect = check.defect if math.isfinite(check.defect) else None
    return {"name": check.name, "defect": defect, "tolerance": check.tolerance,
            "pass": check.passed}


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    model, source = _read_json(args.input, serialize.model_from_json)
    # --tol replaces every tolerance before any verdict is read, the gate below included
    retol = {} if args.tol is None else {"tolerance": args.tol}
    checks = [dataclasses.replace(c, **retol) for c in model.checks()]
    # channel-level checks only make sense on a numerically valid model
    skipped = []
    if all(c.passed for c in checks):
        max_n = _max_n()
        direct = channels.channel_direct(model, max_n=max_n)
        via_moments = channels.channel_from_moments(channels.moment_table(model, max_n=max_n))
        report = channels.cptp_report(direct)
        more = [channels.gap_check("dual_formula", direct, via_moments, DUAL_FORMULA_TOL),
                report.choi_psd, report.trace_preserving]
        if isinstance(model, models.TensorModel):
            embedded = channels.channel_direct(models.embed_tensor_as_commuting(model), max_n=max_n)
            more.append(channels.gap_check("embedding_invariance", direct, embedded,
                                           EMBEDDING_TOL))
        checks += [dataclasses.replace(c, **retol) for c in more]
    else:
        skipped = ["dual_formula", "choi_psd", "trace_preserving", "embedding_invariance"]

    all_pass = all(c.passed for c in checks) and not skipped
    payload = {"checks": [_report(c) for c in checks], "skipped": skipped, "pass": all_pass}
    _emit(args, payload, {"model": source}, t0)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _write_behaviour_csv(path: str, behaviour) -> None:
    """Diff-able CSV with 1-based labels; tiny negatives are clamped here only."""
    lines = ["a,b,x,y,p"]
    for x, y, a, b in np.ndindex(behaviour.m, behaviour.m, behaviour.n, behaviour.n):
        value = max(0.0, float(behaviour.p[a, b, x, y]))
        lines.append(f"{a + 1},{b + 1},{x + 1},{y + 1},{value!r}")
    with _overwrite(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def cmd_bell(args) -> int:
    t0 = time.perf_counter()
    channel, source = _read_json(args.input, serialize.channel_from_json)
    report = channels.cptp_report(channel)
    models._require("channel fails its CPTP audit", (report.choi_psd, report.trace_preserving),
                    DomainError)
    behaviour = bell.behaviour_from_channel(channel)
    _emit(args, serialize.behaviour_to_json(behaviour), {"channel": source}, t0)
    if args.csv:
        _write_behaviour_csv(args.csv, behaviour)
    return EXIT_OK


def cmd_bell_direct(args) -> int:
    t0 = time.perf_counter()
    (alice, bob, state), inputs = _load_strategy(args)
    behaviour = bell.behaviour_direct(alice, bob, state)
    _emit(args, serialize.behaviour_to_json(behaviour), inputs, t0)
    if args.csv:
        _write_behaviour_csv(args.csv, behaviour)
    return EXIT_OK


def cmd_seesaw(args) -> int:
    t0 = time.perf_counter()
    f, inputs = _load_functional(args)
    n, m = f.shape[0], f.shape[2]
    max_n = _max_n()
    channels._guard_n(n, max_n)  # the lift's channel is dense: refuse before optimizing
    cfg = seesaw.SeesawConfig(dA=args.dA, dB=args.dB, n=n, m=m,
                              max_iters=args.max_iters, rel_tol=args.rel_tol,
                              restarts=args.restarts, seed=args.seed)
    result = seesaw.optimize_bell(f, cfg)
    verification = seesaw.lift_and_verify(result, f, max_n=max_n)
    payload = {
        "value": result.value,
        "trace": list(result.trace),
        "restart_index": result.restart_index,
        "exact_updates": result.exact_updates,
        "strategy": serialize.strategy_to_json(result.alice, result.bob, result.state),
        "lifted": serialize.model_to_json(result.lifted),
        "verification": {
            "lifted_value": verification.lifted_value,
            "deviation": verification.deviation,
            "pass": verification.ok,
        },
    }
    restarts = [{"value": v, "sweeps": sweeps, "stop": stop} for v, sweeps, stop in result.restarts]
    _emit(args, payload, inputs, t0, restarts=restarts)
    return EXIT_OK if verification.ok else EXIT_CHECK_FAILED


PIPELINE_TOL = 1e-8  # pipeline's default: largest |lifted - Born-rule behaviour| entry accepted


def cmd_pipeline(args) -> int:
    t0 = time.perf_counter()
    (alice, bob, state), inputs = _load_strategy(args)
    f, f_inputs = _load_functional(args)
    inputs.update(f_inputs)
    lifted = models.diagonal_fourier_lift(alice, bob, state)
    channel = channels.channel_direct(lifted, max_n=_max_n())
    extracted = bell.behaviour_from_channel(channel)
    direct = bell.behaviour_direct(alice, bob, state)
    deviation = float(np.max(np.abs(extracted.p - direct.p)))
    tol = args.tol if args.tol is not None else PIPELINE_TOL
    payload = {
        "value_lifted": bell.bell_value(extracted, f),
        "value_direct": bell.bell_value(direct, f),
        "max_deviation": deviation,
        "tolerance": tol,
        "pass": bool(deviation <= tol),
        "behaviour_lifted": serialize.behaviour_to_json(extracted),
        "behaviour_direct": serialize.behaviour_to_json(direct),
    }
    _emit(args, payload, inputs, t0)
    return EXIT_OK if deviation <= tol else EXIT_CHECK_FAILED


SWAP_DEMO_TOL = 1e-12  # swap-demo's default: largest |output - target state| entry accepted


def cmd_swap_demo(args) -> int:
    t0 = time.perf_counter()
    if args.n not in (2, 3, 4):
        raise DomainError(f"swap-demo supports n in {{2, 3, 4}}, got {args.n}")
    n = args.n
    rng = linalg.rng_from_seed(args.seed)
    rho_target = linalg.wishart_density(rng, n * n)
    swap = linalg.swap_matrix(n, n)
    model = models.TensorModel(n=n, m=1, dA=n, dB=n, state=rho_target,
                               U=(swap,), V=(swap,))
    channel = channels.channel_direct(model, max_n=max(_max_n(), n))
    defect = 0.0
    for _ in range(10):
        rho_in = linalg.wishart_density(rng, n * n)
        out = channel.apply_to(rho_in, 0, 0)
        defect = max(defect, float(np.max(np.abs(out - rho_target))))
    tol = args.tol if args.tol is not None else SWAP_DEMO_TOL
    ok = defect <= tol
    payload = {"n": n, "inputs_tested": 10, "max_defect": defect, "tolerance": tol,
               "pass": bool(ok)}
    _emit(args, payload, {}, t0)
    print(f"{'PASS' if ok else 'FAIL'} swap constant-channel demo: "
          f"max defect {defect:.3e} (tolerance {tol:.1e})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below with the same message
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _int_within(low: float, high: float, what: str):
    """An argparse type: an integer from ``low`` to ``high``, else exit 2 saying ``what``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = math.nan  # rejected below with the same message
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_seed = _int_within(0, math.inf, "a non-negative integer")  # Philox takes no negative seed
_json_indent = _int_within(-math.inf, MAX_JSON_INDENT,
                           f"an integer of at most {MAX_JSON_INDENT}")  # negative: compact


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", help="output JSON path (default: stdout)")
    p.add_argument("--json-indent", type=_json_indent, default=2,
                   help=f"JSON indent for outputs, at most {MAX_JSON_INDENT}; negative for compact")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="uichan",
        description="Unitary-induced channel families: generation, audits, "
                    "behaviour extraction and see-saw optimization.",
    )
    parser.add_argument("--version", action="version", version=f"uichan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random model")
    p.add_argument("--kind", choices=("tensor", "commuting"), default="tensor")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--dA", type=int, default=2)
    p.add_argument("--dB", type=int, default=2)
    p.add_argument("--state", choices=("vector", "density"), default="vector")
    p.add_argument("--seed", type=_seed, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("channel", help="compute the channel family of a model")
    p.add_argument("-i", "--input", required=True, help="model JSON")
    p.add_argument("--method", choices=("direct", "moments"), default="direct")
    p.add_argument("--audit", action="store_true", help="print a CPTP audit report")
    _add_common(p)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("verify", help="run all validity checks on a model")
    p.add_argument("-i", "--input", required=True, help="model JSON")
    p.add_argument("--tol", type=_finite_float, help="one tolerance for every check")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bell", help="extract a behaviour from a channel family")
    p.add_argument("-i", "--input", required=True, help="channel JSON")
    p.add_argument("--csv", help="also export the behaviour table as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("bell-direct", help="Born-rule behaviour of a PVM strategy")
    p.add_argument("-i", "--input", help="strategy JSON")
    p.add_argument("--preset", choices=("chsh",), help="built-in strategy, when no -i is given")
    p.add_argument("--csv", help="also export the behaviour table as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_bell_direct)

    p = sub.add_parser("seesaw", help="maximize a Bell functional over strategies")
    p.add_argument("-f", "--functional", help="functional JSON (nested-real table)")
    p.add_argument("--preset", choices=("chsh",), help="built-in functional, when no -f is given")
    p.add_argument("--dA", type=int, default=2)
    p.add_argument("--dB", type=int, default=2)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--rel-tol", type=_finite_float, default=1e-9)
    p.add_argument("--seed", type=_seed, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_seesaw)

    p = sub.add_parser("pipeline", help="strategy -> lift -> channel -> behaviour, vs Born rule")
    p.add_argument("-i", "--input", help="strategy JSON")
    p.add_argument("-f", "--functional", help="functional JSON")
    p.add_argument("--preset", choices=("chsh",), help="built-in inputs where no file is given")
    p.add_argument("--tol", type=_finite_float,
                   help=f"largest deviation accepted (default {PIPELINE_TOL:g})")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("swap-demo", help="constant-channel identity from swap couplings")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_finite_float,
                   help=f"largest defect accepted (default {SWAP_DEMO_TOL:g})")
    _add_common(p)
    p.set_defaults(func=cmd_swap_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError,
            DimensionMismatchError, DomainError, InvalidModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InconsistentChannelError, PipelineInconsistencyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
