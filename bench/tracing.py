"""Per-layer spans recorded from the benchmark's side of each call into uichan.

``Tracer.installed()`` replaces each traced function at every name it is
looked up under -- its home module, the package namespace and every module
that imported it by name (``channels.validate_commuting``,
``seesaw.channel_direct``, ...) -- and puts the originals back on exit.
Each call opens a span; its self time is its duration minus the time of the
spans it caused.  Only aggregates are kept: self seconds and call counts
per span name, plus the characters returned by ``serialize.dumps``.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

import uichan
from uichan import bell, channels, cli, linalg, models, seesaw, serialize

#: (span name, owner, attribute) for every traced function or method
TARGETS = [
    ("linalg.kron", linalg, "kron"),
    ("linalg.partial_trace", linalg, "partial_trace"),
    ("linalg.herm_eig", linalg, "herm_eig"),
    ("models.check", models.TensorModel, "check"),
    ("models.check", models.CommutingModel, "check"),
    ("models.validate_commuting", models, "validate_commuting"),
    ("models.embed_tensor_as_commuting", models, "embed_tensor_as_commuting"),
    ("channels.channel_direct", channels, "channel_direct"),
    ("channels.moment_table", channels, "moment_table"),
    ("channels.channel_from_moments", channels, "channel_from_moments"),
    ("channels.contraction_defects", channels.MomentTable, "contraction_defects"),
    ("channels.cptp_report", channels, "cptp_report"),
    ("bell.behaviour_from_channel", bell, "behaviour_from_channel"),
    ("seesaw.optimize_bell", seesaw, "optimize_bell"),
    ("seesaw.lift_and_verify", seesaw, "lift_and_verify"),
    ("serialize.dumps", serialize, "dumps"),
    ("serialize.channel_to_json", serialize, "channel_to_json"),
    ("serialize.channel_from_json", serialize, "channel_from_json"),
    ("serialize.model_from_json", serialize, "model_from_json"),
    ("cli.main", cli, "main"),
]
NAMESPACES = (uichan, bell, channels, cli, linalg, models, seesaw, serialize)


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.chars = 0
        self._stack: list[float] = []  # child time accumulated by each open span
        self._patches = []
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            homes = [owner] if isinstance(owner, type) else \
                [ns for ns in NAMESPACES if getattr(ns, attr, None) is original]
            self._patches += [(home, attr, original, wrapper) for home in homes]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == "channels.channel_direct":
                span += ".tensor" if isinstance(args[0], models.TensorModel) else ".commuting"
            self._stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = self._stack.pop()
                self.self_s[span] += duration - children
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1] += duration
            if name == "serialize.dumps":
                self.chars += len(out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        for home, attr, _, wrapper in self._patches:
            setattr(home, attr, wrapper)
        try:
            yield self
        finally:
            for home, attr, original, _ in self._patches:
                setattr(home, attr, original)
