"""Single-field mutation fuzz of every file reader, through the command line.

Each run changes one field of a valid document, to one of 14 values or by
deleting it, and runs the command that reads that kind of file.  Every run
must end with exit code 0, 1 or 2; an exception escaping ``main`` fails the
test.  Long float lists are mutated at their two ends only, which keeps the
whole fuzz to a few seconds.
"""

import copy
import json

import numpy as np
import pytest

from uichan import channels, cli, models, serialize

VALUES = [None, True, 0, -1, 3, 2.5, 1e300, -1e300, float("nan"), float("inf"), "2", "", [], {}]
DELETE = object()


def field_paths(doc, path=()):
    """Every field path of a document; a list of numbers contributes its first and last entry."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from field_paths(value, path + (key,))
    elif isinstance(doc, list):
        ends = len(doc) > 2 and all(isinstance(v, (int, float)) for v in doc)
        for i in ((0, len(doc) - 1) if ends else range(len(doc))):
            yield from field_paths(doc[i], path + (i,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def documents():
    """(name, argv before the input path, valid document) for each file kind a command reads."""
    tm = models.random_tensor_model(2, 1, 1, 2, state="density", seed=1)
    cm = models.embed_tensor_as_commuting(models.random_tensor_model(2, 1, 1, 1, seed=2))
    alice = models.random_pvm_family(1, 1, 2, seed=3)
    bob = models.random_pvm_family(2, 1, 2, seed=4)
    state = np.array([1.0, 0.0], dtype=complex)
    channel = channels.ChannelFamily(n=2, m=1, supers=np.eye(16)[None, None])  # the identity
    return [
        ("tensor", ["verify", "-i"], serialize.model_to_json(tm)),
        ("commuting", ["verify", "-i"], serialize.model_to_json(cm)),
        ("channel", ["bell", "-i"], serialize.channel_to_json(channel)),
        ("strategy", ["bell-direct", "-i"], serialize.strategy_to_json(alice, bob, state)),
        ("functional", ["pipeline", "-i", "STRATEGY", "-f"],
         {"n": 2, "m": 1, "p": np.ones((2, 2, 1, 1)).tolist()}),
    ]


DOCUMENTS = documents()


@pytest.mark.parametrize("name, argv, doc", DOCUMENTS, ids=[d[0] for d in DOCUMENTS])
def test_every_single_field_mutation_exits_cleanly(name, argv, doc, tmp_path, capsys):
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps(DOCUMENTS[3][2]))
    argv = [str(strategy) if a == "STRATEGY" else a for a in argv]
    path, out = tmp_path / f"{name}.json", tmp_path / "out.json"
    codes = []
    for field in list(field_paths(doc))[1:]:
        for value in VALUES + [DELETE]:
            path.write_text(json.dumps(mutated(doc, field, value)))
            codes.append(cli.main(argv + [str(path), "--json-indent", "-1", "-o", str(out)]))
            assert codes[-1] in (0, 1, 2), (field, value)
    capsys.readouterr()
    assert 2 in codes and len(codes) >= 15 * 8
