"""File-reader fuzz test: every JSON file the CLI reads, broken in one place.

Valid matrix, instance and psi documents are written by the CLI itself.
Each example changes one of them in one place (a leaf replaced by a value
from ``BAD_VALUES``, a key dropped or a list cut short) and runs every
command that reads that kind of file, in-process. Whatever the change, a
command exits 0 with strict JSON (no NaN or Infinity) on stdout, or 1
with one JSON ``{"code", "message"}`` object on stderr.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chswitch.cli import main

BAD_VALUES = [math.nan, math.inf, -math.inf, True, "1", 1.5, -1, 0, 2**70, None, [], {}]
PSI = [[0.6, 0.0], [0.0, 0.8]]
# Commands that write the valid documents, keyed by document name.
SETUP = {
    "matrix_exact": ["matrix", "gen", "--family", "fourier", "--d", "3"],
    "matrix_float": ["matrix", "gen", "--family", "f4", "--a", "0.6"],
    "instance_cv": ["promise", "build", "--matrix", "{dir}/matrix_exact.json", "--column", "1",
                    "--target", "cv"],
    "instance_qudit": ["promise", "build", "--matrix", "{dir}/fourier2.json", "--column", "1",
                       "--target", "qudit"],
}
# What reads each kind of document; "{doc}" is the changed file.
COMMANDS = {
    "matrix": [["matrix", "validate", "{doc}"], ["matrix", "classify", "{doc}"],
               ["matrix", "dephase", "{doc}"]],
    "instance": [["promise", "verify", "--instance", "{doc}"],
                 ["switch", "run", "--instance", "{doc}"]],
    "psi": [["switch", "run", "--instance", "{dir}/instance_qudit.json", "--psi", "{doc}"]],
}


def _run(argv, **paths):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**paths) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _documents() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        _run(["matrix", "gen", "--family", "fourier", "--d", "2", "--out", "{dir}/fourier2.json"],
             dir=directory)
        for name, argv in SETUP.items():
            code, _, _ = _run([*argv, "--out", f"{{dir}}/{name}.json"], dir=directory)
            assert code == 0, argv
        docs = {name: json.loads(Path(directory, f"{name}.json").read_text()) for name in SETUP}
    return {**docs, "psi": PSI}


DOCUMENTS = _documents()


def _mutations(name, node, path=()):
    """(document, kind, path) for every leaf to replace, key to drop and list
    to cut short (its item -1 dropped)."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield name, "drop", path + (key,)
            yield from _mutations(name, child, path + (key,))
    elif isinstance(node, list):
        if node:
            yield name, "drop", path + (-1,)
        for index, child in enumerate(node):
            yield from _mutations(name, child, path + (index,))
    else:
        yield name, "replace", path


MUTATIONS = [m for name, doc in DOCUMENTS.items() for m in _mutations(name, doc)]


def _changed(doc, kind, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, doc in DOCUMENTS.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    return directory


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(mutation=st.sampled_from(MUTATIONS), value=st.sampled_from(BAD_VALUES))
@example(mutation=("instance_cv", "replace", ("gates", "gates", 0, "theta")), value=math.nan)
# a gate that is no longer unitary: it annihilates |0>, and the outcome was 0/0
@example(mutation=("instance_qudit", "replace", ("gates", "gates", 0, 1, 0, 0)), value=0)
def test_broken_file_gives_json_result_or_json_error(workdir, mutation, value):
    name, kind, path = mutation
    doc = workdir / "changed.json"
    doc.write_text(json.dumps(_changed(DOCUMENTS[name], kind, path, value)))
    for argv in COMMANDS[name.split("_")[0]]:
        code, out, err = _run(argv, dir=workdir, doc=doc)
        assert code in (0, 1), (argv, code, err)
        assert "Traceback" not in err
        if code == 1:
            payload = json.loads(err, parse_constant=_refuse)
            assert isinstance(payload, dict) and {"code", "message"} <= set(payload), err
            assert out == ""
        else:
            json.loads(out, parse_constant=_refuse)
            assert err == ""
