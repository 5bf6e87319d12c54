"""The command line's exit-code contract, fuzzed.

A run of ``simulate --bins 8`` on the shipped config with one entry
mutated (a leaf or a whole section set to nan, inf, 0, -1, 0.5, "x",
null, [] or {}, or deleted), or with a small flag mutated (the bin count,
the spectral window, a ``--structure`` override), ends in exit 0, or in
exit 2 with exactly one ``error:`` line; never in a traceback.  No drawn
value is a large bin count, time grid or repeat count.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from spdc1d.cli import main

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "gan_aln_20layer.json")
with open(EXAMPLE, encoding="utf-8") as _fh:
    SHIPPED = json.load(_fh)
DELETE = "<deleted>"
VALUES = [float("nan"), float("inf"), 0, -1, 0.5, "x", None, [], {}, DELETE]
FRACTIONS = ["-0.1", "0", "0.05", "0.3", "0.5", "0.95", "1.5"]


def _paths(node, path=()):
    """Every entry of a JSON tree, as its key path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(tree, path, value):
    tree = copy.deepcopy(tree)
    entry = tree
    for key in path[:-1]:
        entry = entry[key]
    if value == DELETE:
        del entry[path[-1]]
    else:
        entry[path[-1]] = value
    return tree


def _mutations(tree):
    """(tree with one entry mutated) of a JSON tree."""
    paths = [p for p in _paths(tree) if p[:1] != ("notes",) or len(p) == 1]
    return st.builds(_mutated, st.just(tree), st.sampled_from(paths),
                     st.sampled_from(VALUES))


SECTIONS = {"structure": SHIPPED["structure"],
            "materials": SHIPPED["materials"]}
FLAGS = st.one_of(
    st.just([]),
    st.sampled_from(["0", "1", "2", "3"]).map(lambda b: ["--bins", b]),
    st.tuples(st.sampled_from(FRACTIONS), st.sampled_from(FRACTIONS)).map(
        lambda w: ["--window-lo", w[0], "--window-hi", w[1]]),
    st.sampled_from([["--window-lo", "0.3"], ["--window-hi", "0.5"]]),
    st.one_of(_mutations(SECTIONS),
              st.sampled_from([{"materials": 0}, {"structure": None},
                               {"structur": {}}, [1, 2]])).map(
        lambda tree: ["--structure", tree]),
)


def _run(config, flags, tmp):
    paths = {"config": os.path.join(tmp, "config.json"),
             "structure": os.path.join(tmp, "structure.json")}
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    if "--structure" in flags:
        with open(paths["structure"], "w", encoding="utf-8") as fh:
            json.dump(flags[-1], fh)
        flags = flags[:-1] + [paths["structure"]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(["simulate", "--config", paths["config"], "--bins", "8",
                   "--out-dir", os.path.join(tmp, "out")] + flags)
    return rc, err.getvalue()


def _assert_contract(rc, err):
    assert rc in (0, 2), err
    assert "Traceback" not in err
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=50, deadline=None, derandomize=True)
@given(config=_mutations(SHIPPED))
def test_mutated_config_exits_0_or_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_contract(*_run(config, [], tmp))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(flags=FLAGS)
def test_mutated_flags_exit_0_or_2(flags):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_contract(*_run(SHIPPED, flags, tmp))
