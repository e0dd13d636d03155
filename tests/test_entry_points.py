"""Calls of numpy's Python-level wrappers from inside ibap.

The level chain, Subspace and the vector norms call numpy's C entry
points (ndarray methods, ufuncs, np.concatenate, np.count_nonzero) with
the floating-point operations of the wrappers they replace, so that
check and the recursion call none of np.linalg.norm, np.clip,
np.hstack, np.block and np.iscomplexobj from ibap's own code.  The
factorizations stay those of tests/test_factorizations.py: one thin SVD
per spanning set, and per level one thin SVD and the QR of its new
columns.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import ibap.angles
from ibap import Subspace
from ibap.cli import Problem, main

from conftest import random_family, random_prescription, rng_for
from oracles import save_problem

N = 24
DIMS = (3, 4, 2, 5)

#: (owner, name) of each wrapper that ibap does not call on these paths
WRAPPERS = ((np.linalg, "norm"), (np, "clip"), (np, "hstack"), (np, "block"),
            (np, "iscomplexobj"))


@pytest.fixture
def calls(monkeypatch):
    """Counts each wrapper call, and each np.linalg.svd and np.linalg.qr
    call, made directly from a module of ibap."""
    counts = Counter()
    for owner, name in WRAPPERS + ((np.linalg, "svd"), (np.linalg, "qr")):
        def counted(*args, _call=getattr(owner, name), _name=name, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("ibap."):
                counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.fixture
def problem_path(tmp_path):
    rng = rng_for(1206)
    family = random_family(rng, N, DIMS)
    pres = random_prescription(rng, family)
    path = str(tmp_path / "family.json")
    save_problem(path, Problem(field="real", ambient_dim=N,
                               names=tuple(f"U{i + 1}" for i in range(len(DIMS))),
                               spans=tuple(s.basis.T for s in family.subspaces),
                               prescription=np.array(pres), anchor=None))
    return path


def test_the_counter_sees_calls_from_ibap(calls):
    u = Subspace(np.eye(3)[:, :1])
    ibap.angles.angle_identity_gap(u, u)
    np.linalg.norm(np.ones(3))  # from the test, not from ibap
    assert calls["norm"] == 1


@pytest.mark.parametrize("argv", [["check"], ["solve", "--method", "recursion"]],
                         ids=["check", "recursion"])
def test_no_wrapper_calls_on_the_chain_paths(argv, problem_path, calls, capsys):
    assert main([argv[0], problem_path, *argv[1:]]) == 0
    assert capsys.readouterr().out
    assert {name: calls[name] for _, name in WRAPPERS} == {name: 0 for _, name in WRAPPERS}
    # one thin SVD per spanning set, one per level and one QR per level
    assert (calls["svd"], calls["qr"]) == (len(DIMS) + len(DIMS) - 1, len(DIMS) - 1)
