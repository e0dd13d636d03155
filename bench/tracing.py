"""Spans around the public functions of each ibap module, from outside.

The tracer wraps functions by name and installs each wrapper in every
``ibap.*`` namespace that binds the original object, because submodules
import names directly (``from .family import verify_ibap``); methods are
wrapped on ``Subspace`` itself.  numpy.linalg factorizations are wrapped
the same way and count only while a command runs, so the benchmark's own
reference computations are never counted.  Names that no longer exist
are skipped and reported, and their metrics read 0.

Spans are recorded only while a pass is traced; untraced passes call the
originals through one attribute test.
"""

from __future__ import annotations

import array
import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: layer -> module -> (functions, Subspace methods); the metric prefix is
#: the layer name
TARGETS = {
    "cli": ("ibap.cli", ("load_problem", "build_family"), ()),
    "subspaces": ("ibap.subspaces", ("add", "intersect"),
                  ("from_spanning", "complement", "project")),
    "angles": ("ibap.angles", ("projector_product_norm", "cos_friedrichs"), ()),
    "family": ("ibap.family", ("verify_ibap", "trailing_sums", "stacked_lstsq",
                               "validate_prescription", "uniqueness_check"), ()),
    "solvers": ("ibap.solvers", ("solve_min_norm", "extend_min_norm", "direct_solve",
                                 "best_approximation", "rate_bound", "affine_project"), ()),
    "applications": ("ibap.applications", ("recover_with_measurements", "solve_moments",
                                           "slow_family"), ()),
}

LINALG = ("svd", "lstsq", "solve", "qr", "pinv")


def svd_flops(shape, complex_, full_matrices, compute_uv):
    """Operation count of one SVD from its shape (Golub & Van Loan,
    Matrix Computations, Golub-Reinsch column; complex counted as 4x)."""
    *batch, m, n = shape
    if m < n:
        m, n = n, m
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 14 * m * n * n + 8 * n ** 3
    return float(flops) * (4 if complex_ else 1) * int(np.prod(batch, dtype=np.int64))


class Tracer:
    """Records spans (name, start, end, parent) and per-name aggregates."""

    def __init__(self):
        self.active = False
        self.recording = False
        self.names = []
        self._name_id = {}
        self._stack = []            # [span id, child seconds] per open span
        self._open = Counter()      # open spans per name, for inclusive time
        self._next_id = 0
        self.spans = {k: array.array(t) for k, t in
                      (("id", "q"), ("name", "i"), ("start", "d"), ("end", "d"),
                       ("parent", "q"))}
        self.reset()
        self._restore = []
        self.missing = []

    def reset(self):
        """Clear the per-pass aggregates."""
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sweeps = 0
        self.svd_square = 0
        self.svd_flops = 0.0
        self.shapes = Counter()     # (function, shape, ...) -> calls

    def _id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name, fn, after=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            self._open[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._open[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                if not self._open[name]:
                    self.incl[name] += dur
                self.self_s[name] += dur - frame[1]
                if self.recording:
                    sp = self.spans
                    sp["id"].append(sid)
                    sp["name"].append(nid)
                    sp["start"].append(t0)
                    sp["end"].append(t1)
                    sp["parent"].append(parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every target in every ibap namespace that binds it."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "ibap" or k.startswith("ibap."))]
        for layer, (modname, funcs, methods) in TARGETS.items():
            home = sys.modules.get(modname)
            for fname in funcs:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{modname}.{fname}")
                    continue
                after = self._count_sweeps if fname == "best_approximation" else None
                wrapped = self.wrap(f"{layer}.{fname}", orig, after)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, val))
                            setattr(mod, attr, wrapped)
            cls = getattr(home, "Subspace", None) if methods else None
            for meth in methods:
                desc = None if cls is None else cls.__dict__.get(meth)
                if desc is None:
                    self.missing.append(f"{modname}.Subspace.{meth}")
                    continue
                kind = type(desc) if isinstance(desc, (classmethod, staticmethod)) else None
                fn = desc.__func__ if kind else desc
                wrapped = self.wrap(f"{layer}.{meth}", fn)
                self._restore.append((cls, meth, desc))
                setattr(cls, meth, kind(wrapped) if kind else wrapped)
        for fname in LINALG:
            orig = getattr(np.linalg, fname)
            after = self._svd_shape if fname == "svd" else self._shape_of(fname)
            self._restore.append((np.linalg, fname, orig))
            setattr(np.linalg, fname, self.wrap(f"linalg.{fname}", orig, after))

    def uninstall(self):
        for obj, attr, val in reversed(self._restore):
            setattr(obj, attr, val)
        self._restore.clear()

    # ------------------------------------------------------------ hooks

    def _count_sweeps(self, args, kwargs, result):
        self.sweeps += result[1].sweeps

    def _svd_shape(self, args, kwargs, result):
        a = np.asarray(args[0])
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        cplx = np.iscomplexobj(a)
        self.shapes[("svd", a.shape, "c" if cplx else "r", bool(full), bool(uv))] += 1
        self.svd_flops += svd_flops(a.shape, cplx, full, uv)
        if full and uv and a.shape[-2] > a.shape[-1]:
            self.svd_square += 1

    def _shape_of(self, fname):
        def hook(args, kwargs, result):
            a = np.asarray(args[0])
            self.shapes[(fname, a.shape, "c" if np.iscomplexobj(a) else "r")] += 1
        return hook

    # ------------------------------------------------------------ output

    def self_time_by_layer(self):
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def write_spans(self, path):
        """Write the recorded spans as gzipped CSV; returns their number."""
        sp = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent\n")
            names = self.names
            for sid, nid, t0, t1, parent in zip(sp["id"], sp["name"], sp["start"], sp["end"],
                                                sp["parent"]):
                fh.write(f"{sid},{names[nid]},{t0!r},{t1!r},{parent}\n")
        return len(sp["name"])
