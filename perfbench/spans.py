"""Span tracer that wraps slpn's public functions from outside the package.

Installing the tracer replaces each traced function or method with a wrapper
that records one span per call: (name, start, end, parent). A class method is
replaced once on its class. A module function is replaced at every module
binding, because modules import each other's functions by name (for example
``reductions`` does ``from .gf2 import rank``). Uninstalling restores the
originals, so an untraced run executes exactly the program's own code.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter_ns

# (span name, module, class or None, attribute). Everything the three
# workloads reach through the public API. Left out on purpose, because no
# workload calls them: symp_dual_basis, radical_basis, column_space_basis,
# symplectic_subspace_basis, the owf, harness, cli and plot modules, and the
# pke/supke JSON codecs.
TARGETS = [
    ("gf2.bitvec_init", "gf2", "BitVec", "__init__"),
    ("gf2.bitmat_init", "gf2", "BitMat", "__init__"),
    ("gf2.transpose", "gf2", "BitMat", "transpose"),
    ("gf2.from_cols", "gf2", "BitMat", "from_cols"),
    ("gf2.cols", "gf2", "BitMat", "cols"),
    ("gf2.matmul", "gf2", "BitMat", "matmul"),
    ("gf2.matvec", "gf2", "BitMat", "matvec"),
    ("gf2.rank", "gf2", None, "rank"),
    ("gf2.solve", "gf2", None, "solve"),
    ("gf2.kernel_basis", "gf2", None, "kernel_basis"),
    ("gf2.kernel_basis_info", "gf2", None, "kernel_basis_info"),
    ("gf2.is_isotropic", "gf2", None, "is_isotropic"),
    ("gf2.symp_vec_mat", "gf2", None, "symp_vec_mat"),
    ("gf2.symp_inner", "gf2", None, "symp_inner"),
    ("gf2.permute_pairs", "gf2", None, "permute_pairs"),
    ("gf2.permute_rows_pairs", "gf2", None, "permute_rows_pairs"),
    ("sampling.rng_bits", "sampling", "Rng", "bits"),
    ("sampling.rng_bit", "sampling", "Rng", "bit"),
    ("sampling.rng_bitmat", "sampling", "Rng", "bitmat"),
    ("sampling.rng_integer", "sampling", "Rng", "integer"),
    ("sampling.rng_random", "sampling", "Rng", "random"),
    ("sampling.rng_binomial", "sampling", "Rng", "binomial"),
    ("sampling.rng_permutation", "sampling", "Rng", "permutation"),
    ("sampling.rng_numpy", "sampling", "Rng", "numpy"),
    ("sampling.sample_isotropic", "sampling", None, "sample_isotropic"),
    ("sampling.sample_depolarizing", "sampling", None, "sample_depolarizing"),
    ("sampling.sample_bernoulli", "sampling", None, "sample_bernoulli"),
    ("sampling.sample_lsn_matrices", "sampling", None, "sample_lsn_matrices"),
    ("sampling.gen_symplpn", "sampling", None, "gen_symplpn"),
    ("sampling.gen_lsn", "sampling", None, "gen_lsn"),
    ("sampling.gen_lpn", "sampling", None, "gen_lpn"),
    ("sampling.hyperplane_rotation", "sampling", "HyperplaneRotation", "sample"),
    ("sampling.hyperplane_from_vector", "sampling", "HyperplaneRotation", "from_vector"),
    ("pke.gen", "pke", None, "gen"),
    ("pke.gen_traced", "pke", None, "gen_traced"),
    ("pke.enc", "pke", None, "enc"),
    ("pke.enc_traced", "pke", None, "enc_traced"),
    ("pke.dec", "pke", None, "dec"),
    ("supke.expand", "supke", None, "expand"),
    ("supke.invert", "supke", None, "invert"),
    ("supke.su_gen", "supke", None, "su_gen"),
    ("supke.su_gen_traced", "supke", None, "su_gen_traced"),
    ("supke.su_enc", "supke", None, "su_enc"),
    ("supke.su_enc_traced", "supke", None, "su_enc_traced"),
    ("supke.su_dec", "supke", None, "su_dec"),
    ("attacks.prange", "attacks", None, "prange_isd"),
    ("attacks.pair_aware", "attacks", None, "pair_aware_isd"),
    ("attacks.brute_force_search", "attacks", None, "brute_force_search"),
    ("attacks.brute_force_decide", "attacks", None, "brute_force_decide"),
    ("reductions.lsn_to_symplpn", "reductions", None, "lsn_to_symplpn"),
    ("reductions.symmetrize_noise", "reductions", None, "symmetrize_noise"),
    ("reductions.drop_bit_transform", "reductions", None, "drop_bit_transform"),
    ("reductions.drop_logical_bit", "reductions", None, "drop_logical_bit"),
    ("reductions.measure_drop_bit", "reductions", None, "measure_drop_bit"),
    ("reductions.measure_lsn_reduction", "reductions", None, "measure_lsn_reduction"),
]

PACKAGE = "slpn."
NAMES = [t[0] for t in TARGETS]
INDEX = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Records spans while installed and switched on.

    ``spans`` holds one ``[name_index, start_ns, end_ns, parent]`` list per
    call, where ``parent`` is the index of the enclosing span or -1.
    ``columns`` adds up the column count of each matrix returned by
    ``sample_isotropic``, the numerator of its acceptance ratio.
    """

    def __init__(self):
        self.on = True
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.columns = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {
            name[len(PACKAGE) :]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE) and mod is not None
        }
        functions = {}
        for sid, (name, modname, clsname, attr) in enumerate(TARGETS):
            mod = modules[modname]
            if clsname is None:
                functions[id(getattr(mod, attr))] = self._wrap(sid, getattr(mod, attr))
                continue
            cls = getattr(mod, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(sid, raw.__func__))
            else:
                new = self._wrap(sid, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = functions.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (used around output checks)."""
        prev, self.on = self.on, False
        try:
            yield
        finally:
            self.on = prev

    def take(self) -> tuple[list[list[int]], int]:
        """Hand over the spans recorded so far and start afresh."""
        if self.stack:
            raise RuntimeError("take() inside an open span")
        spans, columns = self.spans, self.columns
        self.spans, self.columns = [], 0
        return spans, columns

    def _wrap(self, sid: int, fn):
        tracer = self
        count_columns = NAMES[sid] == "sampling.sample_isotropic"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            rec = [sid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if count_columns:
                tracer.columns += out.ncols
            return out

        return traced


class Summary:
    """Per-name call counts, inclusive and self time of one batch of spans.

    Self time is a span's duration minus the durations of its direct child
    spans; calls nest strictly in one thread, so children never overlap.
    """

    def __init__(self, spans: list[list[int]], columns: int):
        n = len(NAMES)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        child_ns = [0] * len(spans)
        for sid, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (sid, start, end, _parent) in enumerate(spans):
            d = end - start
            self.calls[sid] += 1
            self.total_ns[sid] += d
            self.self_ns[sid] += d - child_ns[i]
        self.spans = spans
        self.columns = columns

    def count(self, *names: str) -> int:
        return sum(self.calls[INDEX[n]] for n in names)

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[INDEX[n]] for n in names) / 1e6

    def total_ms(self, *names: str) -> float:
        return sum(self.total_ns[INDEX[n]] for n in names) / 1e6

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        sid, aid = INDEX[name], INDEX[ancestor]
        spans = self.spans
        hits = 0
        for rec in spans:
            if rec[0] != sid:
                continue
            p = rec[3]
            while p >= 0:
                if spans[p][0] == aid:
                    hits += 1
                    break
                p = spans[p][3]
        return hits

    def counts(self) -> dict[str, int]:
        return {name: self.calls[i] for i, name in enumerate(NAMES) if self.calls[i]}
