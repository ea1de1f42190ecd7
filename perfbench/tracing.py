"""Span tracing by wrapping kdmps functions from outside the package.

A :class:`Tracer` replaces chosen module or class attributes of kdmps with
wrappers that record one span per call: name, start, end, parent span and
an optional detail taken from the call. Spans stay in memory; the caller
writes them out at the end. ``install`` and ``uninstall`` swap the
wrappers in and out, so a run without tracing executes the package's own
functions and nothing else.

Only names looked up at call time are seen: a wrapper on
``kdmps.variance.apply_window`` catches the calls made from
``nsite_variance``, not the ones made from ``kdmps.excitation``.
"""

from __future__ import annotations

import functools
from time import perf_counter

import kdmps.dmrg as kdmrg
import kdmps.excitation as kexc
import kdmps.mpo as kmpo
import kdmps.mps as kmps
import kdmps.projectors as kproj
import kdmps.variance as kvar


class Tracer:
    """Span recorder plus the attribute patches that feed it.

    A span is a list ``[name, start, end, parent, detail]``; ``parent`` is
    the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, detail=None, arg0=None):
        """``fn`` recording a span per call; ``detail(args, result)`` and
        ``arg0(first_argument)`` are optional hooks."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg0 is not None:
                args = (arg0(args[0]),) + args[1:]
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if detail is not None:
                span[4] = detail(args, result)
            return result

        return traced

    def target(self, owner, attr: str, name: str, detail=None, arg0=None) -> None:
        self._targets.append((owner, attr, name, (detail, arg0)))

    def install(self) -> None:
        for owner, attr, name, (detail, arg0) in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, detail, arg0))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _iterations(args, result) -> int:
    return result.iterations


def _matvec_shapes(args, result):
    heff = args[0]
    return (heff.mode, heff.left.shape, heff.right.shape, tuple(w.shape for w in heff.ws))


def _nbytes(args, result) -> int:
    return int(result.nbytes)


def kdmps_tracer() -> Tracer:
    """A tracer aimed at the layer boundaries the benchmark reports."""
    tr = Tracer()
    tr.target(kmpo, "heisenberg_mpo", "mpo.build")
    tr.target(kmpo, "haldane_shastry_mpo", "mpo.build")
    tr.target(kmpo, "mpo_sum_compress", "mpo.sum_compress")
    tr.target(kmps, "random_mps", "mps.random")
    tr.target(kmps, "save_mps", "mps.save")
    tr.target(kmps, "load_mps", "mps.load")
    for module in (kproj, kdmrg, kvar, kexc):
        tr.target(module, "build_bases", "projectors.build_bases")
    tr.target(kdmrg, "dmrg_ground_state", "dmrg.ground_state")
    tr.target(kdmrg._Sweeper, "_solve_local", "dmrg.local_solve")
    tr.target(kdmrg, "lanczos_lowest", "dmrg.lanczos", detail=_iterations)
    tr.target(kdmrg.EffectiveHam, "matvec", "dmrg.matvec", detail=_matvec_shapes)
    tr.target(kdmrg, "build_env", "dmrg.build_env")
    tr.target(kvar, "build_env", "dmrg.build_env")
    tr.target(kvar, "nsite_variance", "variance.nsite")
    tr.target(kvar, "apply_window", "variance.window")
    tr.target(kvar, "dense_state", "variance.dense_state")
    tr.target(kvar, "dense_hamiltonian", "variance.dense_hamiltonian", detail=_nbytes)
    tr.target(kexc, "solve_lowest_excitation", "excitation.solve")
    tr.target(
        kexc,
        "lanczos_lowest",
        "excitation.lanczos",
        detail=_iterations,
        arg0=lambda matvec: tr.wrap(matvec, "excitation.matvec"),
    )
    tr.target(kexc, "apply_projected_h", "excitation.apply_h")
    tr.target(kexc, "build_exc_env", "excitation.build_env")
    tr.target(kexc, "flatten", "excitation.flatten")
    tr.target(kexc, "state_from_flat", "excitation.state_from_flat")
    tr.target(kexc, "save_excitation", "excitation.save")
    tr.target(kexc, "load_excitation", "excitation.load")
    return tr


def tensordot_flop(a: tuple[int, ...], b: tuple[int, ...], axes_a, axes_b) -> tuple[int, tuple[int, ...]]:
    """Multiply-add count x2 of a tensordot, and the result's shape."""
    contracted = 1
    for i in axes_a:
        contracted *= a[i]
    free_a = [n for i, n in enumerate(a) if i not in axes_a]
    free_b = [n for i, n in enumerate(b) if i not in axes_b]
    size = 1
    for n in free_a + free_b:
        size *= n
    return 2 * size * contracted, tuple(free_a + free_b)


def matvec_flop(shapes) -> int:
    """Operation count of one ``EffectiveHam.apply``, replayed on shapes only."""
    mode, left, right, ws = shapes
    if mode == "bond":
        f1, cur = tensordot_flop(left, (left[2], right[2]), (2,), (0,))
        f2, _ = tensordot_flop(cur, right, (1, 2), (1, 2))
        return f1 + f2
    x = (left[2],) + tuple(w[2] for w in ws) + (right[2],)
    total, cur = tensordot_flop(left, x, (2,), (0,))
    for w in ws:
        f, cur = tensordot_flop(cur, w, (1, 2), (0, 2))
        total += f
        cur = (cur[0], cur[-1]) + cur[1:-1]
    f, _ = tensordot_flop(cur, right, (2, 1), (2, 1))
    return total + f


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one pipeline repetition's spans."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    own = [d - c for d, c in zip(dur, child)]

    def pick(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def total(*names):
        return float(sum(dur[i] for i in pick(*names)))

    def self_time(*names):
        return float(sum(own[i] for i in pick(*names)))

    def details(name):
        return [spans[i][4] for i in pick(name)]

    solves = set(pick("excitation.solve"))
    matvec_s = self_time("dmrg.matvec")
    gflop = sum(matvec_flop(s) for s in details("dmrg.matvec")) / 1e9
    return {
        "mpo.build_s": total("mpo.build"),
        "mpo.sum_compress_s": total("mpo.sum_compress"),
        "mps.random_s": total("mps.random"),
        "mps.save_s": total("mps.save"),
        "mps.load_s": total("mps.load"),
        "projectors.build_bases_calls": len(pick("projectors.build_bases")),
        "projectors.build_bases_s": total("projectors.build_bases"),
        "dmrg.local_solves": len(pick("dmrg.local_solve")),
        "dmrg.lanczos_iters": sum(details("dmrg.lanczos")),
        "dmrg.matvec_calls": len(pick("dmrg.matvec")),
        "dmrg.matvec_s": matvec_s,
        "dmrg.matvec_gflop": gflop,
        "dmrg.matvec_gflops": gflop / matvec_s if matvec_s > 0.0 else 0.0,
        "dmrg.lanczos_overhead_s": self_time("dmrg.lanczos"),
        "dmrg.sweep_other_s": self_time("dmrg.ground_state"),
        "dmrg.build_env_s": total("dmrg.build_env"),
        "variance.window_calls": len(pick("variance.window")),
        "variance.window_s": total("variance.window"),
        "variance.dense_oracle_s": total("variance.dense_state", "variance.dense_hamiltonian"),
        "ed.dense_h_bytes": max(details("variance.dense_hamiltonian"), default=0),
        "excitation.solve_s": total("excitation.solve"),
        "excitation.lanczos_iters": sum(details("excitation.lanczos")),
        "excitation.matvec_calls": len(pick("excitation.matvec")),
        "excitation.apply_h_s": self_time("excitation.apply_h"),
        "excitation.build_env_calls": len(pick("excitation.build_env")),
        "excitation.build_env_s": total("excitation.build_env"),
        "excitation.flat_s": total("excitation.flatten", "excitation.state_from_flat"),
        "excitation.lanczos_overhead_s": self_time("excitation.lanczos"),
        "excitation.classify_s": float(
            sum(dur[i] for i in pick("excitation.apply_h") if spans[i][3] in solves)
        ),
        "excitation.archive_s": total("excitation.save", "excitation.load"),
    }
