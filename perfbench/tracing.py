"""In-memory span tracer that wraps metadist's layer functions from outside.

Every wrapped call records a span ``[name, start, end, parent, op]``: the
layer-qualified function name, ``perf_counter`` timestamps, the index of the
enclosing span (-1 at the root) and the id of the benchmark op it served.
Spans stay in a list until the run ends.  Functions are replaced at each
module attribute through which callers reach them (``from x import f``
copies the reference, so the package root and every importing module need
their own patch); one wrapper object serves all sites of a function.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gauss_args: set = set()
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """fn wrapped in a span; observe(args, kwargs, result, exc) counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(rec)
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            self._close(rec)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return traced

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


# --- patch points ----------------------------------------------------------------


def _patch_table(tr: Tracer):
    """(span name, function attribute, modules to patch, observer) rows."""
    import metadist
    from metadist import cli, jacobi, moments, quadrature, scaling, sim

    c = tr.counts

    def quad_obs(args, kwargs, result, exc):
        c["quadrature.calls"] += 1
        if exc is not None:
            c["quadrature.failed"] += isinstance(exc, quadrature.QuadratureError)
        else:
            c["quadrature.evals"] += result.evaluations

    def gauss_obs(args, kwargs, result, exc):
        c["specfun.gauss_2f1.calls"] += 1
        tr.gauss_args.add(args + tuple(sorted(kwargs.items())))

    def inc_beta_obs(args, kwargs, result, exc):
        c["specfun.reg_inc_beta.calls"] += 1

    def cdf_obs(args, kwargs, result, exc):
        x = args[1] if len(args) > 1 else kwargs["x"]
        c["jacobi.eval_cdf.points"] += len(x) if hasattr(x, "__len__") else 1

    def diag_obs(args, kwargs, result, exc):
        if result is not None:
            c["jacobi.convergence_warnings"] += bool(result.warning)

    def campaign_obs(args, kwargs, result, exc):
        if result is not None:
            c["sim.realizations"] += result.config.num_realizations
            c["sim.redraws"] += result.redraws

    def sampled_obs(args, kwargs, result, exc):
        points, num_draws = args[0], (args[2] if len(args) > 2 else kwargs["num_draws"])
        c["sim.ccp_sampled.bytes_computed"] += 8 * num_draws * len(points)

    def power_obs(args, kwargs, result, exc):
        c["scaling.infeasible"] += isinstance(exc, scaling.InfeasibleQosError)

    def main_obs(args, kwargs, result, exc):
        c["cli.exit_nonzero"] += result != 0

    return [
        ("quadrature.integrate_semi_infinite_decaying", "integrate_semi_infinite_decaying",
         (moments,), quad_obs),
        ("specfun.gauss_2f1", "gauss_2f1", (moments,), gauss_obs),
        ("specfun.reg_inc_beta", "reg_inc_beta", (jacobi, cli), inc_beta_obs),
        ("moments.moment_sequence", "moment_sequence", (metadist, moments), None),
        ("moments.moment_exact", "moment_exact", (metadist, moments), None),
        ("moments.moment_approx", "moment_approx", (metadist, moments), None),
        ("moments.coeffs", "coeffs", (metadist, moments), None),
        ("moments.rho_n", "rho_n", (metadist, moments, scaling), None),
        ("moments.approx_error_bound", "approx_error_bound", (metadist, moments), None),
        ("jacobi.reconstruct", "reconstruct", (metadist, jacobi), None),
        ("jacobi.eval_pdf", "eval_pdf", (metadist, jacobi), None),
        ("jacobi.eval_cdf", "eval_cdf", (metadist, jacobi), cdf_obs),
        ("jacobi.meta_reliability", "meta_reliability", (metadist, jacobi), None),
        ("jacobi.convergence_diagnostic", "convergence_diagnostic", (metadist, jacobi), diag_obs),
        ("sim.run_campaign", "run_campaign", (metadist, sim), campaign_obs),
        ("sim.draw_ppp", "draw_ppp", (metadist, sim), None),
        ("sim.ccp_analytic", "ccp_analytic", (metadist, sim), None),
        ("sim.ccp_sampled", "ccp_sampled", (metadist, sim), sampled_obs),
        ("sim.empirical_moments", "empirical_moments", (metadist, sim), None),
        ("sim.empirical_reliability", "empirical_reliability", (metadist, sim), None),
        ("sim.write_samples_csv", "write_samples_csv", (sim,), None),
        ("sim.read_samples_csv", "read_samples_csv", (sim,), None),
        ("scaling.min_power", "min_power", (metadist, scaling), power_obs),
        ("cli.main", "main", (cli,), main_obs),
        ("cli.moments", "cmd_moments", (cli,), None),
        ("cli.reconstruct", "cmd_reconstruct", (cli,), None),
        ("cli.simulate", "cmd_simulate", (cli,), None),
        ("cli.compare", "cmd_compare", (cli,), None),
        ("cli.power", "cmd_power", (cli,), None),
    ]


class patched:
    """Context manager: metadist's layer functions traced into ``tracer``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple] = []

    def __enter__(self) -> Tracer:
        try:
            for name, attr, modules, observe in _patch_table(self.tracer):
                original = getattr(modules[-1], attr)
                wrapper = self.tracer.wrap(name, original, observe)
                for mod in modules:
                    if getattr(mod, attr) is not original:
                        raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


# --- span arithmetic ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def busy_times(spans: list[list]) -> dict[str, float]:
    """Wall time inside each span name, counting nested same-name calls once."""
    busy: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += end - start
    return busy


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per layer (the span name's prefix before the first dot)."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, self_times(spans)):
        out[name.split(".", 1)[0]] += t
    return out
