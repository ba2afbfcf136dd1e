"""Span tracing of bprlab from outside the package.

`Tracer.install` wraps every public function and every public method of a
public class defined in the layer modules, and rebinds each wrapped function
under every name that refers to it in any layer module, so that a function
imported with `from .envs import ...` is traced at each of its call sites.
`uninstall` puts the originals back. Spans stay in memory; `write` dumps
them as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("numerics", "envs", "bpr", "agents", "analysis")


class Tracer:
    def __init__(self, package):
        self.modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                        for name in LAYERS}
        # span: [name, start, end, parent index, op index or None, units]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = None

    # ------------------------------------------------------------ recording

    def _open(self, name: str, units: float) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, units])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def region(self, name: str, units: float):
        """A span opened by the benchmark around one call, carrying the
        number of steps (or episodes) that call performs."""
        if not self.installed:
            yield
            return
        idx = self._open(name, units)
        try:
            yield
        finally:
            self._close(idx)

    # ------------------------------------------------------------ install

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self) -> None:
        if self.installed:
            return
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for other in self.modules.values():
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._restore.append((other, key, obj))
                                setattr(other, key, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------ output

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "units")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, n_ops: int, units_per_call: dict[str, float]) -> dict[str, float]:
        """Per-op counts and self times of the spans recorded inside timed ops,
        per-call times of every span, and per-step times from regions or
        from `units_per_call`."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, units in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        call_ms: dict[str, list[float]] = {}
        op_call_ms: dict[str, list[float]] = {}
        unit_ms: dict[str, float] = {}
        unit_total: dict[str, float] = {}
        for i, (name, start, end, parent, op, units) in enumerate(self.spans):
            ms = 1e3 * (end - start)
            call_ms.setdefault(name, []).append(ms)
            if op is None:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + ms - 1e3 * child_time[i]
            op_call_ms.setdefault(name, []).append(ms)
            per_call = units or units_per_call.get(name, 0.0)
            if per_call:
                unit_ms[name] = unit_ms.get(name, 0.0) + ms
                unit_total[name] = unit_total.get(name, 0.0) + per_call

        def per_op(table, name):
            return table.get(name, 0) / n_ops

        def median(table, name):
            values = table.get(name)
            return statistics.median(values) if values else 0.0

        def per_unit(name):
            return unit_ms[name] / unit_total[name] if name in unit_ms else 0.0

        eig = op_call_ms.get("numerics.symmetric_eigenvalues", [])
        out = {}
        for name in ("numerics.forward", "numerics.backward", "numerics.adam_step",
                     "envs.OfflineDataset.arrays", "envs.evaluate_policy_exact",
                     "analysis.effective_dimension"):
            out[f"{name}.calls_per_op"] = per_op(calls, name)
            out[f"{name}.self_ms_per_op"] = per_op(self_ms, name)
        out["numerics.symmetric_eigenvalues.calls_per_op"] = len(eig) / n_ops
        out["numerics.symmetric_eigenvalues.ms.p50"] = statistics.median(eig) if eig else 0.0
        out["numerics.symmetric_eigenvalues.ms.max"] = max(eig) if eig else 0.0
        for name in ("envs.generate_dataset", "envs.save_dataset", "envs.load_dataset"):
            out[f"{name}.ms"] = median(call_ms, name)
        for name in ("envs.empirical_mdp_from_dataset", "bpr.EncoderModel.encode",
                     "agents.extract_features", "agents.train_spibb_tabular",
                     "analysis.verify_theorem2", "analysis.verify_theorem3"):
            out[f"{name}.self_ms_per_op"] = per_op(self_ms, name)
        out["envs.PointMassEnv.step.calls_per_op"] = per_op(calls, "envs.PointMassEnv.step")
        out["bpr.EncoderModel.param_hash.calls_per_op"] = per_op(calls, "bpr.EncoderModel.param_hash")
        out["bpr.pretrain.ms_per_step"] = per_unit("bpr.pretrain")
        for variant in ("raw", "frozen", "cotrain"):
            out[f"agents.train_td3bc.{variant}.ms_per_step"] = per_unit(f"agents.train_td3bc.{variant}")
        out["agents.train_cql_continuous.ms_per_step"] = per_unit("agents.train_cql_continuous")
        out["agents.train_cql_tabular.ms_per_step"] = per_unit("agents.train_cql_tabular")
        out["agents.evaluate_return.ms_per_episode"] = per_unit("agents.evaluate_return")
        return out
