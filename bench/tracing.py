"""Outside-in tracing of mfvol's layers.

The recorder wraps public functions of mfvol's modules, replacing each
module attribute with a wrapper that records a span (name, start, end,
parent) around the call, and puts the originals back afterwards.
Calls between functions of one module go through the module's globals,
so they are traced as well. Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the root


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    # (span index, args, result) of calls whose results the run checks
    captures: list[tuple[int, tuple, object]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def current(self) -> str:
        return self.spans[self._stack[-1]].name if self._stack else ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield index
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None, skip_under: str = ""):
        """``fn`` recorded as span ``name``; ``on_result(index, args,
        result)`` runs after the call. Calls made directly inside a
        ``skip_under`` span are not recorded."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_under and self.current() == skip_under:
                return fn(*args, **kwargs)
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(index, args, result)
            return result
        return wrapper

    def capture(self, index: int, args: tuple, result) -> None:
        self.captures.append((index, args, result))

    def capture_first_step(self, index: int, args: tuple, result) -> None:
        """Keep the first gradient step of each training run, with a copy
        of the weights it saw (training rebinds the dict's entries)."""
        parent = self.spans[index].parent
        if not any(self.spans[i].parent == parent for i, _, _ in self.captures
                   if self.spans[i].name == self.spans[index].name):
            self.captures.append((index, (dict(args[0]),) + args[1:], result))

    # -- analysis -------------------------------------------------------

    def root_of(self, index: int) -> str:
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return self.spans[index].name

    def roots(self) -> list[str]:
        """Root span name of every span (parents precede their children)."""
        out: list[str] = []
        for s in self.spans:
            out.append(s.name if s.parent < 0 else out[s.parent])
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def select(self, name: str, root: str = "", parent: str = "") -> list[int]:
        """Indices of spans called ``name`` under root span ``root`` and,
        when given, directly inside a span called ``parent``."""
        roots = self.roots() if root else []
        return [i for i, s in enumerate(self.spans)
                if s.name == name
                and (not root or roots[i] == root)
                and (not parent or (s.parent >= 0
                                    and self.spans[s.parent].name == parent))]

    def total(self, indices: list[int]) -> float:
        return sum(self.spans[i].end - self.spans[i].start for i in indices)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [[s.name, s.start, s.end, s.parent]
                                 for s in self.spans],
                       "counts": dict(self.counts)}, fh)
            fh.write("\n")


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap mfvol's layer functions; returns what :func:`restore` needs."""
    from mfvol import autodiff, cli, evaluation, features, marketdata
    from mfvol import garch_midas as gm
    from mfvol import realized_vol, simlab
    from mfvol import transformer as tfm

    def count(key, measure):
        """Add ``measure(result)`` to ``key@<root span>``."""
        def on_result(index, _args, result):
            recorder.counts[f"{key}@{recorder.root_of(index)}"] += \
                measure(result)
        return on_result

    targets = [
        (cli, "read_factors", count("factor_rows", lambda t: t.n_rows), ""),
        (cli, "join_h", None, ""),
        (marketdata, "load_intraday", count("bars", lambda s: len(s.bars)), ""),
        (marketdata, "load_daily", None, ""),
        (marketdata, "load_attention", None, ""),
        (marketdata, "load_monthly", None, ""),
        (marketdata, "align_mixed_frequency", None, ""),
        (realized_vol, "compute_rv_series", None, ""),
        (features, "extract_factor_panel", None, ""),
        (gm, "fit", count("nm_evals_best_restart",
                          lambda f: f.convergence["function_evals"]), ""),
        (gm, "log_likelihood", None, ""),
        # inside the likelihood the filter is the likelihood's own work
        (gm, "filter_volatility", None, "gm.log_likelihood"),
        (tfm, "train", None, ""),
        (tfm, "gradient", recorder.capture_first_step, ""),
        (tfm, "forward_batch", None, ""),
        (tfm, "predict", recorder.capture, ""),
        (tfm, "load_model", None, ""),
        (tfm, "save_model", None, ""),
        (evaluation, "evaluate", None, ""),
        (simlab, "gen_full_scenario", None, ""),
    ]
    short = {gm: "gm", tfm: "tfm"}
    saved = []
    for module, attr, on_result, skip in targets:
        original = getattr(module, attr)
        prefix = short.get(module, module.__name__.rsplit(".", 1)[-1])
        saved.append((module, attr, original))
        setattr(module, attr, recorder.wrap(f"{prefix}.{attr}", original,
                                            on_result, skip))

    tensor_init = autodiff.Tensor.__init__

    @functools.wraps(tensor_init)
    def counting_init(self, *args, **kwargs):
        if recorder.current() == "tfm.gradient":
            recorder.counts["tensors_in_gradient"] += 1
        tensor_init(self, *args, **kwargs)

    saved.append((autodiff.Tensor, "__init__", tensor_init))
    autodiff.Tensor.__init__ = counting_init
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
