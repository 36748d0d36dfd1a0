"""The package's layers as the benchmark traces them, and the trace summary.

Layers are the package's modules. ``cli`` is an argparse shell and
``gradcheck`` a verification tool, so neither is a timed layer. Each public
function below is wrapped wherever the package binds it, including the
names ``training`` and ``scoring`` import from ``backend`` and ``data``.
Autodiff ops are only counted (a call whose result is on a tape), not
spanned: there are tens of thousands per step.

All ``*.ms`` metrics of a named function are milliseconds per call, over
set-up and the traced operations. ``*.calls`` and the layer self times
(``layer.<name>.self_ms``) are per operation: per training step or score
job. A layer's self time is the sum of its spans' self times, so the
layers plus ``trace.unattributed_ms`` (the benchmark's own code between
calls) add up to ``trace.op_ms``.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from sasvbackend import autodiff as ad
from sasvbackend import backend, cli, gradcheck, metrics, sampling, scoring, training
from sasvbackend import data as dio

from .tracer import Tracer, self_times

LAYERS = ("sampling", "backend", "autodiff", "training", "scoring", "metrics", "data")

FUNCTIONS = {
    sampling: ("draw_batch", "expand_pairs"),
    backend: ("pool_enrollments", "average_pool", "asv_probability", "cm_probability", "fuse"),
    training: ("batch_loss", "select_hard", "sgd_step"),
    scoring: ("score_trials",),
    metrics: ("evaluate",),
    dio: ("generate_synthetic", "write_synthetic", "load_manifest", "load_embeddings",
          "build_records", "load_trials", "resolve_trials", "save_scores", "load_scores"),
}

METHODS = (
    (backend.BackendParams, "load", "backend.checkpoint_load"),
    (backend.BackendParams, "save", "backend.checkpoint_save"),
    (ad.Tape, "backward", "autodiff.backward"),
    (ad.Tape, "clear", "autodiff.clear"),
)

COUNTED_OPS = ("add", "sub", "mul", "div", "affine", "matmul", "transpose", "add_bias",
               "tanh", "sigmoid", "log", "clamp", "norm", "zero_rows", "softmax_masked")

PACKAGE_MODULES = (sampling, backend, training, scoring, metrics, dio, cli, gradcheck)

POOL = ("backend.pool_enrollments", "backend.average_pool")
HEADS = ("backend.asv_probability", "backend.cm_probability", "backend.fuse")


def _layer_name(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


class LayerTrace:
    """A tracer installed on the package, plus the counts its hooks take."""

    def __init__(self):
        self.tracer = Tracer()
        self.bytes_parsed = 0
        self.cm_inputs: dict[int, set] = defaultdict(set)

    def _note_file(self, args) -> None:
        self.bytes_parsed += os.path.getsize(args[0])

    def _note_cm_input(self, args) -> None:
        self.cm_inputs[self.tracer.unit_id].add(args[1].value.tobytes())

    def install(self) -> None:
        hooks = {"load_embeddings": self._note_file, "cm_probability": self._note_cm_input}
        for home, names in FUNCTIONS.items():
            for attr in names:
                fn = getattr(home, attr)
                for module in PACKAGE_MODULES:
                    if vars(module).get(attr) is fn:
                        self.tracer.patch(module, attr, f"{_layer_name(home)}.{attr}",
                                          hooks.get(attr))
        for owner, attr, name in METHODS:
            self.tracer.patch(owner, attr, name)
        for attr in COUNTED_OPS:
            self.tracer.count(ad, attr)

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def summary(self, outcomes: list, untraced_seconds: float) -> dict:
        """Every per-layer metric; None where the workload does not run it.

        outcomes are the traced operations' results (None for a failed one);
        untraced_seconds is the time the same operations took untraced.
        """
        tr = self.tracer
        spans = tr.arrays()
        names = np.array(tr.names)[spans["name"]]
        unit = spans["unit"]
        dur = (spans["end"] - spans["start"]) / 1e6
        own = self_times(spans["start"], spans["end"], spans["parent"]) / 1e6
        in_ops = unit >= 0
        roots = in_ops & (spans["parent"] < 0)
        n_ops = int(roots.sum())
        done = [o for o in outcomes if o is not None]
        items = sum(o.items for o in done)
        is_train = bool(np.any(names == "sampling.draw_batch"))

        def calls(which):
            return int((np.isin(names, which) & in_ops).sum())

        def per_call(name, times=dur):
            mask = names == name
            return float(times[mask].mean()) if mask.any() else None

        def self_per_op(which):
            return float(own[np.isin(names, which) & in_ops].sum()) / n_ops

        def ratio(num, den):
            return num / den if den else None

        layer_self = {layer: float(own[np.char.startswith(names, layer + ".") & in_ops].sum())
                      / n_ops for layer in LAYERS}
        op_ms = float(dur[roots].mean())
        parse_ms = float(dur[names == "data.load_embeddings"].sum())
        score_ms = float(dur[(names == "scoring.score_trials") & in_ops].sum())

        out = {
            "sampling.draw_batch.ms": per_call("sampling.draw_batch"),
            "sampling.expand_pairs.ms": per_call("sampling.expand_pairs"),
            "sampling.pairs_per_step": items / len(done) if is_train and done else 0,
            "backend.pool.calls": calls(POOL) / n_ops,
            "backend.pool.ms": self_per_op(POOL),
            "backend.pool.reuse_ratio": ratio(items, calls(POOL)),
            "backend.heads.calls": calls(HEADS) / n_ops,
            "backend.heads.ms": self_per_op(HEADS),
            "backend.cm_head.useful_ratio": ratio(
                sum(len(s) for u, s in self.cm_inputs.items() if u >= 0),
                calls(["backend.cm_probability"])),
            "backend.checkpoint_load.ms": per_call("backend.checkpoint_load"),
            "autodiff.ops_per_step": sum(v for u, v in tr.unit_ops.items() if u >= 0) / n_ops,
            "autodiff.backward.ms": per_call("autodiff.backward"),
            "autodiff.clear.ms": per_call("autodiff.clear"),
            "training.batch_loss.self_ms": per_call("training.batch_loss", own),
            "training.select_hard.ms": per_call("training.select_hard"),
            "training.sgd_step.ms": per_call("training.sgd_step"),
            "training.selected_ratio":
                ratio(sum(o.selected for o in done), items) if is_train else None,
            "scoring.score_trials.self_ms": per_call("scoring.score_trials", own),
            "scoring.trials_per_s": None if is_train else ratio(items, score_ms / 1e3),
            "metrics.evaluate.ms": per_call("metrics.evaluate"),
            "data.load_embeddings.ms": per_call("data.load_embeddings"),
            "data.load_embeddings.mb_per_s": ratio(self.bytes_parsed / 1e6, parse_ms / 1e3),
            "data.load_trials.ms": per_call("data.load_trials"),
            "data.save_scores.ms": per_call("data.save_scores"),
            "data.load_scores.ms": per_call("data.load_scores"),
            "data.generate_synthetic.ms": per_call("data.generate_synthetic"),
            "data.write_synthetic.ms": per_call("data.write_synthetic"),
            "data.build_records.ms": per_call("data.build_records"),
        }
        out.update({f"layer.{layer}.self_ms": v for layer, v in layer_self.items()})
        out.update({
            "trace.ops": n_ops,
            "trace.spans": int(len(names)),
            "trace.op_ms": op_ms,
            "trace.unattributed_ms": float(own[roots].sum()) / n_ops,
            "trace.layer_coverage": sum(layer_self.values()) / op_ms,
            "trace.overhead_frac": sum(o.seconds for o in done) / untraced_seconds - 1.0,
        })
        return out

