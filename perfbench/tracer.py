"""Outside-in spans around lcfed's public functions.

A ``Tracer`` swaps module attributes (and a few methods) for timed wrappers.
Nothing inside ``lcfed`` changes, so a traced run computes exactly what an
untraced run computes.  Each span is ``(name, start, end, parent, step)``:
``parent`` is the index of the enclosing span (-1 at the top) and ``step`` the
id of the training step in progress (``None`` outside training steps, e.g.
during evaluation).

Spans stay in memory until the run ends, packed into anonymous memory maps
rather than Python lists: a growing list on the malloc heap moves glibc's
dynamic mmap and trim thresholds, which changes how often the program's own
numpy temporaries fault in fresh pages and would make the traced run cheaper
than the untraced one.

Backward time is attributed per op: every graph node's ``_grad_fn`` is
replaced by a timed callable, so ``tensor.backward``'s self time is the graph
traversal alone.
"""

from __future__ import annotations

import json
import mmap
import statistics
import struct
import sys
import time
from collections import Counter, defaultdict

STEP = "federation.step"

_SPAN = struct.Struct("=iiidd")        # name id, parent, step (-1: none), start, end
_END_OFFSET = _SPAN.size - 8
_CHUNK = 1 << 18                         # spans per memory map

# parameter prefixes of the convolutions of the 5-stage U-Net; a smaller
# model simply reports 0 for the stages it does not have
CONV_PREFIXES = ([f"enc{i}" for i in range(5)] + [f"up{i}" for i in range(4)]
                 + [f"dec{i}" for i in range(4)])

# single-node ops whose forward and backward are reported separately
NODE_OPS = ("layers.instance_norm", "model.max_pool2x2", "model.upsample_nearest2x",
            "layers.per_pixel_linear")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def conv_flops(x_shape, kernel_shape, out_shape) -> int:
    """Multiply-adds of one forward convolution, counted as 2 flops each."""
    b, cin = x_shape[0], x_shape[1]
    cout, _, kh, kw = kernel_shape
    return 2 * b * cout * cin * kh * kw * out_shape[2] * out_shape[3]


class _TimedGradFn:
    """A graph node's backward closure, timed as one span."""

    __slots__ = ("tracer", "fn", "name")

    def __init__(self, tracer, fn, name):
        self.tracer = tracer
        self.fn = fn
        self.name = name

    def __call__(self, g):
        idx = self.tracer.open(self.name)
        try:
            self.fn(g)
        finally:
            self.tracer.close(idx)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counts = Counter()
        self._names = []
        self._name_ids = {}
        self._chunks = []
        self._n = 0
        self.step = None
        self._step_span = -1
        self._stack = []
        self._undo = []
        self._conv_names = {}
        self._bwd_names = {}

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = self._n
        if idx % _CHUNK == 0:
            self._chunks.append(mmap.mmap(-1, _CHUNK * _SPAN.size))
        self._n += 1
        parent = self._stack[-1] if self._stack else -1
        step = -1 if self.step is None else self.step
        _SPAN.pack_into(self._chunks[idx // _CHUNK], (idx % _CHUNK) * _SPAN.size,
                        self._name_id(name), parent, step, self.clock(), 0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        struct.pack_into("=d", self._chunks[idx // _CHUNK],
                         (idx % _CHUNK) * _SPAN.size + _END_OFFSET, self.clock())
        while self._stack and self._stack.pop() != idx:
            pass

    def rename(self, idx: int, name: str):
        struct.pack_into("=i", self._chunks[idx // _CHUNK], (idx % _CHUNK) * _SPAN.size,
                         self._name_id(name))

    @property
    def spans(self) -> list:
        """Every span recorded so far as (name, start, end, parent, step)."""
        out = []
        for i, chunk in enumerate(self._chunks):
            count = min(self._n - i * _CHUNK, _CHUNK)
            for nid, parent, step, start, end in _SPAN.iter_unpack(chunk[:count * _SPAN.size]):
                out.append((self._names[nid], start, end, parent, None if step < 0 else step))
        return out

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "step"],
                       "spans": self.spans}, fh)

    # -- wrapping ------------------------------------------------------------

    def _replace(self, owner, attr, new):
        """Point owner.attr, and every lcfed module alias of it, at `new`."""
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, new)
            return orig
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lcfed" or mod_name.startswith("lcfed.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, new)
        return orig

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Time every call of owner.attr as a span called `name`.

        `before(args, kwargs)` runs ahead of the span; `after(idx, args,
        kwargs, out)` runs once the call has returned.
        """
        orig = getattr(owner, attr)

        def timed(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        self._replace(owner, attr, timed)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def install_rounds(self, lcfed, before_round=None, after_round=None):
        """Round-level timestamps only: what the untraced run pays for."""
        self.wrap(lcfed.federation, "run_round", "federation.run_round",
                  before=before_round, after=after_round)
        self.wrap(lcfed.federation, "evaluate_clients", "federation.evaluate_clients")
        self.wrap(lcfed.checkpoint, "save_checkpoint", "checkpoint.save")

    def install_layers(self, lcfed):
        """Spans around the public functions of every layer."""
        fed, tensor = lcfed.federation, lcfed.tensor
        simple = [
            (lcfed.runner, "run_experiment", "runner.run_experiment"),
            (lcfed.data, "generate_benchmark", "data.generate_benchmark"),
            (fed, "initial_state", "federation.initial_state"),
            (fed, "local_update", "federation.local_update"),
            (lcfed.optim.Adam, "zero_grad", "optim.zero_grad"),
            (tensor.Tensor, "backward", "tensor.backward"),
            (lcfed.pcs, "augment_embedding", "pcs.augment_embedding"),
            (lcfed.pcs, "site_contrast_loss", "pcs.site_contrast_loss"),
            (lcfed.hc, "head_calibration", "hc.head_calibration"),
            (lcfed.hc, "evaluate_heads", "hc.evaluate_heads"),
            (lcfed.hc, "nms2d", "hc.nms2d"),
            (lcfed.hc, "gaussian_spread", "hc.gaussian_spread"),
            (lcfed.losses, "dice_loss", "losses.dice_loss"),
            (lcfed.losses, "joint_loss", "losses.joint_loss"),
            (lcfed.metrics, "iou", "metrics.iou"),
            (lcfed.metrics, "assd", "metrics.assd"),
            (lcfed.checkpoint, "load_checkpoint", "checkpoint.load"),
        ]
        for owner, attr, name in simple:
            self.wrap(owner, attr, name)
        for attr, name in zip(("instance_norm", "max_pool2x2", "upsample_nearest2x",
                               "per_pixel_linear"), NODE_OPS):
            self.wrap(lcfed.layers, attr, name, after=self._name_backward(name))
        self.wrap(tensor, "conv2d", "tensor.conv2d", after=self._after_conv)
        self.wrap(fed, "build_clients", "federation.build_clients",
                  after=self._register_convs)
        self.wrap(fed, "fedavg", "federation.fedavg", before=self._count_fedavg)
        self.wrap(fed, "forward_predict", "federation.forward_predict",
                  before=self._count_predict)
        self.wrap(fed, "forward_training", "federation.forward_training",
                  before=self._start_step)
        self.wrap(lcfed.optim.Adam, "step", "optim.step",
                  after=lambda idx, args, kwargs, out: self._end_step())
        self._wrap_graph_node(tensor)
        self._count_accumulate(tensor.Tensor)

    # -- hooks ---------------------------------------------------------------

    def _start_step(self, args, kwargs):
        if self.step is not None:  # the previous step raised before its optimizer step
            self._end_step()
        self.step = self.counts["federation.steps"]
        self.counts["federation.steps"] += 1
        self._step_span = self.open(STEP)

    def _end_step(self):
        if self.step is not None:
            self.close(self._step_span)
            self.step = None

    def _name_backward(self, name):
        def after(idx, args, kwargs, out):
            if isinstance(out._grad_fn, _TimedGradFn):
                out._grad_fn.name = name + ".bwd"
        return after

    def _register_convs(self, idx, args, kwargs, clients):
        for client in clients:
            for name, t, _ in client.model.named_parameters():
                if t.data.ndim == 4:
                    self._conv_names[id(t)] = "tensor.conv2d." + name.split(".", 1)[0]

    def _after_conv(self, idx, args, kwargs, out):
        x = args[0]
        kernels = args[1] if len(args) > 1 else kwargs["kernels"]
        name = self._conv_names.get(id(kernels), "tensor.conv2d.other")
        self.rename(idx, name)
        if isinstance(out._grad_fn, _TimedGradFn):
            out._grad_fn.name = name + ".bwd"
        if self.step is not None:
            self.counts["tensor.conv2d.flop"] += conv_flops(x.shape, kernels.shape, out.shape)

    def _count_fedavg(self, args, kwargs):
        sets = args[0] if args else kwargs["sets"]
        self.counts["federation.fedavg.bytes"] += sum(
            a.nbytes for s in sets for a in (s if isinstance(s, dict) else s.values).values())

    def _count_predict(self, args, kwargs):
        xb = args[1] if len(args) > 1 else kwargs["xb"]
        self.counts["federation.forward_predict.images"] += xb.shape[0]

    def _wrap_graph_node(self, tensor):
        orig = tensor.graph_node

        def graph_node(data, parents, grad_fn):
            out = orig(data, parents, grad_fn)
            if out._grad_fn is not None:
                out._grad_fn = _TimedGradFn(self, out._grad_fn, self._backward_name(grad_fn))
            return out

        self._replace(tensor, "graph_node", graph_node)

    def _backward_name(self, fn) -> str:
        code = fn.__code__
        name = self._bwd_names.get(code)
        if name is None:
            owner = fn.__qualname__.split(".<locals>", 1)[0]
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{owner}.bwd"
            self._bwd_names[code] = name
        return name

    def _count_accumulate(self, tensor_cls):
        orig = tensor_cls.accumulate_grad
        counts = self.counts

        def accumulate_grad(t, g):
            if self.step is not None:
                counts["tensor.accumulate_grad"] += 1
                if t.grad is None:
                    counts["tensor.grad_alloc"] += 1
            return orig(t, g)

        self._replace(tensor_cls, "accumulate_grad", accumulate_grad)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from a finished traced run.

    ``*_ms`` op figures are milliseconds per training step; evaluation-time
    calls of the same functions are excluded.  Per-call figures are marked
    as such in BENCHMARK.json's units.
    """
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    in_step = defaultdict(float)
    self_in_step = defaultdict(float)
    total = defaultdict(float)
    calls = Counter()
    for (name, start, end, _, step), own_s in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        if step is not None:
            in_step[name] += end - start
            self_in_step[name] += own_s
    step_s = tracer.durations(STEP)
    n = max(len(step_s), 1)

    def per_step(name):
        return 1e3 * in_step[name] / n

    def per_call(name, scale=1e3):
        return scale * total[name] / calls[name] if calls[name] else 0.0

    m = {}
    for prefix in CONV_PREFIXES:
        m[f"tensor.conv2d.{prefix}.fwd_ms"] = per_step(f"tensor.conv2d.{prefix}")
        m[f"tensor.conv2d.{prefix}.bwd_ms"] = per_step(f"tensor.conv2d.{prefix}.bwd")
    m["tensor.conv2d.gflop_per_step"] = counts["tensor.conv2d.flop"] / n / 1e9
    for op in NODE_OPS:
        m[f"{op}.fwd_ms"] = per_step(op)
        m[f"{op}.bwd_ms"] = per_step(op + ".bwd")
    m["tensor.backward_ms"] = per_step("tensor.backward")
    m["tensor.backward.self_ms"] = 1e3 * self_in_step["tensor.backward"] / n
    m["tensor.accumulate_grad.calls_per_step"] = counts["tensor.accumulate_grad"] / n
    m["tensor.grad_alloc.calls_per_step"] = counts["tensor.grad_alloc"] / n
    if len(step_s) >= 2:
        m["federation.step_ms.p50"] = 1e3 * statistics.median(step_s)
        m["federation.step_ms.p90"] = 1e3 * statistics.quantiles(step_s, n=10)[-1]
    else:
        m["federation.step_ms.p50"] = m["federation.step_ms.p90"] = 1e3 * sum(step_s)
    for name in ("federation.forward_training", "optim.step", "optim.zero_grad",
                 "pcs.augment_embedding", "pcs.site_contrast_loss",
                 "hc.head_calibration", "hc.evaluate_heads", "hc.nms2d", "hc.gaussian_spread",
                 "losses.dice_loss", "losses.joint_loss"):
        m[name + "_ms"] = per_step(name)
    m["federation.fedavg_ms"] = per_call("federation.fedavg")
    fedavg_calls = calls["federation.fedavg"]
    m["federation.fedavg_bytes"] = (counts["federation.fedavg.bytes"] / fedavg_calls
                                    if fedavg_calls else 0.0)
    m["federation.evaluate_clients_s"] = per_call("federation.evaluate_clients", 1.0)
    images = counts["federation.forward_predict.images"]
    m["federation.forward_predict_ms"] = (1e3 * total["federation.forward_predict"] / images
                                          if images else 0.0)
    m["metrics.assd_ms"] = per_call("metrics.assd")
    m["metrics.iou_ms"] = per_call("metrics.iou")
    m["checkpoint.save_ms"] = per_call("checkpoint.save")
    m["checkpoint.load_ms"] = per_call("checkpoint.load")
    m["data.generate_benchmark_s"] = total["data.generate_benchmark"]
    m["federation.build_clients_s"] = total["federation.build_clients"]
    m["federation.initial_state_s"] = total["federation.initial_state"]
    return m
