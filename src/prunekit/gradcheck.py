"""Finite-difference verification of the analytic gradients.

Runs the whole loss pipeline in float64 (training numerics stay float32;
the wider type is what makes a 1e-4 relative tolerance meaningful against
central differences with a 1e-3 step) and compares every sampled parameter
entry's analytic gradient against (L(w+h) - L(w-h)) / 2h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .bundle import ModelBundle
from .network import GradTape, Network
from .trainer import _onehot, add_penalty_grad, data_loss_and_grad, penalty_value


@dataclass
class GradCheckReport:
    threshold: float
    step: float
    max_rel_err: float = 0.0
    worst: tuple | None = None           # (node_id, param, flat_index)
    per_param: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and self.checked > 0


def _loss_fn(net: Network, x, onehot, variant, weight_decay, training):
    data, _ = data_loss_and_grad(net.forward(x, training=training), onehot, variant)
    pen, _ = penalty_value([w for _, _, w in net.weight_parameters()], weight_decay)
    return data + pen


def grad_check(bundle: ModelBundle, x: np.ndarray, labels: np.ndarray,
               samples_per_tensor: int = 4, step: float = 1e-5,
               threshold: float = 1e-4, variant: str = "softmax-ce",
               weight_decay: float = 0.0, training: bool = True,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic and central-difference gradients on sampled entries.

    ``samples_per_tensor=None`` perturbs every entry (exhaustive mode, only
    sensible for very small networks).  Batchnorm runs in the same mode for
    both sides, and running statistics are restored between evaluations so
    each perturbation sees identical state.

    The default step suits whole-network checks, where loss curvature makes
    the truncation term of a central difference the accuracy bottleneck;
    single layers tolerate much larger steps.
    """
    net = Network(bundle.graph).astype(np.float64)
    x = x.astype(np.float64)
    classes = net.graph.nodes_of_kind("fullyconnected")[-1].attrs["out_features"]
    onehot = _onehot(labels, classes, np.float64)
    rng = np.random.default_rng(seed)
    report = GradCheckReport(threshold=threshold, step=step)

    # analytic pass
    bn_state = {(n.id, p): n.params[p].copy() for n in net.graph.nodes
                if n.kind == "batchnorm" for p in ("running_mean", "running_var")}

    def restore_bn():
        for (nid, p), v in bn_state.items():
            net.graph.node(nid).params[p] = v.copy()

    tape = GradTape()
    probs = net.forward(x, training=training, tape=tape)
    if not np.isfinite(probs).all():
        # name the first layer whose output went non-finite
        for nid in tape.order:
            if not np.isfinite(tape.outputs[nid]).all():
                report.failures.append((nid, "non-finite output"))
                return report
    data_loss, dprobs = data_loss_and_grad(probs, onehot, variant)
    if not math.isfinite(data_loss):
        report.failures.append(("<loss>", "non-finite loss"))
        return report
    net.backward(dprobs, tape)
    _, n_weights = penalty_value([w for _, _, w in net.weight_parameters()], weight_decay)
    add_penalty_grad(net, tape, weight_decay, n_weights)
    restore_bn()

    for node_id, pname, w in net.trainable_parameters():
        analytic = tape.grads.get((node_id, pname))
        if analytic is None:
            continue
        flat_w = w.reshape(-1)
        size = flat_w.size
        if samples_per_tensor is None or samples_per_tensor >= size:
            idx = np.arange(size)
        else:
            idx = rng.choice(size, size=samples_per_tensor, replace=False)
        worst_here = 0.0
        for i in idx:
            orig = flat_w[i]
            flat_w[i] = orig + step
            restore_bn()
            lp = _loss_fn(net, x, onehot, variant, weight_decay, training)
            flat_w[i] = orig - step
            restore_bn()
            lm = _loss_fn(net, x, onehot, variant, weight_decay, training)
            flat_w[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            a = float(analytic.reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            report.checked += 1
            if rel > worst_here:
                worst_here = rel
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst = (node_id, pname, int(i))
            if rel > threshold:
                report.failures.append(((node_id, pname, int(i)), rel))
        report.per_param[f"{node_id}/{pname}"] = worst_here
    restore_bn()
    return report
