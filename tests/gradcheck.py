"""Finite-difference check of the analytic gradients, a test oracle beside ``oracles.py``.

Runs the production loss, :func:`prunekit.trainer.penalized_loss`, in float64
(training numerics stay float32; the wider type is what makes a 1e-4 relative
tolerance meaningful against central differences) and compares every sampled
parameter entry's analytic gradient against (L(w+h) - L(w-h)) / 2h.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from prunekit.bundle import ModelBundle
from prunekit.layers import kind_of
from prunekit.network import GradTape, Network
from prunekit.trainer import penalized_loss


def astype(net: Network, dtype) -> Network:
    """Copy of the network with every parameter cast to dtype."""
    g = net.graph.copy()
    for node in g.nodes:
        for k in node.params:
            node.params[k] = node.params[k].astype(dtype)
    return Network(g)


@dataclass
class GradCheckReport:
    max_rel_err: float = 0.0
    per_param: dict = field(default_factory=dict)    # "node/param" -> its largest error
    failures: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and self.checked > 0


def grad_check(bundle: ModelBundle, x: np.ndarray, labels: np.ndarray,
               samples_per_tensor: int = 4, step: float = 1e-5,
               threshold: float = 1e-4, variant: str = "softmax-ce",
               weight_decay: float = 0.0, training: bool = True,
               seed: int = 0) -> GradCheckReport:
    """Compare the training step's gradients with central differences on sampled entries.

    Both sides run :func:`trainer.penalized_loss`, the loss ``train`` runs.
    ``samples_per_tensor=None`` perturbs every entry (exhaustive mode, only
    sensible for very small networks).  Parameters that are not trainable
    (batchnorm's running statistics) are restored between evaluations, so
    each perturbation sees identical state.

    The default step suits whole-network checks, where loss curvature makes
    the truncation term of a central difference the accuracy bottleneck;
    single layers tolerate much larger steps.
    """
    net = astype(Network(bundle.graph), np.float64)
    x = x.astype(np.float64)
    rng = np.random.default_rng(seed)
    report = GradCheckReport()
    state = {(n.id, p): a.copy() for n in net.graph.nodes for p, a in n.params.items()
             if p not in kind_of(n).trainable}

    def loss_at(tape=None):
        for (nid, p), v in state.items():
            net.graph.node(nid).params[p] = v.copy()
        return penalized_loss(net, x, labels, variant, weight_decay, training, tape)[0]

    tape = GradTape()
    if not math.isfinite(loss_at(tape)):
        # name the first layer whose output went non-finite
        bad = next((n.id for n, y, _ in net.walk(x, training) if not np.isfinite(y).all()), None)
        report.failures.append((bad, "non-finite output") if bad else
                               ("<loss>", "non-finite loss"))
        return report

    for node_id, pname, w in net.trainable_parameters():
        analytic = tape.grads.get((node_id, pname))
        if analytic is None:
            continue
        flat_w = w.reshape(-1)
        if samples_per_tensor is None or samples_per_tensor >= flat_w.size:
            idx = np.arange(flat_w.size)
        else:
            idx = rng.choice(flat_w.size, size=samples_per_tensor, replace=False)
        worst_here = 0.0
        for i in idx:
            orig = flat_w[i]
            flat_w[i] = orig + step
            lp = loss_at()
            flat_w[i] = orig - step
            lm = loss_at()
            flat_w[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            a = float(analytic.reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            report.checked += 1
            worst_here = max(worst_here, rel)
            report.max_rel_err = max(report.max_rel_err, rel)
            if rel > threshold:
                report.failures.append(((node_id, pname, int(i)), rel))
        report.per_param[f"{node_id}/{pname}"] = worst_here
    return report
