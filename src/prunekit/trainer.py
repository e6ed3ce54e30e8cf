"""Mini-batch SGD with momentum, L2 penalty, and the three-plateau LR schedule.

The update is ``v_t = momentum * v_{t-1} - lr * g_t; w += v_t`` with the
velocity starting at zero, where ``g_t`` is the mini-batch mean gradient of
the penalized loss.  The learning rate drops by 10x at 50% and again at 75%
of the epoch budget.  Training is deterministic under a fixed seed and data
order; the checkpoint with the best eval accuracy is returned.

Two data-term variants are provided: standard softmax cross-entropy, and a
per-class binary form that also charges the complement probabilities
(``-sum[y log p + (1-y) log(1-p)]``).  The binary form treats each softmax
output as an independent probability; both are exposed because either
reading is defensible, with softmax-ce the default.

The L2 penalty is ``weight_decay / (2n) * sum(w^2)`` with ``n`` the total
weight count, so each weight's decay gradient is ``weight_decay / n * w``.
The default ``1e-4`` therefore acts as about 5e-9 per weight on the gated
desk-scale tiny-vgg (n = 18688) and 1.2e-10 on gated resnet56 (n = 857552).
Which ``n`` the paper means waits for its full text (see README, "L2
scale").

:func:`penalized_loss` is the one training step's loss and gradient:
:func:`train` runs it on every batch, and ``tests/gradcheck.py`` verifies it.
Each epoch's evaluation runs at the training batch size, so no pass holds
more than one training batch of activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bundle import ModelBundle
from .errors import TrainingDiverged
from .network import GradTape, Network
from .records import Record, at_least

PROB_EPS = 1e-12   # probability clamp; keeps log() finite
LOSS_VARIANTS = ("softmax-ce", "binary-ce")


@dataclass
class TrainConfig(Record):
    epochs: int = 160
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    loss_variant: str = "softmax-ce"
    lr_milestones: tuple[float, float] = (0.5, 0.75)
    lr_gamma: float = 0.1
    augment: bool = False   # pad-4 random crop + horizontal flip on train batches

    def __post_init__(self):
        at_least(self, epochs=1, batch_size=1, seed=0, weight_decay=0)
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.lr_gamma <= 0:
            raise ValueError("lr_gamma must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Plateau schedule: lr, then lr*gamma, then lr*gamma^2."""
    lr = config.lr
    for frac in config.lr_milestones:
        if epoch >= int(config.epochs * frac):
            lr *= config.lr_gamma
    return lr


# ---------------------------------------------------------------------------
# loss

def data_loss_and_grad(probs: np.ndarray, onehot: np.ndarray, variant: str):
    """Mean per-sample data loss over the batch and its gradient w.r.t. probs.

    Always evaluated in float64: the probability clamp is not representable
    next to 1 in float32, and the complement term of the binary form needs
    it there.
    """
    n = probs.shape[0]
    p = np.clip(probs.astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = onehot.astype(np.float64)
    if variant == "softmax-ce":
        loss = -(y * np.log(p)).sum() / n
        dprobs = -(y / p) / n
    else:
        loss = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum() / n
        dprobs = (-(y / p) + (1.0 - y) / (1.0 - p)) / n
    return float(loss), dprobs.astype(probs.dtype, copy=False)


def penalty_value(weights, weight_decay: float):
    """L2 penalty (weight_decay / 2n) * sum(w^2); n is the total weight count."""
    n = sum(int(w.size) for w in weights)
    if n == 0 or weight_decay == 0.0:
        return 0.0, max(n, 1)
    sq = math.fsum(float(np.vdot(w, w)) for w in weights)
    return weight_decay / (2.0 * n) * sq, n


def _onehot(y: np.ndarray, classes: int, dtype) -> np.ndarray:
    out = np.zeros((y.shape[0], classes), dtype=dtype)
    out[np.arange(y.shape[0]), y] = 1
    return out


def penalized_loss(net: Network, x: np.ndarray, y: np.ndarray, variant: str,
                   weight_decay: float, training: bool, tape: GradTape | None = None):
    """Forward pass and penalized batch loss; returns ``(loss, probs)``.

    With a tape, a finite loss is also back-propagated: the tape then holds
    the gradient of the data term plus the penalty's ``weight_decay / n * w``.
    """
    probs = net.forward(x, training=training, tape=tape)
    data_loss, dprobs = data_loss_and_grad(
        probs, _onehot(y, probs.shape[1], probs.dtype), variant)
    params = list(net.weight_parameters())
    pen, n_weights = penalty_value([w for _, _, w in params], weight_decay)
    value = data_loss + pen
    if tape is not None and math.isfinite(value):
        net.backward(dprobs, tape)
        if weight_decay > 0.0:  # the penalty's gradient, (weight_decay / n) * w
            scale = weight_decay / n_weights
            for node_id, pname, w in params:
                tape.accumulate(node_id, pname, scale * w)
    return value, probs


# ---------------------------------------------------------------------------
# optimizer

class OptimizerState:
    """Per-parameter velocity buffers, zero-initialized."""

    def __init__(self):
        self.velocity: dict[tuple[str, str], np.ndarray] = {}

    def step(self, params, grads: dict, lr: float, momentum: float) -> None:
        for node_id, pname, w in params:
            key = (node_id, pname)
            g = grads.get(key)
            if g is None:
                continue
            v = self.velocity.get(key)
            if v is None:
                v = np.zeros_like(w)
            v = momentum * v - lr * g.astype(w.dtype, copy=False)
            self.velocity[key] = v
            w += v


# ---------------------------------------------------------------------------
# training loop

def augment_batch(x: np.ndarray, rng, pad: int = 4) -> np.ndarray:
    """Standard crop/flip augmentation: zero-pad, random crop, random h-flip."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(x)
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.integers(0, 2, size=n)
    for i in range(n):
        oy, ox = offs[i]
        crop = padded[i, :, oy:oy + h, ox:ox + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def _sgd_step(net: Network, opt: OptimizerState, x, y, lr: float, config: TrainConfig):
    """One penalized SGD step on a batch; returns (loss, correct predictions).

    A non-finite loss leaves the parameters unchanged.  The step's tape dies
    with the call, so no activations outlive it into the epoch's evaluation.
    """
    tape = GradTape()
    loss, probs = penalized_loss(net, x, y, config.loss_variant, config.weight_decay,
                                 True, tape)
    if math.isfinite(loss):
        opt.step(net.trainable_parameters(), tape.grads, lr, config.momentum)
    return loss, int((probs.argmax(axis=1) == y).sum())


def evaluate(bundle: ModelBundle, dataset, batch_size: int = TrainConfig.batch_size) -> float:
    """Top-1 accuracy in eval mode.

    Eval-mode outputs are per sample, so the batch size changes only the
    memory a pass holds; the default is :class:`TrainConfig`'s batch.
    """
    net = Network(bundle.graph)
    correct = 0
    for x, y in dataset.batches(batch_size):
        probs = net.forward(x, training=False)
        correct += int((probs.argmax(axis=1) == y).sum())
    return correct / dataset.size


def train(bundle: ModelBundle, train_data, eval_data, config: TrainConfig):
    """Run the epoch loop; returns (best checkpoint bundle, history rows)."""
    work = bundle.copy()
    net = Network(work.graph)
    opt = OptimizerState()
    rng = np.random.default_rng(config.seed)
    history = []
    best_acc, best_params, best_epoch = -1.0, None, -1

    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        epoch_loss, epoch_correct, seen = 0.0, 0, 0
        for bi, (x, y) in enumerate(train_data.batches(config.batch_size,
                                                       shuffle=True, rng=rng)):
            if config.augment:
                x = augment_batch(x, rng)
            batch_loss, correct = _sgd_step(net, opt, x, y, lr, config)
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(epoch, bi)
            epoch_loss += batch_loss * x.shape[0]
            epoch_correct += correct
            seen += x.shape[0]

        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": epoch_loss / seen,
            "train_acc": epoch_correct / seen,
        }
        if eval_data is not None:
            row["eval_acc"] = evaluate(work, eval_data, config.batch_size)
            # ties go to the later epoch: of equally accurate checkpoints,
            # keep the most converged one
            if row["eval_acc"] >= best_acc:
                best_acc = row["eval_acc"]
                best_epoch = epoch
                best_params = {(n.id, p): a.copy()
                               for n in work.graph.nodes for p, a in n.params.items()}
        history.append(row)

    if best_params is not None:
        for node in work.graph.nodes:
            for pname in node.params:
                node.params[pname] = best_params[(node.id, pname)]
    work.metadata = dict(work.metadata)
    work.metadata.update({
        "epochs_seen": config.epochs,
        "best_epoch": best_epoch if best_params is not None else config.epochs - 1,
        "seed": config.seed,
        "train_config": config.to_dict(),
    })
    return work, history


def retrain(compact: ModelBundle, train_data, eval_data, base_config: TrainConfig,
            report):
    """Train a compact model for its compression report's epoch budget.

    Either rewrite mode is accepted: an architecture-only model retrains from
    scratch, an inherit-weights one is fine-tuned on the same budget.
    """
    epochs = report.epoch_recommendation
    if epochs is None:
        raise ValueError("compression report carries no epoch budget (base_epochs)")
    return train(compact, train_data, eval_data, replace(base_config, epochs=epochs))
