"""Universal DBN: greedy layer-wise training, normalization, adaptation.

The universal model is a stack of RBMs trained unsupervised on all
background embeddings (Gaussian visible units at the bottom, Bernoulli
above).  Its parameters are normalized into the random-init dynamic
range and then lightly re-trained (adapted) on each speaker's balanced
data to give speaker-specific network initializations.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .embeddings import load_arrays, save_arrays
from .rbm import RbmParams, RbmTrainConfig, RbmVelocity, cd1_step, hidden_probs, train_rbm


@dataclass
class DbnParams:
    """Stack of RBMs; first layer Gaussian-visible, the rest Bernoulli."""

    layers: list[RbmParams]
    normalized: bool = False

    def __post_init__(self):
        if not self.layers:
            raise ValueError("DBN must have at least one layer")
        if self.layers[0].visible_kind != "gaussian":
            raise ValueError("first DBN layer must have gaussian visible units")
        for k, layer in enumerate(self.layers[1:], start=1):
            if layer.visible_kind != "bernoulli":
                raise ValueError(f"layer {k} must have bernoulli visible units")
            if layer.n_visible != self.layers[k - 1].n_hidden:
                raise ValueError(
                    f"layer {k} visible size {layer.n_visible} does not chain with "
                    f"layer {k - 1} hidden size {self.layers[k - 1].n_hidden}"
                )

    @property
    def layer_sizes(self) -> list[int]:
        return [self.layers[0].n_visible] + [l.n_hidden for l in self.layers]

    def copy(self) -> "DbnParams":
        return DbnParams([l.copy() for l in self.layers], self.normalized)

    def propagate(self, X: np.ndarray, upto: int | None = None) -> np.ndarray:
        """Hidden-probability forward pass through the first `upto` layers."""
        out = np.asarray(X, dtype=float)
        for layer in self.layers[:upto]:
            out = hidden_probs(layer, out)
        return out


@dataclass(frozen=True)
class AdaptConfig:
    """Per-layer CD-1 settings for speaker adaptation."""

    layers_to_adapt: int
    learning_rates: tuple[float, ...]
    epochs: tuple[int, ...]
    momentum: float = 0.9
    weight_decay: float = 0.0002
    seed: int = 0

    def __post_init__(self):
        if self.layers_to_adapt < 0:
            raise ValueError("layers_to_adapt must be >= 0")
        if len(self.learning_rates) < self.layers_to_adapt or len(self.epochs) < self.layers_to_adapt:
            raise ValueError("need a learning rate and epoch count per adapted layer")


def train_udbn(background, hidden_sizes, cfgs) -> DbnParams:
    """Greedy layer-wise unsupervised training on an (n, d) matrix of
    background embeddings.

    Layer 1 is a Gaussian-Bernoulli RBM on the raw vectors; each further
    layer is a Bernoulli RBM trained on the hidden-probability outputs of
    the frozen stack below it.  cfgs is one RbmTrainConfig per layer.
    """
    hidden_sizes = list(hidden_sizes)
    if not hidden_sizes:
        raise ValueError("hidden_sizes must be non-empty")
    cfgs = list(cfgs)
    if len(cfgs) != len(hidden_sizes):
        raise ValueError("need one RbmTrainConfig per layer")
    X = np.atleast_2d(np.asarray(background, float))
    layers = []
    for k, (n_hid, cfg) in enumerate(zip(hidden_sizes, cfgs)):
        kind = "gaussian" if k == 0 else "bernoulli"
        layer, _ = train_rbm(X, cfg, kind, n_hid)
        layers.append(layer)
        X = hidden_probs(layer, X)
    return DbnParams(layers)


def normalize_udbn(dbn: DbnParams) -> DbnParams:
    """Scale each layer so max|w| = 0.01 and multiply biases by 0.01.

    Scaling is per layer and applied exactly once; a second call raises
    because bias scaling is not idempotent.
    """
    if dbn.normalized:
        raise ValueError("DBN is already normalized")
    layers = []
    for layer in dbn.layers:
        w_max = np.abs(layer.W).max()
        # divide first so the maximal entry lands on exactly +-0.01
        W = (layer.W / w_max) * 0.01 if w_max > 0 else layer.W.copy()
        layers.append(RbmParams(layer.visible_kind, W, layer.b_vis * 0.01, layer.b_hid * 0.01))
    return DbnParams(layers, normalized=True)


def adapt_udbn(udbn_norm: DbnParams, balanced_minibatches, cfg: AdaptConfig) -> DbnParams:
    """Speaker adaptation: a few CD-1 epochs per layer from UDBN parameters.

    balanced_minibatches is the speaker's balanced minibatch plan as a
    list of (m_k, d) arrays; each adapted layer k sees those minibatches
    propagated through the (already adapted) layers below it.  Layers
    beyond cfg.layers_to_adapt are copied unchanged.
    """
    if cfg.layers_to_adapt > len(udbn_norm.layers):
        raise ValueError(
            f"layers_to_adapt={cfg.layers_to_adapt} exceeds DBN depth {len(udbn_norm.layers)}"
        )
    batches = [np.atleast_2d(np.asarray(b, dtype=float)) for b in balanced_minibatches]
    if not batches:
        raise ValueError("no balanced minibatches given")
    adapted = udbn_norm.copy()
    for k in range(cfg.layers_to_adapt):
        layer = adapted.layers[k]
        inputs = [adapted.propagate(b, upto=k) for b in batches]
        layer_cfg = RbmTrainConfig(
            learning_rate=cfg.learning_rates[k],
            epochs=cfg.epochs[k],
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
            minibatch_size=max(b.shape[0] for b in inputs),
            seed=cfg.seed,
        )
        velocity = RbmVelocity.zeros_like(layer)
        rng = np.random.default_rng([cfg.seed, k])
        for epoch in range(cfg.epochs[k]):
            for batch in inputs:
                cd1_step(layer, batch, layer_cfg, velocity, rng, epoch=epoch)
    return adapted


def save_dbn(dbn: DbnParams, path) -> None:
    """DBN file: archive tagged `dbn` with the `normalized` flag (0 or 1)
    and, per layer k, `W<k>`, `b_vis<k>` and `b_hid<k>`.  Layer 0 has
    gaussian visible units, the layers above bernoulli ones."""
    arrays = {"normalized": float(dbn.normalized)}
    for k, layer in enumerate(dbn.layers):
        arrays |= {f"W{k}": layer.W, f"b_vis{k}": layer.b_vis, f"b_hid{k}": layer.b_hid}
    save_arrays(path, "dbn", **arrays)


def load_dbn(path) -> DbnParams:
    arrays = load_arrays(path, "dbn")
    depth = sum(name.startswith("W") for name in arrays)
    layers = [
        RbmParams("gaussian" if k == 0 else "bernoulli",
                  arrays[f"W{k}"], arrays[f"b_vis{k}"], arrays[f"b_hid{k}"])
        for k in range(depth)
    ]
    return DbnParams(layers, bool(arrays["normalized"]))
