"""Universal DBN: greedy layer-wise training, normalization, adaptation.

The universal model is a stack of RBMs trained unsupervised on all
background embeddings (Gaussian visible units at the bottom, Bernoulli
above).  Its parameters are normalized into the random-init dynamic
range and then lightly re-trained (adapted) on each speaker's balanced
data to give speaker-specific network initializations.  Adaptation runs
the same CD-1 epoch loop as pretraining (`rbm._cd1_epochs`), from the
normalized parameters and on the speaker's minibatches, in place: it
consumes the DBN it is given, so a caller that needs the normalized
parameters afterwards adapts a copy (`copy.deepcopy`).
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .embeddings import load_arrays, save_arrays
from .rbm import RbmParams, _cd1_epochs, hidden_probs, train_rbm


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

    def propagate(self, X: np.ndarray, upto: int | None = None) -> np.ndarray:
        """Hidden-probability forward pass through the first `upto` layers."""
        out = np.asarray(X, dtype=float)
        for layer in self.layers[:upto]:
            out = hidden_probs(layer, out)
        return out


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
        if k + 1 < len(hidden_sizes):  # nothing reads the top layer's outputs
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


def adapt_udbn(dbn: DbnParams, batches, cfgs) -> DbnParams:
    """Speaker adaptation: pretraining's CD-1 epochs, run per layer from
    the normalized UDBN's parameters on the speaker's minibatches.

    Adapts `dbn` in place and returns it; a caller that needs the
    unadapted parameters afterwards passes a copy (`copy.deepcopy`).
    batches is the (K, m, d) array of the speaker's balanced minibatches
    (`MinibatchPlan.batches`).  cfgs is one RbmTrainConfig per adapted
    layer, from the bottom; layer k runs on a generator seeded
    [cfgs[k].seed, k] and sees the minibatches propagated through the
    already adapted layers below it.
    """
    cfgs = list(cfgs)
    if len(cfgs) > len(dbn.layers):
        raise ValueError(f"{len(cfgs)} adapted layers exceed DBN depth {len(dbn.layers)}")
    batches = np.asarray(batches, dtype=float)
    if batches.ndim != 3 or len(batches) == 0:
        raise ValueError(f"minibatches must be a non-empty (K, m, d) array, got shape {batches.shape}")
    for k, cfg in enumerate(cfgs):
        inputs = [dbn.propagate(b, upto=k) for b in batches]
        _cd1_epochs(dbn.layers[k], inputs, cfg, np.random.default_rng([cfg.seed, k]))
    return dbn


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
