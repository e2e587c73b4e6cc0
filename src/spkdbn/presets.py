"""Published hyperparameter presets per task and network depth.

Preset names follow `<task>-<depth>L` (single-1L ... multi-3L).  Values
resolve into ExperimentConfig defaults; keys a preset leaves out keep the
ExperimentConfig field defaults, and explicit config keys and CLI
overrides always win.
"""

from __future__ import annotations

# (task, depth) -> overrides
PRESETS = {
    ("single", 1): {
        "impostor_kappa": 2000,
        "num_minibatches": 3,
        "num_centroids": 12,
        "adapt_layers": 1,
        "adapt_lr": (0.001,),
        "adapt_epochs": (10,),
        "ft_lr": 0.001,
        "ft_epochs": 30,
    },
    ("single", 2): {
        "impostor_kappa": 300,
        "num_minibatches": 3,
        "num_centroids": 12,
        "adapt_layers": 2,
        "adapt_lr": (0.001, 0.0001),
        "adapt_epochs": (20, 15),
        "ft_lr": 0.005,
        "ft_epochs": 100,
    },
    ("single", 3): {
        "impostor_kappa": 500,
        "num_minibatches": 3,
        "num_centroids": 12,
        "adapt_layers": 2,
        "adapt_lr": (0.001, 0.0001),
        "adapt_epochs": (15, 20),
        "ft_lr": 0.08,
        "ft_epochs": 500,
    },
    ("multi", 1): {
        "impostor_kappa": 2000,
        "num_minibatches": 3,
        "num_centroids": 24,
        "adapt_layers": 1,
        "adapt_lr": (0.001,),
        "adapt_epochs": (10,),
        "ft_lr": 0.001,
        "ft_epochs": 30,
    },
    ("multi", 2): {
        "impostor_kappa": 300,
        "num_minibatches": 3,
        "num_centroids": 24,
        "adapt_layers": 1,
        "adapt_lr": (0.001,),
        "adapt_epochs": (10,),
        "ft_lr": 0.01,
        "ft_epochs": 100,
    },
    ("multi", 3): {
        "impostor_kappa": 500,
        "num_minibatches": 3,
        "num_centroids": 24,
        "adapt_layers": 1,
        "adapt_lr": (0.001,),
        "adapt_epochs": (25,),
        "ft_lr": 0.08,
        "ft_epochs": 500,
    },
}


def preset_defaults(task: str, depth: int) -> dict:
    if (task, depth) not in PRESETS:
        raise ValueError(f"no preset for task={task!r} depth={depth}")
    return dict(PRESETS[(task, depth)])
