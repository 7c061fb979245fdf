"""Training algorithms: clipped-surrogate, soft actor-critic, adversarial
imitation with trust-region policy steps."""

from __future__ import annotations

import csv

from .buffers import (
    ReplayBuffer,
    RolloutBuffer,
    collect_rollout,
    compute_gae,
    normalize_advantages,
)
from .gail import (
    ExpertDataset,
    GailConfig,
    GailResult,
    discriminator_loss_and_grads,
    gail_discriminator_update,
    gail_reward,
    gail_train,
    generate_expert_dataset,
    save_expert_dataset,
)
from .ppo import PpoConfig, PpoResult, ppo_surrogate, ppo_train
from .sac import (
    SacConfig,
    SacNets,
    SacResult,
    alpha_gradient,
    make_sac_nets,
    polyak_update,
    sac_actor_grads,
    sac_target,
    sac_train,
    sac_update,
)
from .trpo import conjugate_gradient, fisher_vector_product, gaussian_kl, trpo_step


def write_training_log(history: list[dict], path) -> None:
    """Newline-delimited CSV of per-update diagnostics; NaN cells left empty."""
    if not history:
        fields: list[str] = ["step"]
    else:
        fields = list(history[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in history:
            out = {}
            for key in fields:
                value = row.get(key, "")
                if isinstance(value, float) and value != value:
                    value = ""
                out[key] = value
            writer.writerow(out)
