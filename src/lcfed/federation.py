"""Federated rounds: broadcast, local updates, aggregation, head relay.

Each round re-seeds every site's batch sampling from (master seed, site,
round), so clients can run sequentially or in parallel workers and produce
bit-identical results.  Aggregation is the plain unweighted mean over the
parameter groups the mode's row in `config.MODES` shares; every other group
stays with its site.  The head collection relayed to clients always holds the
coarse heads as of the end of the previous round.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import layers, pcs
from .config import MODES, ExperimentConfig
from .data import SiteData
from .hc import HeadCollection, head_calibration
from .losses import LossBreakdown, dice_loss, joint_loss
from .model import SegmentationModel
from .optim import Adam
from .tensor import Tensor


class ParamSet:
    """Named, ordered collection of parameter arrays."""

    def __init__(self, values: dict | None = None):
        self.values = dict(values or {})

    def names(self):
        return list(self.values)


def fedavg(sets: list) -> ParamSet:
    """Elementwise unweighted mean of shape-aligned parameter sets."""
    if not sets:
        raise ValueError("fedavg needs at least one parameter set")
    names = sets[0].names()
    for s in sets[1:]:
        if s.names() != names:
            raise ValueError("parameter sets are not name-aligned")
        for n in names:
            if s.values[n].shape != sets[0].values[n].shape:
                raise ValueError(f"shape mismatch for {n}")
    k = len(sets)
    return ParamSet({n: sum(s.values[n] for s in sets) / k for n in names})


@dataclass
class ClientUpdate:
    site: int
    theta: ParamSet
    beta: ParamSet
    stats: dict
    optimizer_state: dict


@dataclass
class FederationState:
    round: int
    theta_g: ParamSet
    betas: list          # K ParamSets for the local groups
    head_collection: HeadCollection
    adam_states: list    # K optimizer state dicts (None before the first round)


@dataclass
class Client:
    """Long-lived model/optimizer vessel for one site; state is loaded per round."""

    site: int
    model: SegmentationModel
    optimizer: Adam
    embeddings: np.ndarray   # (K, K) one-hot site identities, row k for site k


def group_partition(cfg: ExperimentConfig):
    """(aggregated groups, local groups) for the configured mode."""
    shared = MODES[cfg.mode].shared
    return shared, tuple(g for g in layers.GROUPS if g not in shared)


def np_dtype(cfg: ExperimentConfig):
    return np.float32 if cfg.dtype == "float32" else np.float64


def new_model(cfg: ExperimentConfig, rng: np.random.Generator) -> SegmentationModel:
    return SegmentationModel(cfg.channels, cfg.classes, cfg.sites, rng, np_dtype(cfg))


def build_clients(cfg: ExperimentConfig) -> list:
    embeddings = np.eye(cfg.sites)
    clients = []
    for k in range(cfg.sites):
        model = new_model(cfg, np.random.default_rng(0))
        opt = Adam(((n, t) for n, t, _ in model.named_parameters()), lr=cfg.lr)
        clients.append(Client(site=k, model=model, optimizer=opt, embeddings=embeddings))
    return clients


def initial_state(cfg: ExperimentConfig) -> FederationState:
    """Every site starts from the same master-seeded initialization."""
    reference = new_model(cfg, np.random.default_rng([int(cfg.master_seed), 0x1A17]))
    agg_groups, local_groups = group_partition(cfg)
    theta = ParamSet(reference.get_params(agg_groups))
    betas = [ParamSet(reference.get_params(local_groups)) for _ in range(cfg.sites)]
    heads = _coarse_heads(reference, cfg.sites)
    return FederationState(round=0, theta_g=theta, betas=betas,
                           head_collection=heads, adam_states=[None] * cfg.sites)


def _coarse_heads(model: SegmentationModel, n_sites: int) -> HeadCollection:
    w = model.coarse_head.weight.data.copy()
    b = model.coarse_head.bias.data.copy()
    return HeadCollection(weights=[w.copy() for _ in range(n_sites)],
                          biases=[b.copy() for _ in range(n_sites)], round_stamp=0)


# ---------------------------------------------------------------------------
# forward composition
# ---------------------------------------------------------------------------

def forward_training(client: Client, xb: np.ndarray, yb: np.ndarray,
                     heads: HeadCollection, cfg: ExperimentConfig) -> LossBreakdown:
    """encoder -> channel selection -> decoder -> coarse head -> head
    calibration -> calibrated head, with the joint objective."""
    mode = MODES[cfg.mode]
    model = client.model
    x = Tensor(xb)
    skips, deep = model.encode(x)

    if mode.pcs:
        gate = pcs.augment_embedding(model.pcs_gen, client.embeddings[client.site], deep)
        con = pcs.site_contrast_loss(model.pcs_gen, deep, client.embeddings,
                                     client.site, xi_hat_k=gate)
        deep = pcs.select_channels(deep, gate)
    else:
        con = Tensor(np.zeros((), dtype=xb.dtype))

    f_hat = model.decode(deep, skips)

    if mode.hc:
        coarse_map, f_star = head_calibration(
            f_hat, heads, client.site, model.coarse_head,
            delta=cfg.nms_delta, size=cfg.gauss_size, sigma=cfg.gauss_sigma)
    else:
        coarse_map = model.coarse_map(f_hat)
        f_star = f_hat

    calibrated = model.calibrated_map(f_star)
    return joint_loss(dice_loss(coarse_map, yb), dice_loss(calibrated, yb),
                      con, lam=cfg.lambda_con)


def forward_predict(client: Client, xb: np.ndarray, heads: HeadCollection,
                    cfg: ExperimentConfig) -> np.ndarray:
    """Calibrated segmentation probabilities for a batch."""
    mode = MODES[cfg.mode]
    model = client.model
    x = Tensor(xb)
    skips, deep = model.encode(x)
    if mode.pcs:
        gate = pcs.augment_embedding(model.pcs_gen, client.embeddings[client.site], deep)
        deep = pcs.select_channels(deep, gate)
    f_hat = model.decode(deep, skips)
    if mode.hc:
        _, f_star = head_calibration(
            f_hat, heads, client.site, model.coarse_head,
            delta=cfg.nms_delta, size=cfg.gauss_size, sigma=cfg.gauss_sigma)
    else:
        f_star = f_hat
    return model.calibrated_map(f_star).data


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def batch_rng(master_seed: int, site: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([int(master_seed), site, round_index, 0xBA7C])


def local_update(client: Client, theta_in: ParamSet, beta_in: ParamSet,
                 adam_state, heads: HeadCollection, data: SiteData,
                 cfg: ExperimentConfig, round_index: int) -> ClientUpdate:
    """Exactly cfg.local_epochs epochs of minibatch Adam on the joint loss."""
    n = data.train_images.shape[0]
    if n == 0:
        raise ValueError(f"site {client.site}: empty training set")
    dtype = np_dtype(cfg)
    model = client.model
    model.load_params(theta_in.values)
    model.load_params(beta_in.values)
    opt = client.optimizer
    opt.lr = cfg.lr
    if adam_state is None:
        opt.t = 0
        for buf in (*opt.m.values(), *opt.v.values()):
            buf[...] = 0
    else:
        opt.load_state_dict(adam_state)

    rng = batch_rng(cfg.master_seed, client.site, round_index)
    sums = {"coarse": 0.0, "calib": 0.0, "con": 0.0, "joint": 0.0}
    batches = 0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = data.train_images[idx].astype(dtype, copy=False)
            yb = data.train_masks[idx].astype(dtype, copy=False)
            try:
                breakdown = forward_training(client, xb, yb, heads, cfg)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"site {client.site}, round {round_index + 1}: {err}") from err
            opt.zero_grad()
            breakdown.joint.backward()
            opt.step()
            for key, value in breakdown.values().items():
                sums[key] += value
            batches += 1

    agg_groups, local_groups = group_partition(cfg)
    stats = {key: value / batches for key, value in sums.items()}
    return ClientUpdate(
        site=client.site,
        theta=ParamSet(model.get_params(agg_groups)),
        beta=ParamSet(model.get_params(local_groups)),
        stats=stats,
        optimizer_state=opt.state_dict(),
    )


def run_round(state: FederationState, clients: list, datasets: list,
              cfg: ExperimentConfig):
    """One federated round; returns (new state, per-site stats).

    The input state is never mutated: a failing client aborts the round with
    the previous state intact.
    """
    round_index = state.round

    def job(k):
        return local_update(clients[k], state.theta_g, state.betas[k],
                            state.adam_states[k], state.head_collection,
                            datasets[k], cfg, round_index)

    if cfg.parallel_clients and len(clients) > 1:
        with ThreadPoolExecutor(max_workers=len(clients)) as pool:
            updates = list(pool.map(job, range(len(clients))))
    else:
        updates = [job(k) for k in range(len(clients))]
    updates.sort(key=lambda u: u.site)

    theta_new = fedavg([u.theta for u in updates])
    betas_new = [u.beta for u in updates]

    weights, biases = [], []
    for u in updates:
        source = {**theta_new.values, **u.beta.values}
        weights.append(source["head_coarse.w"].copy())
        biases.append(source["head_coarse.b"].copy())
    heads = HeadCollection(weights=weights, biases=biases, round_stamp=round_index + 1)

    new_state = FederationState(
        round=round_index + 1,
        theta_g=theta_new,
        betas=betas_new,
        head_collection=heads,
        adam_states=[u.optimizer_state for u in updates],
    )
    return new_state, [u.stats for u in updates]


def evaluate_clients(state: FederationState, clients: list, datasets: list,
                     cfg: ExperimentConfig) -> list:
    """Per-site reports on the calibrated map, threshold 0.5."""
    from .metrics import evaluate_site

    dtype = np_dtype(cfg)
    reports = []
    for client, data in zip(clients, datasets):
        client.model.load_params(state.theta_g.values)
        client.model.load_params(state.betas[client.site].values)

        def predict(batch):
            return forward_predict(client, batch.astype(dtype, copy=False),
                                   state.head_collection, cfg)

        reports.append(evaluate_site(predict, data.test_images, data.test_masks,
                                     batch_size=cfg.batch_size))
    return reports
