"""Federated rounds: broadcast, local updates, aggregation, head relay.

Each round re-seeds every site's batch sampling from (master seed, site,
round), so clients can run sequentially or in parallel workers and produce
bit-identical results.  The mode's row in `config.MODES` names the local
parameters by pattern; aggregation is the plain unweighted mean over every
other parameter.  The state holds each array once: the averaged set and each
site's local set.  The coarse heads relayed to clients are read from them when
a round starts, so they are the heads as of the end of the previous round.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import pcs
from .config import MODES, ExperimentConfig, Mode
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
    betas: list          # K ParamSets of each site's local parameters
    adam_states: list    # K optimizer state dicts (None before the first round)


@dataclass
class Client:
    """Long-lived model/optimizer vessel for one site; state is loaded per round."""

    site: int
    model: SegmentationModel
    optimizer: Adam
    embeddings: np.ndarray   # (K, K) one-hot site identities, row k for site k


def split_params(values: dict, mode: Mode):
    """(averaged, local) ParamSets of {name: array} by the mode's local patterns."""
    local = {n: a for n, a in values.items() if mode.is_local(n)}
    return ParamSet({n: a for n, a in values.items() if n not in local}), ParamSet(local)


def np_dtype(cfg: ExperimentConfig):
    return np.float32 if cfg.dtype == "float32" else np.float64


def new_model(cfg: ExperimentConfig, rng: np.random.Generator) -> SegmentationModel:
    return SegmentationModel(cfg.channels, cfg.classes, cfg.sites, rng, np_dtype(cfg),
                             pcs=MODES[cfg.mode].pcs)


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
    theta, beta = split_params(reference.get_params(), MODES[cfg.mode])
    betas = [ParamSet({n: a.copy() for n, a in beta.values.items()})
             for _ in range(cfg.sites)]
    return FederationState(round=0, theta_g=theta, betas=betas,
                           adam_states=[None] * cfg.sites)


def relayed_heads(state: FederationState) -> HeadCollection:
    """Every site's coarse head as the state holds it: among the site's local
    parameters, or among the averaged ones in a mode that shares heads.  The
    arrays are the state's own, not copies."""
    sources = [{**state.theta_g.values, **beta.values} for beta in state.betas]
    return HeadCollection(weights=[src["head_coarse.w"] for src in sources],
                          biases=[src["head_coarse.b"] for src in sources])


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

    theta, beta = split_params(model.get_params(), MODES[cfg.mode])
    stats = {key: value / batches for key, value in sums.items()}
    return ClientUpdate(
        site=client.site,
        theta=theta,
        beta=beta,
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
    heads = relayed_heads(state)

    def job(k):
        return local_update(clients[k], state.theta_g, state.betas[k],
                            state.adam_states[k], heads, datasets[k], cfg, round_index)

    if cfg.parallel_clients and len(clients) > 1:
        with ThreadPoolExecutor(max_workers=len(clients)) as pool:
            updates = list(pool.map(job, range(len(clients))))
    else:
        updates = [job(k) for k in range(len(clients))]
    updates.sort(key=lambda u: u.site)

    new_state = FederationState(
        round=round_index + 1,
        theta_g=fedavg([u.theta for u in updates]),
        betas=[u.beta for u in updates],
        adam_states=[u.optimizer_state for u in updates],
    )
    return new_state, [u.stats for u in updates]


def evaluate_clients(state: FederationState, clients: list, datasets: list,
                     cfg: ExperimentConfig) -> list:
    """Per-site reports on the calibrated map, threshold 0.5."""
    from .metrics import evaluate_site

    dtype = np_dtype(cfg)
    heads = relayed_heads(state)
    reports = []
    for client, data in zip(clients, datasets):
        client.model.load_params(state.theta_g.values)
        client.model.load_params(state.betas[client.site].values)

        def predict(batch):
            return forward_predict(client, batch.astype(dtype, copy=False), heads, cfg)

        reports.append(evaluate_site(predict, data.test_images, data.test_masks,
                                     batch_size=cfg.batch_size))
    return reports
