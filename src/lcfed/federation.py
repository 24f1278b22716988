"""Federated rounds: broadcast, local updates, aggregation, head relay.

The `FederationState` owns every array: each site's local parameters, step
count and Adam moments (zero before the first round) beside the averaged
parameters, and nothing writes an array a state holds.  A `Client` is a
model/optimizer vessel that serves training only: a local update binds its
tensors to the site's arrays, and Adam binds the fresh ones the new state
keeps.  One vessel serves a serial run, one per site a parallel one.
Each round re-seeds every site's batch sampling from (master seed, site,
round), so sites can run sequentially or in parallel workers and produce
bit-identical results.  The mode's split in `config.SPLITS` names the local
parameters by pattern; aggregation is the plain unweighted mean over every
other parameter.  The state holds each array once: the averaged set and each
site's local set.  When a round starts, every site's coarse head is read from
them and stacked side by side into one relayed weight and bias, so the heads
are those as of the end of the previous round.

Training and prediction run one forward composition, `_forward`, over a
parameter table passed in.  Training passes the vessel's tensors, which
require gradients.  Prediction wraps the state's arrays as constant tensors,
with no copy, so it builds no autodiff graph.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import pcs
from .config import MODES, ExperimentConfig, Mode
from .data import SiteData
from .hc import head_calibration
from .layers import gate
from .losses import LOSS_TERMS, LossBreakdown, dice_loss, joint_loss
from .metrics import evaluate_site
from .model import SegmentationModel, decode, encode, head
from .optim import Adam
from .tensor import Tensor, sigmoid


class ParamSet:
    """Named, ordered collection of parameter arrays."""

    def __init__(self, values: dict | None = None):
        self.values = dict(values or {})


def fedavg(sets: list) -> ParamSet:
    """Elementwise unweighted mean of parameter sets that share names and shapes."""
    k = len(sets)
    return ParamSet({n: sum(s.values[n] for s in sets) / k for n in sets[0].values})


@dataclass
class ClientUpdate:
    theta: ParamSet
    beta: ParamSet
    stats: dict
    optimizer_state: dict


@dataclass
class FederationState:
    round: int
    theta_g: ParamSet
    betas: list          # K ParamSets of each site's local parameters
    adam_states: list    # K optimizer state dicts

    def site_params(self, k: int) -> dict:
        """Site k's whole parameter set: the averaged parameters and its local ones."""
        return {**self.theta_g.values, **self.betas[k].values}


@dataclass
class Client:
    """Model/optimizer vessel: tensor identities and the last step's gradients, no site's values."""

    model: SegmentationModel
    optimizer: Adam


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
    """One vessel for a serial run, one per site for parallel workers."""
    clients = []
    for _ in range(cfg.sites if cfg.parallel_clients else 1):
        model = new_model(cfg, np.random.default_rng(0))
        opt = Adam(model.params.items(), lr=cfg.lr)
        clients.append(Client(model=model, optimizer=opt))
    return clients


def initial_state(cfg: ExperimentConfig) -> FederationState:
    """Every site starts from the same master-seeded initialization: the same arrays."""
    reference = new_model(cfg, np.random.default_rng([int(cfg.master_seed), 0x1A17]))
    params = {n: t.data for n, t in reference.params.items()}
    theta, beta = split_params(params, MODES[cfg.mode])
    betas = [ParamSet(beta.values) for _ in range(cfg.sites)]
    zeros = {n: np.zeros_like(a) for n, a in params.items()}
    return FederationState(round=0, theta_g=theta, betas=betas,
                           adam_states=[{"t": 0, "m": zeros, "v": zeros}
                                        for _ in range(cfg.sites)])


def relayed_heads(state: FederationState) -> tuple:
    """Every site's coarse head as the state holds it (among the site's local
    parameters, or among the averaged ones in a mode that shares heads),
    stacked side by side: a (C, K*N) weight whose columns k*N..(k+1)*N-1 are
    site k's, and the matching (K*N,) bias."""
    sources = [state.site_params(k) for k in range(len(state.betas))]
    return (np.concatenate([src["head_coarse.w"] for src in sources], axis=1),
            np.concatenate([src["head_coarse.b"] for src in sources]))


# ---------------------------------------------------------------------------
# forward composition
# ---------------------------------------------------------------------------

def _forward(params: dict, xb: np.ndarray, heads: tuple, site: int, cfg: ExperimentConfig):
    """encoder -> channel selection -> decoder -> coarse head -> head
    calibration -> calibrated head over the {name: Tensor} table `params`;
    returns (PCS gates or None, coarse map, calibrated map)."""
    mode = MODES[cfg.mode]
    skips, deep = encode(params, Tensor(xb))
    gates = None
    if mode.pcs:
        gates = pcs.augment_embedding(params, deep)
        deep = gate(deep, gates[site].reshape(*deep.shape[:2], 1, 1))
    f_hat = decode(params, deep, skips)
    if mode.hc:
        coarse, f_star = head_calibration(
            f_hat, heads, site, params["head_coarse.w"], params["head_coarse.b"],
            delta=cfg.nms_delta, size=cfg.gauss_size, sigma=cfg.gauss_sigma)
    else:
        coarse, f_star = sigmoid(head(params, "head_coarse", f_hat)), f_hat
    return gates, coarse, sigmoid(head(params, "head_calib", f_star))


def forward_training(params: dict, xb: np.ndarray, yb: np.ndarray,
                     heads: tuple, site: int, cfg: ExperimentConfig) -> LossBreakdown:
    """The joint objective of the site's forward pass on a batch."""
    gates, coarse, calibrated = _forward(params, xb, heads, site, cfg)
    con = (Tensor(np.zeros((), dtype=xb.dtype)) if gates is None
           else pcs.site_contrast_loss(gates, site))
    return joint_loss(dice_loss(coarse, yb), dice_loss(calibrated, yb), con,
                      lam=cfg.lambda_con)


def forward_predict(params: dict, xb: np.ndarray, heads: tuple, site: int,
                    cfg: ExperimentConfig) -> np.ndarray:
    """Calibrated segmentation probabilities for a batch."""
    return _forward(params, xb, heads, site, cfg)[2].data


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def batch_rng(master_seed: int, site: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([int(master_seed), site, round_index, 0xBA7C])


def local_update(client: Client, state: FederationState, site: int, heads: tuple,
                 data: SiteData, cfg: ExperimentConfig) -> ClientUpdate:
    """Exactly cfg.local_epochs epochs of minibatch Adam on the joint loss for
    `site` on the borrowed vessel `client`, from its arrays in `state` (never written)."""
    n = len(data.train.codes)
    dtype = np_dtype(cfg)
    params = client.model.params
    for name, a in state.site_params(site).items():
        params[name].data = a
    moments = state.adam_states[site]
    adam = {"t": moments["t"], "m": dict(moments["m"]), "v": dict(moments["v"])}
    opt = client.optimizer

    rng = batch_rng(cfg.master_seed, site, state.round)
    sums = dict.fromkeys(LOSS_TERMS, 0.0)
    batches = 0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = data.train.images(idx, dtype)
            yb = data.train.masks[idx].astype(dtype)
            try:
                breakdown = forward_training(params, xb, yb, heads, site, cfg)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"site {site}, round {state.round + 1}: {err}") from err
            opt.zero_grad()
            breakdown.joint.backward()
            opt.step(adam)
            for key, value in breakdown.values().items():
                sums[key] += value
            batches += 1

    theta, beta = split_params({name: t.data for name, t in params.items()}, MODES[cfg.mode])
    stats = {key: value / batches for key, value in sums.items()}
    return ClientUpdate(theta=theta, beta=beta, stats=stats, optimizer_state=adam)


def run_round(state: FederationState, clients: list, datasets: list,
              cfg: ExperimentConfig):
    """One federated round; returns (new state, per-site stats).

    The input state is never mutated: a failing client aborts the round with
    the previous state intact.
    """
    heads = relayed_heads(state)

    def job(k):
        return local_update(clients[k % len(clients)], state, k, heads, datasets[k], cfg)

    if cfg.parallel_clients and len(clients) > 1:
        with ThreadPoolExecutor(max_workers=len(clients)) as pool:
            updates = list(pool.map(job, range(cfg.sites)))
    else:
        updates = [job(k) for k in range(cfg.sites)]

    new_state = FederationState(
        round=state.round + 1,
        theta_g=fedavg([u.theta for u in updates]),
        betas=[u.beta for u in updates],
        adam_states=[u.optimizer_state for u in updates],
    )
    return new_state, [u.stats for u in updates]


def evaluate_clients(state: FederationState, datasets: list, cfg: ExperimentConfig) -> list:
    """Per-site (IoU, ASSD) of the calibrated map at threshold 0.5, each
    averaged over classes.

    Each site's arrays enter as constant tensors over the state's own memory:
    no copy, no gradient, and no autodiff graph.  Each batch of test images is
    decoded as it is predicted."""
    dtype = np_dtype(cfg)
    heads = relayed_heads(state)
    scores = []
    for k, data in enumerate(datasets):
        params = {n: Tensor(a) for n, a in state.site_params(k).items()}

        def predict(batch):
            return forward_predict(params, data.test.images(batch, dtype), heads, k, cfg)

        scores.append(evaluate_site(predict, data.test.masks, batch_size=cfg.batch_size))
    return scores
