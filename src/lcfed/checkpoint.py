"""Checkpoint files: text header (names, shapes, offsets) + raw little-endian data.

Layout:
    lcfed-ckpt 1
    digest <config digest>
    round <t>
    sites <K>
    seed <master seed>          # batch RNG streams derive from (seed, site, round)
    adam_t <t .. per site, - when unset>
    arrays <count>
    <name> <dtype> <shape|-> <offset>
    ...
    end
    <raw bytes>

Array names are the model's parameter names behind a prefix: g/ the averaged
parameters, b<k>/ site k's local parameters (the mode's `local` patterns pick
them), m<k>/ v<k>/ site k's Adam moments over all of its parameters.  Each
array is stored once; the coarse heads relayed to clients are read from the
g/ and b<k>/ arrays.
"""

from __future__ import annotations

import os

import numpy as np

from .config import MODES, ExperimentConfig
from .federation import FederationState, ParamSet, new_model, split_params

FORMAT = "lcfed-ckpt 1"

_LE = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path: str, state: FederationState, digest: str, master_seed: int):
    entries = []  # (name, array)
    for name, arr in state.theta_g.values.items():
        entries.append((f"g/{name}", arr))
    for k, beta in enumerate(state.betas):
        for name, arr in beta.values.items():
            entries.append((f"b{k}/{name}", arr))
    adam_t = []
    for k, adam in enumerate(state.adam_states):
        if adam is None:
            adam_t.append("-")
            continue
        adam_t.append(str(adam["t"]))
        for name, arr in adam["m"].items():
            entries.append((f"m{k}/{name}", arr))
        for name, arr in adam["v"].items():
            entries.append((f"v{k}/{name}", arr))

    header = [FORMAT,
              f"digest {digest}",
              f"round {state.round}",
              f"sites {len(state.betas)}",
              f"seed {master_seed}",
              "adam_t " + " ".join(adam_t),
              f"arrays {len(entries)}"]
    offset = 0
    for name, arr in entries:
        shape = ",".join(str(s) for s in arr.shape) if arr.shape else "-"
        header.append(f"{name} {arr.dtype} {shape} {offset}")
        offset += arr.nbytes
    header.append("end")
    # write beside the target and rename over it, so a failed write never
    # leaves a truncated checkpoint; arrays stream out one at a time
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype=_LE[str(arr.dtype)]).data)
    os.replace(tmp, path)


def load_checkpoint(path: str):
    """Returns (state, digest, master_seed)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    end_marker = b"\nend\n"
    split = blob.find(end_marker)
    if split < 0 or not blob.startswith(FORMAT.encode()):
        raise ValueError(f"{path}: not a checkpoint file")
    header_lines = blob[:split].decode("ascii").splitlines()
    data = blob[split + len(end_marker):]

    meta = {}
    arrays = {}   # name prefix (g, b<k>, m<k>, v<k>) -> {parameter name: array}
    it = iter(header_lines[1:])
    for line in it:
        key, _, rest = line.partition(" ")
        if key == "arrays":
            for _ in range(int(rest)):
                name, dtype_name, shape_s, offset_s = next(it).split(" ")
                shape = () if shape_s == "-" else tuple(int(x) for x in shape_s.split(","))
                prefix, _, param = name.partition("/")
                arrays.setdefault(prefix, {})[param] = np.frombuffer(
                    data, dtype=_LE[dtype_name], count=int(np.prod(shape)),
                    offset=int(offset_s)).astype(dtype_name).reshape(shape)
            break
        meta[key] = rest

    adam_states = [None if t == "-" else
                   {"t": int(t), "m": arrays.get(f"m{k}", {}), "v": arrays.get(f"v{k}", {})}
                   for k, t in enumerate(meta["adam_t"].split(" "))]
    state = FederationState(
        round=int(meta["round"]), theta_g=ParamSet(arrays.get("g")),
        betas=[ParamSet(arrays.get(f"b{k}")) for k in range(int(meta["sites"]))],
        adam_states=adam_states)
    return state, meta["digest"], int(meta["seed"])


def check_arrays(path: str, state: FederationState, cfg: ExperimentConfig):
    """Raise ValueError naming the first array, as the checkpoint at `path`
    names it, that the state lacks or holds beyond the configured model and
    mode."""
    names = [n for n, _, _ in new_model(cfg, np.random.default_rng(0)).named_parameters()]
    shared, local = (p.names() for p in split_params(dict.fromkeys(names), MODES[cfg.mode]))
    parts = [("g/", state.theta_g.values, shared)]
    for k, (beta, adam) in enumerate(zip(state.betas, state.adam_states)):
        parts.append((f"b{k}/", beta.values, local))
        if adam is not None:
            parts += [(f"m{k}/", adam["m"], names), (f"v{k}/", adam["v"], names)]
    for prefix, held, wanted in parts:
        for n in wanted:
            if n not in held:
                raise ValueError(f"{path}: missing array {prefix}{n} for mode {cfg.mode}")
        for n in held:
            if n not in wanted:
                raise ValueError(f"{path}: unexpected array {prefix}{n} for mode {cfg.mode}")
