"""Checkpoint files: text header (names, shapes, offsets) + raw little-endian data.

Layout:
    lcfed-ckpt 1
    digest <config digest>
    round <t>
    stamp <head-collection round stamp>
    sites <K>
    seed <master seed>          # batch RNG streams derive from (seed, site, round)
    adam_t <t .. per site, - when unset>
    arrays <count>
    <name> <dtype> <shape|-> <offset>
    ...
    end
    <raw bytes>

Array name prefixes: g/ global params, b<k>/ site-local params, m<k>/ v<k>/
Adam moments, hw<k> hb<k> the relayed coarse heads.
"""

from __future__ import annotations

import os

import numpy as np

from .federation import FederationState, ParamSet
from .hc import HeadCollection

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
    for k in range(len(state.head_collection)):
        entries.append((f"hw{k}", state.head_collection.weights[k]))
        entries.append((f"hb{k}", state.head_collection.biases[k]))

    header = [FORMAT,
              f"digest {digest}",
              f"round {state.round}",
              f"stamp {state.head_collection.round_stamp}",
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
    arrays = {}
    it = iter(header_lines[1:])
    for line in it:
        key, _, rest = line.partition(" ")
        if key == "arrays":
            count = int(rest)
            for _ in range(count):
                name, dtype_name, shape_s, offset_s = next(it).split(" ")
                shape = () if shape_s == "-" else tuple(int(x) for x in shape_s.split(","))
                n_items = int(np.prod(shape)) if shape else 1
                itemsize = np.dtype(_LE[dtype_name]).itemsize
                offset = int(offset_s)
                arr = np.frombuffer(data, dtype=_LE[dtype_name], count=n_items,
                                    offset=offset).astype(dtype_name).reshape(shape)
                arrays[name] = arr
            break
        meta[key] = rest

    n_sites = int(meta["sites"])
    adam_t = meta["adam_t"].split(" ")

    theta = ParamSet({n[2:]: a for n, a in arrays.items() if n.startswith("g/")})
    betas = []
    adam_states = []
    for k in range(n_sites):
        betas.append(ParamSet({n.split("/", 1)[1]: a for n, a in arrays.items()
                               if n.startswith(f"b{k}/")}))
        if adam_t[k] == "-":
            adam_states.append(None)
        else:
            adam_states.append({
                "t": int(adam_t[k]),
                "m": {n.split("/", 1)[1]: a for n, a in arrays.items()
                      if n.startswith(f"m{k}/")},
                "v": {n.split("/", 1)[1]: a for n, a in arrays.items()
                      if n.startswith(f"v{k}/")},
            })
    heads = HeadCollection(
        weights=[arrays[f"hw{k}"] for k in range(n_sites)],
        biases=[arrays[f"hb{k}"] for k in range(n_sites)],
        round_stamp=int(meta["stamp"]))
    state = FederationState(round=int(meta["round"]), theta_g=theta, betas=betas,
                            head_collection=heads, adam_states=adam_states)
    return state, meta["digest"], int(meta["seed"])
