"""Checkpoint files: one JSON header line, then the arrays' raw little-endian bytes.

    {"format": "lcfed-ckpt 3", "digest": <config digest>, "round": <t>,
     "seed": <master seed>, "adam_t": [<Adam step count of each site>],
     "arrays": [[<name>, <dtype>, <shape>], ...], "crc32": <see below>}
    <each array's bytes, in the order of "arrays">

The crc32 runs over the data section, then over the rest of the header as
``json.dumps(..., sort_keys=True)``, so a changed header value fails it just
as a changed data byte does.

Array names are parameter names behind a prefix: g/ the averaged ones, b<k>/
site k's local ones, m<k>/ v<k>/ site k's Adam moments of all of them;
`_groups` states that layout for writing, reading and checking.  A file that
does not parse, whose data differs in length from its header, or that fails
the crc32 fails to load with a ValueError naming it.  `check_arrays` checks a
resumed state against the configured model once, so nothing past it checks
again.
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

from .config import ExperimentConfig
from .federation import FederationState, ParamSet, initial_state

FORMAT = "lcfed-ckpt 3"

_LE = {"float64": "<f8", "float32": "<f4"}

_HEADER = {"digest": str, "round": int, "seed": int, "adam_t": list, "crc32": int, "arrays": list}


def _groups(state: FederationState):
    """(prefix, {name: array}) of every array group, in file order."""
    yield "g/", state.theta_g.values
    for k, beta in enumerate(state.betas):
        yield f"b{k}/", beta.values
    for k, adam in enumerate(state.adam_states):
        yield f"m{k}/", adam["m"]
        yield f"v{k}/", adam["v"]


def _crc32(header: dict, data_crc: int) -> int:
    """The data section's crc32 continued over `header` without its crc32 key."""
    fields = {key: value for key, value in header.items() if key != "crc32"}
    return zlib.crc32(json.dumps(fields, sort_keys=True).encode("ascii"), data_crc)


def save_checkpoint(path: str, state: FederationState, digest: str, master_seed: int):
    entries = [(prefix + name, str(arr.dtype),
                np.ascontiguousarray(arr, dtype=_LE[str(arr.dtype)]))
               for prefix, group in _groups(state) for name, arr in group.items()]
    crc = 0
    for _, _, arr in entries:
        crc = zlib.crc32(arr.data, crc)
    header = {"format": FORMAT, "digest": digest, "round": state.round, "seed": master_seed,
              "adam_t": [adam["t"] for adam in state.adam_states],
              "arrays": [[name, dtype, list(arr.shape)] for name, dtype, arr in entries]}
    header["crc32"] = _crc32(header, crc)
    # a failed write must leave no truncated checkpoint: write beside it, rename over it
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        for _, _, arr in entries:
            fh.write(arr.data)
    os.replace(tmp, path)


def load_checkpoint(path: str):
    """Returns (state, digest, master_seed); a damaged file raises ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = blob.partition(b"\n")[0]
    try:
        return _parse(head, memoryview(blob)[len(head) + 1:])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _parse(head: bytes, data: memoryview):
    try:
        meta = json.loads(head)
    except ValueError:
        meta = None
    if not isinstance(meta, dict) or meta.get("format") != FORMAT:
        raise ValueError("not a checkpoint file")
    for key, kind in _HEADER.items():
        if type(meta.get(key)) is not kind:
            raise ValueError(f"header key {key!r} is missing or not a {kind.__name__}")
    if not all(type(t) is int for t in meta["adam_t"]):
        raise ValueError(f"adam_t {meta['adam_t']} is not a list of step counts")
    state = FederationState(round=meta["round"], theta_g=ParamSet(),
                            betas=[ParamSet() for _ in meta["adam_t"]],
                            adam_states=[{"t": t, "m": {}, "v": {}} for t in meta["adam_t"]])
    groups, offset = dict(_groups(state)), 0
    for entry in meta["arrays"]:
        if not (isinstance(entry, list) and len(entry) == 3
                and all(isinstance(x, t) for x, t in zip(entry, (str, str, list)))
                and entry[1] in _LE and all(type(s) is int and s >= 0 for s in entry[2])):
            raise ValueError(f"array entry {entry!r} is not [name, dtype, shape]")
        name, dtype, shape = entry
        prefix, sep, param = name.partition("/")
        group = groups.get(prefix + sep)
        if group is None or param in group:
            raise ValueError(f"array {name} is repeated or outside the layout of "
                             f"{len(state.betas)} sites")
        group[param] = (dtype, shape, offset)   # read once the data section checks out
        offset += math.prod(shape) * np.dtype(dtype).itemsize
    if offset != len(data):
        raise ValueError(f"data section is {len(data)} bytes; the header lists {offset}")
    if _crc32(meta, zlib.crc32(data)) != meta["crc32"]:
        raise ValueError("header and data fail their crc32 check")
    for group in groups.values():
        for param, (dtype, shape, offset) in group.items():
            group[param] = np.frombuffer(data, dtype=_LE[dtype], count=math.prod(shape),
                                         offset=offset).astype(dtype).reshape(shape)
    return state, meta["digest"], meta["seed"]


def check_arrays(path: str, state: FederationState, cfg: ExperimentConfig):
    """Raise ValueError naming `path` if the state holds another site count
    than configured, or the first array that it lacks, holds beyond the
    configured model and mode, or holds with another shape or dtype."""
    if len(state.betas) != cfg.sites:
        raise ValueError(f"{path}: holds {len(state.betas)} sites; the config has {cfg.sites}")
    for (prefix, held), (_, want) in zip(_groups(state), _groups(initial_state(cfg)),
                                         strict=True):
        for n in want:
            if n not in held:
                raise ValueError(f"{path}: missing array {prefix}{n} for mode {cfg.mode}")
        for n, a in held.items():
            if n not in want:
                raise ValueError(f"{path}: unexpected array {prefix}{n} for mode {cfg.mode}")
            if a.shape != want[n].shape or a.dtype != want[n].dtype:
                raise ValueError(f"{path}: array {prefix}{n} is {a.dtype} {a.shape}; "
                                 f"the configured model's is {want[n].dtype} {want[n].shape}")
