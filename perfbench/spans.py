"""In-memory spans around the program's layer functions, for traced runs.

A span is one call of a wrapped function: its name, its start and end
(``perf_counter_ns``) and the index of the span that was open when it
began (-1 at the top). Spans live in flat typed arrays, about 26 bytes
each, so the 3.4 million kernel calls of one avalanche-text trial fit in
memory; they are written out once, when the run ends. Self times and the
per-layer metrics are derived from the spans afterwards.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# The layer boundaries a traced run wraps, by defining module. A function
# that another module imported with ``from .x import f`` is wrapped there
# too: install() rebinds every module attribute bound to the same object,
# so experiments.encrypt_block and cipher.decrypt_block (an alias) are
# recorded as cipher.encrypt_block.
TARGETS = {
    "cipher": ("encrypt_block", "encrypt_stream", "decrypt_stream",
               "derive_walls", "CipherParams"),
    "bitplane": ("planes_from_block", "planes_to_block", "collide_planes",
                 "propagate_planes", "reflect_planes", "wall_mask"),
    "experiments": ("run_protocol", "flip_bit", "inverted_fraction",
                    "trial_rng"),
    "imaging": ("read_pgm", "write_pgm", "image_to_lattice",
                "lattice_to_image"),
    "lattice": ("from_bytes", "to_bytes"),
}

# Which plain aggregates each span name reports.
_REPORTED = {
    "cipher.encrypt_block": ("calls", "busy_s"),
    "cipher.derive_walls": ("calls", "busy_s"),
    "cipher.CipherParams": ("calls", "busy_s"),
    "bitplane.planes_from_block": ("calls", "busy_s"),
    "bitplane.planes_to_block": ("calls", "busy_s"),
    "bitplane.collide_planes": ("calls", "busy_s"),
    "bitplane.propagate_planes": ("calls", "busy_s"),
    "bitplane.reflect_planes": ("calls", "busy_s"),
    "bitplane.wall_mask": ("calls", "busy_s"),
    "experiments.run_protocol": ("busy_s",),
    "experiments.flip_bit": ("calls", "busy_s"),
    "experiments.inverted_fraction": ("calls", "busy_s"),
    "experiments.trial_rng": ("calls", "busy_s"),
    "imaging.read_pgm": ("busy_s",),
    "imaging.write_pgm": ("busy_s",),
    "imaging.image_to_lattice": ("busy_s",),
    "imaging.lattice_to_image": ("busy_s",),
    "lattice.from_bytes": ("busy_s",),
    "lattice.to_bytes": ("busy_s",),
}

_KERNELS = ("bitplane.collide_planes", "bitplane.propagate_planes",
            "bitplane.reflect_planes")
_CIPHER_LAYER = tuple(f"cipher.{attr}" for attr in TARGETS["cipher"])

# Plane bytes one round moves, per lattice cell: propagate, collide and
# reflect each read four one-bit planes and write four.
_PLANE_BYTES_PER_CELL_ROUND = 3 * (4 + 4) / 8


class Tracer:
    """Records spans while installed; aggregates them into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.rounds = 0  # sum of params.rounds over encrypt_block calls
        self.plane_cells_rounds = 0  # sum of rounds * 2^(2n) over the same
        self._stack = [-1]

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()

        return traced

    def _count_rounds(self, encrypt_block):
        def counted(block, params, *args, **kwargs):
            self.rounds += params.rounds
            self.plane_cells_rounds += params.rounds << (2 * params.n)
            return encrypt_block(block, params, *args, **kwargs)

        return counted

    @contextmanager
    def installed(self, package, modules: dict):
        """Wrap every TARGETS function in every module of the program,
        and restore the originals on exit."""
        originals = {}
        for layer, attrs in TARGETS.items():
            for attr in attrs:
                obj = getattr(modules[layer], attr)
                originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {}
        saved = []
        try:
            for mod in (package, *modules.values()):
                for attr, value in list(vars(mod).items()):
                    if id(value) not in originals:
                        continue
                    obj, name = originals[id(value)]
                    if id(obj) not in wrappers:
                        fn = obj
                        if name == "cipher.encrypt_block":
                            fn = self._count_rounds(obj)
                        wrappers[id(obj)] = self._wrap(fn, name)
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(obj)])
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    def write(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every span recorded, as name -> (value, unit)."""
        import numpy as np

        ids = {name: i for i, name in enumerate(self.names)}
        nid = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64) / 1e9
        count = np.bincount(nid, minlength=len(self.names))
        busy = np.bincount(nid, weights=dur, minlength=len(self.names))

        def calls(name):
            return int(count[ids[name]]) if name in ids else 0

        def busy_s(name):
            return float(busy[ids[name]]) if name in ids else 0.0

        def self_s(name, children):
            """Busy time of `name` minus that of its direct children in
            `children`."""
            if name not in ids:
                return 0.0
            child_ids = [ids[c] for c in children if c in ids]
            has_parent = parent >= 0
            is_child = has_parent & np.isin(nid, child_ids)
            is_child[has_parent] &= nid[parent[has_parent]] == ids[name]
            return busy_s(name) - float(dur[is_child].sum())

        out: dict[str, tuple[float, str]] = {}
        for name, kinds in _REPORTED.items():
            if "calls" in kinds:
                out[f"{name}.calls"] = (calls(name), "count")
            if "busy_s" in kinds:
                out[f"{name}.busy_s"] = (busy_s(name), "s")

        block_us = dur[nid == ids["cipher.encrypt_block"]] * 1e6
        p50, p99 = np.percentile(block_us, [50, 99]) if block_us.size else (0.0, 0.0)
        out["cipher.encrypt_block.us_p50"] = (float(p50), "us")
        out["cipher.encrypt_block.us_p99"] = (float(p99), "us")
        out["cipher.rounds"] = (self.rounds, "count")
        blocks = calls("cipher.encrypt_block")
        out["cipher.wall_mask_builds_per_block"] = (
            calls("bitplane.wall_mask") / blocks if blocks else 0.0, "ratio")
        out["cipher.encrypt_stream.self_s"] = (
            self_s("cipher.encrypt_stream", ["cipher.encrypt_block"]), "s")
        out["cipher.decrypt_stream.self_s"] = (
            self_s("cipher.decrypt_stream", ["cipher.encrypt_block"]), "s")
        kernel_s = sum(busy_s(k) for k in _KERNELS)
        out["bitplane.round_us"] = (
            kernel_s / self.rounds * 1e6 if self.rounds else 0.0, "us")
        out["bitplane.plane_MB_computed"] = (
            self.plane_cells_rounds * _PLANE_BYTES_PER_CELL_ROUND / 1e6, "MB")
        out["experiments.self_s"] = (
            self_s("experiments.run_protocol", _CIPHER_LAYER), "s")
        return out
