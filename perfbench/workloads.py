"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (set-up), runs
its timed section in ``run``, and checks and digests the outputs afterwards.
Library functions are looked up on their modules at call time, so the traced
run sees the wrappers that ``spans.SpanRecorder.install`` put there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from time import perf_counter

import numpy as np

import fnequiv.cli
from fnequiv import basin, bounds, canonical, empirical, equivalence, nncore


class BasinXor:
    """The README's basin example scaled up, through the CLI in-process.

    Gradient descent on 4 points is dominated by per-step Python overhead
    (``mse_gradient``, the ``NetworkParams`` rebuild, ``check_shapes``), which
    is where lockstep batching would show; first-fit clustering of 600
    canonical forms is O(runs x clusters).  ``--jobs 1`` keeps every span in
    this process.
    """

    name = "basin-xor"
    N_RUNS = 600
    ITERS = 1000
    PREFIX = "xor"

    def __init__(self, seed: int, workdir: str):
        self.outdir = os.path.join(workdir, f"basin-out-{os.getpid()}")
        os.makedirs(self.outdir, exist_ok=True)
        os.environ[fnequiv.cli.OUTPUT_DIR_ENV] = self.outdir
        self.argv = [
            "basin", "--arch", "2-4-1", "--activations", "tanh",
            "--n-runs", str(self.N_RUNS), "--step-size", "0.5", "--iters", str(self.ITERS),
            "--grad-threshold", "1e-3", "--jobs", "1", "--seed", str(seed),
            "--output-prefix", self.PREFIX,
        ]  # fmt: skip
        self.ops = self.N_RUNS

    def run(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = fnequiv.cli.main(self.argv)
        files = {}
        for suffix in ("summary.json", "runs.csv"):
            path = os.path.join(self.outdir, f"{self.PREFIX}.{suffix}")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[suffix] = fh.read()
                os.remove(path)
        return {"code": code, "stdout": stdout.getvalue().encode(), "files": files}, {}, {}

    def cleanup(self):
        os.rmdir(self.outdir)

    def check(self, out):
        """Returns (failed ops, facts); one op is one training run."""
        n = self.N_RUNS
        try:
            summary = json.loads(out["files"]["summary.json"])["summary"]
            lines = out["files"]["runs.csv"].decode().splitlines()
            lines = [line for line in lines if not line.startswith("#")]
            col = {h: i for i, h in enumerate(lines[0].split(","))}
            rows = [line.split(",") for line in lines[1:]]
            iterations = [int(r[col["iterations"]]) for r in rows]
        except (KeyError, ValueError, IndexError):
            return n, {}
        if (
            out["code"] != 0
            or len(rows) != n
            or sum(summary["cluster_sizes"]) != summary["n_converged"]
        ):
            return n, {}
        bad = sum(
            1
            for r, it in zip(rows, iterations)
            if it > self.ITERS or (r[col["cluster_id"]] != "") != (r[col["converged"]] == "1")
        )
        facts = {
            "gd_steps": sum(iterations),
            "n_runs": summary["n_runs"],
            "n_converged": summary["n_converged"],
            "n_clusters": len(summary["cluster_sizes"]),
            "output_bytes": len(out["stdout"]) + sum(len(b) for b in out["files"].values()),
        }
        return bad, facts

    def digest(self, out) -> str:
        h = hashlib.sha256(out["stdout"])
        for suffix in sorted(out["files"]):
            h.update(suffix.encode() + out["files"][suffix])
        return h.hexdigest()

    def rates(self, facts, wall_s, phases):
        return {"gd_steps_per_s": (facts["gd_steps"] / wall_s, "steps/s")}

    def output_counters(self, facts):
        return {
            "basin.converged_frac": (facts["n_converged"], facts["n_runs"]),
            "basin.clusters_per_converged": (facts["n_clusters"], facts["n_converged"]),
            "cli.output_bytes": facts["output_bytes"],
        }


class FclassCover:
    """The paper's oracle-versus-theory pipeline, through the library API.

    Many tiny nets go through forward only (16384 ``canonicalize`` calls on
    width-2 layers, 8704 ``forward_batch`` calls); the greedy oracles then
    stream an 8704 x 35 value matrix (2.4 MB, about the size of L2); the
    grid step is the ``covering-sweep --exact`` computation.
    """

    name = "fclass-cover"
    SAMPLE_EPS = (0.2, 0.4)
    GRID_EPS = (0.1875, 0.375, 0.75)
    GRID_DIM = 2
    GRID_POINTS_PER_AXIS = 12
    N_ENUMERATED = 4**7
    N_KEPT = 8704

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.arch = nncore.Architecture(1, (2,), (nncore.RELU,), 1)
        self.ops = 1 + 2 * len(self.SAMPLE_EPS) + 5 * len(self.GRID_EPS)

    def run(self):
        t0 = perf_counter()
        sample = empirical.function_class_sample(
            self.arch, 1.0, 4, 1.0, 32, dedup_canonical=True, eval_seed=self.seed
        )
        sample_s = perf_counter() - t0
        cover_s = 0.0
        sample_rows = []
        for eps in self.SAMPLE_EPS:
            t = perf_counter()
            n = empirical.greedy_covering_estimate(sample, eps)
            m = empirical.greedy_packing_estimate(sample, eps)
            cover_s += perf_counter() - t
            sample_rows.append((eps, n, m))
        grid = empirical.grid_sample(self.GRID_DIM, self.GRID_POINTS_PER_AXIS)
        volume = 2.0**self.GRID_DIM
        grid_rows = []
        for eps in self.GRID_EPS:
            t = perf_counter()
            gc = empirical.greedy_covering_estimate(grid, eps)
            gp = empirical.greedy_packing_estimate(grid, eps)
            ec = empirical.exact_covering_number(grid, eps)
            ep = empirical.exact_packing_number(grid, eps)
            cover_s += perf_counter() - t
            theory = bounds.volume_covering_bound(self.GRID_DIM, volume, eps)
            grid_rows.append((eps, gc, ec, gp, ep, theory))
        out = {"sample": sample, "sample_rows": sample_rows, "grid_rows": grid_rows}
        return out, {"sample_s": sample_s, "cover_s": cover_s}, {}

    def cleanup(self):
        pass

    def check(self, out):
        """Returns (failed ops, facts); one op is one sampler, oracle or bound call."""
        failed = set()
        prov = out["sample"].provenance
        if prov["n_enumerated"] != self.N_ENUMERATED or prov["n_kept"] != self.N_KEPT:
            failed.add("sample")
        for eps, n, m in out["sample_rows"]:
            if not m <= n:
                failed |= {("cover", eps), ("pack", eps)}
        for eps, gc, ec, gp, ep, theory in out["grid_rows"]:
            if not gp <= ep <= ec <= gc:
                failed |= {("gc", eps), ("ec", eps), ("gp", eps), ("ep", eps)}
            if not ec <= theory:
                failed |= {("ec", eps), ("bound", eps)}
        facts = {"n_enumerated": prov["n_enumerated"], "n_kept": prov["n_kept"]}
        return len(failed), facts

    def digest(self, out) -> str:
        h = hashlib.sha256(out["sample"].points.tobytes())
        h.update(json.dumps(out["sample"].provenance, sort_keys=True).encode())
        h.update(repr((out["sample_rows"], out["grid_rows"])).encode())
        return h.hexdigest()

    def rates(self, facts, wall_s, phases):
        return {
            "nets_per_s": (facts["n_enumerated"] / phases["sample_s"], "nets/s"),
            "cover_s": (phases["cover_s"], "s"),
        }

    def output_counters(self, facts):
        return {"canonical.dedup_kept_frac": (facts["n_kept"], facts["n_enumerated"])}


def _permuted(layers, perms):
    """Gather hidden rows by ``perms`` and the next layer's columns to match."""
    out = []
    for l, (W, b) in enumerate(layers):
        if l < len(perms):
            W, b = W[perms[l]], b[perms[l]]
        if l > 0:
            W = W[:, perms[l - 1]]
        out.append((W, b))
    return out


class OrbitEquiv:
    """Orbit amplification, orbit enumeration and equivalence decisions.

    Uses the same modules as the other workloads differently: ``canonicalize``
    on 64-row layers, ``forward_batch`` on ~4100 points for few nets,
    ``apply_permutation`` in orbit enumeration, memory held by the up-front
    initialization draws, and ``ball_points`` regenerated on every sampled
    fallback.
    """

    name = "orbit-equiv"
    N_DRAWS = 2_000_000
    N_PAIRS = 400
    PERTURBATION = 1e-3
    EQUIV_WIDTHS = (4, 64, 16, 1)
    ORBIT_WIDTHS = (2, 7, 1)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        # Three hidden rows (w, b) at pairwise L-inf gap 1, so the default
        # tolerance 0.5 keeps every image's neighbourhood inside [-1, 1]^10.
        self.amp_arch = nncore.Architecture(1, (3,), (nncore.RELU,), 1)
        self.theta_star = nncore.NetworkParams(
            (
                (np.array([[-0.5], [0.5], [-0.5]]), np.array([-0.5, -0.5, 0.5])),
                (np.array([[0.1, -0.2, 0.3]]), np.array([0.0])),
            )
        )
        self.scheme = basin.InitScheme("uniform", seed=seed, low=-1.0, high=1.0)
        self.orbit_net = nncore.NetworkParams(tuple(_random_layers(rng, self.ORBIT_WIDTHS)))
        self.equiv_arch = nncore.Architecture(
            4, (64, 16), (nncore.TANH, nncore.RELU), 1
        )
        self.pairs = []
        for i in range(self.N_PAIRS):
            layers = _random_layers(rng, self.EQUIV_WIDTHS)
            perms = [rng.permutation(d) for d in self.EQUIV_WIDTHS[1:-1]]
            copy = _permuted(layers, perms)
            if i % 2:
                copy = [(W + self.PERTURBATION, b + self.PERTURBATION) for W, b in copy]
            self.pairs.append(
                (
                    nncore.Network(self.equiv_arch, nncore.NetworkParams(tuple(layers))),
                    nncore.Network(self.equiv_arch, nncore.NetworkParams(tuple(copy))),
                )
            )
        self.ops = 2 + self.N_PAIRS

    def run(self):
        t = perf_counter()
        amp = basin.amplification_check(
            self.amp_arch, self.scheme, self.theta_star, self.N_DRAWS
        )
        amplification_s = perf_counter() - t
        t = perf_counter()
        images = canonical.distinct_permutation_images(self.orbit_net)
        images_s = perf_counter() - t
        verdicts, latencies = [], []
        for f1, f2 in self.pairs:
            t = perf_counter()
            verdicts.append(equivalence.decide_equivalence(f1, f2, 1.0))
            latencies.append(perf_counter() - t)
        out = {"amp": amp, "images": images, "verdicts": verdicts}
        phases = {
            "amplification_s": amplification_s,
            "images_s": images_s,
            "equiv_s": sum(latencies),
        }
        return out, phases, {"equiv_pair_s": latencies}

    def cleanup(self):
        pass

    def check(self, out):
        """Returns (failed ops, facts); one op is the amplification check, the
        orbit enumeration, or one equivalence decision."""
        amp = out["amp"]
        # within(4.0), not 3.0: a 3-SE test fails ~0.3% of seeds on a correct
        # program, and the benchmark is run on dozens of seeds.
        failed = int(not (amp.n_images == amp.predicted_ratio == 6 and amp.within(4.0)))
        failed += int(len(out["images"]) != math.factorial(7))
        structural = 0
        for i, ((f1, f2), v) in enumerate(zip(self.pairs, out["verdicts"])):
            if i % 2:
                ok = v.kind == equivalence.DISTINGUISHED
            else:
                ok = v.kind == equivalence.STRUCTURALLY_EQUAL and _maps_exactly(
                    f1.params, f2.params, v.witness
                )
            structural += v.kind == equivalence.STRUCTURALLY_EQUAL
            failed += int(not ok)
        facts = {
            "images": len(out["images"]) + amp.n_images,
            "perms_tried": math.factorial(7) + math.factorial(3),
            "structural": structural,
            "pairs": len(out["verdicts"]),
            "orbit_hits": round(amp.p_orbit * amp.n_draws),
            "draws": amp.n_draws,
        }
        return failed, facts

    def digest(self, out) -> str:
        amp = out["amp"]
        h = hashlib.sha256(repr(amp).encode())
        for img in out["images"]:
            h.update(img.flat().tobytes())
        for v in out["verdicts"]:
            h.update(json.dumps(v.to_json_dict(), sort_keys=True).encode())
        return h.hexdigest()

    def rates(self, facts, wall_s, phases):
        return {
            "draws_per_s": (self.N_DRAWS / phases["amplification_s"], "draws/s"),
            "equiv_pairs_per_s": (facts["pairs"] / phases["equiv_s"], "pairs/s"),
        }

    def output_counters(self, facts):
        return {
            "canonical.images_per_perm": (facts["images"], facts["perms_tried"]),
            "equivalence.structural_frac": (facts["structural"], facts["pairs"]),
            "basin.orbit_hit_frac": (facts["orbit_hits"], facts["draws"]),
        }


def _random_layers(rng, widths):
    return [
        (rng.uniform(-1.0, 1.0, size=(d_out, d_in)), rng.uniform(-1.0, 1.0, size=d_out))
        for d_in, d_out in zip(widths[:-1], widths[1:])
    ]


def _maps_exactly(first, second, witness) -> bool:
    """True when gathering ``first`` by the witness gives ``second`` bit for bit."""
    if witness is None:
        return False
    mapped = _permuted(first.layers, witness.perms)
    return all(
        W.tobytes() == W2.tobytes() and b.tobytes() == b2.tobytes()
        for (W, b), (W2, b2) in zip(mapped, second.layers)
    )


WORKLOADS = {w.name: w for w in (BasinXor, FclassCover, OrbitEquiv)}
