"""Command-line surface.

Subcommands: transform, canonicalize, check-equiv, bounds, entropy-compare,
covering-sweep, basin, verify.  Every run is deterministic given its
arguments (all randomness flows from --seed) and echoes its fully-resolved
configuration into the output.  Exit codes: 0 success, 1 domain/validation
error, 2 internal invariant violation.

Relative --output paths are resolved against $FNEQUIV_OUTPUT_DIR when set.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from . import bounds as bounds_mod
from . import empirical, verify
from .basin import (
    InitScheme,
    OptimizerConfig,
    basin_experiment,
    teacher_dataset,
    xor_dataset,
)
from .canonical import canonicalize, effective_volume
from .equivalence import decide_equivalence, sampled_sup_distance
from .errors import ConfigError, FnequivError, DomainError
from .nncore import (
    Architecture,
    Network,
    activation_from_tag,
    arch_from_json_dict,
    load_network,
    network_to_json_dict,
)
from .transforms import (
    PermutationSpec,
    ScalingSpec,
    apply_permutation,
    apply_scaling,
    apply_sign_flip,
)

OUTPUT_DIR_ENV = "FNEQUIV_OUTPUT_DIR"


def _fmt(v: float) -> str:
    """Fixed 17-significant-digit float formatting for CSV cells."""
    return f"{v:.17g}"


def _resolve_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(_resolve_path(output), "w") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(config: dict, header: list[str], rows: list[list[str]]) -> str:
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _load_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def _json_int(value) -> int:
    """A JSON integer as an int; floats, booleans and strings are rejected."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _require_keys(doc: dict, allowed: set[str], what: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise DomainError(f"unknown fields in {what}: {sorted(unknown)}")


def _parse_arch(widths_spec: str, activations_spec: str) -> Architecture:
    try:
        widths = [int(w) for w in widths_spec.split("-")]
    except ValueError as exc:
        raise DomainError(f"bad architecture spec {widths_spec!r}") from exc
    if len(widths) < 3:
        raise DomainError("architecture spec needs input, hidden..., output widths")
    tags = activations_spec.split(",")
    n_hidden = len(widths) - 2
    if len(tags) == 1:
        tags = tags * n_hidden
    if len(tags) != n_hidden:
        raise DomainError(f"need {n_hidden} activations, got {len(tags)}")
    return Architecture(
        widths[0],
        tuple(widths[1:-1]),
        tuple(activation_from_tag(t) for t in tags),
        widths[-1],
    )


# ---------------------------------------------------------------------------
# transform


_TRANSFORM_KEYS = {
    "permutation": {"perms"},
    "scaling": {"layer", "alpha"},
    "sign_flip": {"layer", "signs"},
}


def cmd_transform(args) -> int:
    net = load_network(args.network)
    spec_doc = _load_json(args.transform)
    kind = spec_doc.get("kind")
    if kind not in _TRANSFORM_KEYS:
        raise DomainError(f"unknown transform kind {kind!r}")
    _require_keys(spec_doc, {"kind", *_TRANSFORM_KEYS[kind]}, "transform spec")
    try:
        if kind == "permutation":
            perms = PermutationSpec.from_json_list(spec_doc["perms"])
        elif kind == "scaling":
            scaling = ScalingSpec(_json_int(spec_doc["layer"]), tuple(spec_doc["alpha"]))
        else:
            layer = _json_int(spec_doc["layer"])
            signs = [float(s) for s in spec_doc["signs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed transform spec: {exc!r}") from exc
    if kind == "permutation":
        transformed = apply_permutation(net.params, perms)
    elif kind == "scaling":
        transformed = apply_scaling(net.arch, net.params, scaling)
    else:
        transformed = apply_sign_flip(net.arch, net.params, layer, signs)
    out_net = Network(net.arch, transformed)
    config = {
        "subcommand": "transform",
        "network": args.network,
        "transform": spec_doc,
        "output": args.output,
        "bx": args.bx,
        "samples": args.samples,
        "seed": args.seed,
    }
    doc = network_to_json_dict(out_net)
    doc["config"] = config
    _emit(_json_text(doc), args.output)
    dist = sampled_sup_distance(net, out_net, args.bx, args.samples, seed=args.seed)
    print(f"self-check: sampled sup distance to original = {_fmt(dist)}")
    return 0


# ---------------------------------------------------------------------------
# canonicalize


def cmd_canonicalize(args) -> int:
    net = load_network(args.network)
    form = canonicalize(net.params)
    config = {
        "subcommand": "canonicalize",
        "network": args.network,
        "output": args.output,
    }
    doc = {
        "config": config,
        "network": network_to_json_dict(Network(net.arch, form.params)),
        "witness": form.witness.to_json_list(),
        "already_canonical": form.witness.is_identity(),
    }
    _emit(_json_text(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# check-equiv


def cmd_check_equiv(args) -> int:
    first = load_network(args.first)
    second = load_network(args.second)
    verdict = decide_equivalence(
        first, second, args.bx, args.tolerance, args.samples, seed=args.seed
    )
    config = {
        "subcommand": "check-equiv",
        "first": args.first,
        "second": args.second,
        "bx": args.bx,
        "tolerance": args.tolerance,
        "samples": args.samples,
        "seed": args.seed,
        "output": args.output,
    }
    _emit(_json_text({"config": config, "verdict": verdict.to_json_dict()}), args.output)
    return 0


# ---------------------------------------------------------------------------
# bounds / entropy-compare


_BOUND_CONFIG_KEYS = {"arch", "B", "B_x", "epsilon", "rho"}
_SWEEP_KEYS = ("hidden", "B", "B_x", "epsilon")


def _config_from_doc(doc: dict) -> bounds_mod.BoundConfig:
    _require_keys(doc, _BOUND_CONFIG_KEYS, "bound config")
    try:
        _require_keys(doc["arch"], {"d0", "hidden", "out", "activations"}, "arch")
        return bounds_mod.BoundConfig(
            arch=arch_from_json_dict(doc["arch"]),
            B=float(doc["B"]),
            B_x=float(doc["B_x"]),
            epsilon=float(doc["epsilon"]),
            rho=tuple(doc["rho"]) if doc.get("rho") is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed bound config: {exc!r}") from exc


def _apply_flag_overrides(doc: dict, args) -> dict:
    """Flags beat config-file values; the merged document is echoed."""
    doc = dict(doc)
    if args.B is not None:
        doc["B"] = args.B
    if args.bx is not None:
        doc["B_x"] = args.bx
    if args.epsilon is not None:
        doc["epsilon"] = args.epsilon
    return doc


def _sweep_configs(base_doc: dict, sweep_doc: dict):
    _require_keys(sweep_doc, set(_SWEEP_KEYS), "sweep spec")
    axes = []
    for key in _SWEEP_KEYS:
        values = sweep_doc.get(key)
        axes.append([None] if values is None else list(values))
    for hidden, B, B_x, eps in itertools.product(*axes):
        doc = dict(base_doc)
        if hidden is not None:
            try:
                doc["arch"] = dict(doc["arch"], hidden=hidden)
                acts = doc["arch"]["activations"]
                if len(acts) == 1 and len(hidden) > 1:
                    doc["arch"]["activations"] = acts * len(hidden)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"malformed bound config: {exc!r}") from exc
        if B is not None:
            doc["B"] = B
        if B_x is not None:
            doc["B_x"] = B_x
        if eps is not None:
            doc["epsilon"] = eps
        yield _config_from_doc(doc)


def _bounds_row(cfg: bounds_mod.BoundConfig) -> dict:
    arch = cfg.arch
    comparison = bounds_mod.entropy_comparison(cfg)
    vol = effective_volume(arch, cfg.B)
    row = {
        "arch": arch.describe(),
        "activations": ",".join(a.tag() for a in arch.activations),
        "B": cfg.B,
        "B_x": cfg.B_x,
        "epsilon": cfg.epsilon,
        "rho": list(cfg.rho),
        "L": arch.depth,
        "S": arch.param_count,
        "U": arch.hidden_unit_count,
        "shallow_log_bound": (
            bounds_mod.shallow_covering_bound(cfg) if arch.depth == 1 else None
        ),
        "deep_log_bound": bounds_mod.deep_covering_bound(cfg),
        "entropies": comparison.values(),
        "floored": list(comparison.floored),
        "stirling": [
            {"d": d, "lower": br.lower, "factorial": br.factorial, "upper": br.upper}
            for d, br in (
                (d, bounds_mod.stirling_bracket(d)) for d in arch.hidden_widths
            )
        ],
        "log_total_volume": vol.log_total,
        "log_effective_volume": vol.log_effective,
        "effective_volume": vol.effective,
    }
    return row


_BOUNDS_CSV_HEADER = [
    "arch",
    "activations",
    "B",
    "B_x",
    "epsilon",
    "rho",
    "L",
    "S",
    "U",
    "shallow_log_bound",
    "deep_log_bound",
    "spectral_2017",
    "pacbayes_2017",
    "lin_2019",
    "pdim_2019",
    "permutation_aware",
    "floored",
    "stirling_brackets",
    "log_total_volume",
    "log_effective_volume",
    "effective_volume",
]


def _bounds_csv_row(row: dict) -> list[str]:
    stirling = ";".join(
        f"{s['d']}:{_fmt(s['lower'])}<{s['factorial']}<{_fmt(s['upper'])}"
        for s in row["stirling"]
    )
    return [
        row["arch"],
        row["activations"].replace(",", "|"),
        _fmt(row["B"]),
        _fmt(row["B_x"]),
        _fmt(row["epsilon"]),
        "|".join(_fmt(r) for r in row["rho"]),
        str(row["L"]),
        str(row["S"]),
        str(row["U"]),
        "" if row["shallow_log_bound"] is None else _fmt(row["shallow_log_bound"]),
        _fmt(row["deep_log_bound"]),
        *[_fmt(row["entropies"][k]) for k in bounds_mod.EntropyComparison.ROW_NAMES],
        "|".join(row["floored"]),
        stirling,
        _fmt(row["log_total_volume"]),
        _fmt(row["log_effective_volume"]),
        "" if row["effective_volume"] is None else _fmt(row["effective_volume"]),
    ]


def cmd_bounds(args) -> int:
    base_doc = _apply_flag_overrides(_load_json(args.config), args)
    config = {
        "subcommand": "bounds",
        "config_file": args.config,
        "sweep_file": args.sweep,
        "format": args.format,
        "output": args.output,
        "base": base_doc,
    }
    if args.sweep:
        sweep_doc = _load_json(args.sweep)
        config["sweep"] = sweep_doc
        configs = list(_sweep_configs(base_doc, sweep_doc))
    else:
        configs = [_config_from_doc(base_doc)]
    rows = [_bounds_row(cfg) for cfg in configs]
    if args.format == "json":
        _emit(_json_text({"config": config, "rows": rows}), args.output)
    else:
        _emit(
            _csv_text(config, _BOUNDS_CSV_HEADER, [_bounds_csv_row(r) for r in rows]),
            args.output,
        )
    return 0


def cmd_entropy_compare(args) -> int:
    base_doc = _apply_flag_overrides(_load_json(args.config), args)
    cfg = _config_from_doc(base_doc)
    comparison = bounds_mod.entropy_comparison(cfg)
    config = {
        "subcommand": "entropy-compare",
        "config_file": args.config,
        "format": args.format,
        "output": args.output,
        "resolved": base_doc,
    }
    if args.format == "json":
        doc = {
            "config": config,
            "entropies": comparison.values(),
            "floored": list(comparison.floored),
        }
        _emit(_json_text(doc), args.output)
    else:
        header = list(bounds_mod.EntropyComparison.ROW_NAMES) + ["floored"]
        row = [_fmt(comparison.values()[k]) for k in bounds_mod.EntropyComparison.ROW_NAMES]
        row.append("|".join(comparison.floored))
        _emit(_csv_text(config, header, [row]), args.output)
    return 0


# ---------------------------------------------------------------------------
# covering-sweep


def cmd_covering_sweep(args) -> int:
    epsilons = [float(e) for e in args.epsilons.split(",")]
    if any(e <= 0 for e in epsilons):
        raise DomainError("epsilons must be positive")
    space = empirical.grid_sample(args.dim, args.points_per_axis, args.half_width)
    volume = (2.0 * args.half_width) ** args.dim
    config = {
        "subcommand": "covering-sweep",
        "dim": args.dim,
        "points_per_axis": args.points_per_axis,
        "half_width": args.half_width,
        "epsilons": epsilons,
        "exact": args.exact,
        "output": args.output,
    }
    header = [
        "epsilon",
        "greedy_cover",
        "exact_cover",
        "greedy_pack",
        "exact_pack",
        "theory_bound_log",
    ]
    rows = []
    for eps in epsilons:
        greedy_cover = empirical.greedy_covering_estimate(space, eps)
        greedy_pack = empirical.greedy_packing_estimate(space, eps)
        exact_cover = exact_pack = ""
        if args.exact:
            exact_cover = str(empirical.exact_covering_number(space, eps))
            exact_pack = str(empirical.exact_packing_number(space, eps))
        theory_log = math.log(bounds_mod.volume_covering_bound(args.dim, volume, eps))
        rows.append(
            [
                _fmt(eps),
                str(greedy_cover),
                exact_cover,
                str(greedy_pack),
                exact_pack,
                _fmt(theory_log),
            ]
        )
    _emit(_csv_text(config, header, rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# basin


def cmd_basin(args) -> int:
    arch = _parse_arch(args.arch, args.activations)
    scheme = InitScheme(
        args.scheme,
        seed=args.seed,
        low=args.low,
        high=args.high,
        mu=args.mu,
        sigma=args.sigma,
    )
    if args.dataset == "xor":
        if arch.input_dim != 2 or arch.output_dim != 1:
            raise DomainError("the xor dataset needs a 2-input, 1-output network")
        dataset = xor_dataset()
    elif args.dataset == "teacher":
        if not args.teacher_network:
            raise DomainError("--teacher-network is required with --dataset teacher")
        teacher = load_network(args.teacher_network)
        if teacher.arch != arch:
            raise DomainError("teacher network architecture must match --arch")
        dataset = teacher_dataset(arch, teacher.params, args.n_points, args.bx, seed=args.seed)
    else:
        raise DomainError(f"unknown dataset {args.dataset!r}")
    opt = OptimizerConfig(args.step_size, args.iters, args.grad_threshold)
    summary = basin_experiment(
        arch,
        scheme,
        dataset,
        args.n_runs,
        opt,
        cluster_tolerance=args.cluster_tolerance,
        n_jobs=args.jobs,
    )
    config = {
        "subcommand": "basin",
        "arch": args.arch,
        "activations": args.activations,
        "scheme": args.scheme,
        "low": args.low,
        "high": args.high,
        "mu": args.mu,
        "sigma": args.sigma,
        "dataset": args.dataset,
        "n_runs": args.n_runs,
        "step_size": args.step_size,
        "iters": args.iters,
        "grad_threshold": args.grad_threshold,
        "cluster_tolerance": args.cluster_tolerance,
        "seed": args.seed,
        "output_prefix": args.output_prefix,
    }
    doc = {"config": config, "summary": summary.to_json_dict()}
    prefix = _resolve_path(args.output_prefix)
    with open(prefix + ".summary.json", "w") as fh:
        fh.write(_json_text(doc))
    header = ["run", "converged", "diverged", "iterations", "final_loss", "cluster_id"]
    rows = [
        [
            str(r.seed),
            str(int(r.converged)),
            str(int(r.diverged)),
            str(r.iterations),
            _fmt(r.final_loss),
            "" if r.cluster_id is None else str(r.cluster_id),
        ]
        for r in summary.runs
    ]
    with open(prefix + ".runs.csv", "w") as fh:
        fh.write(_csv_text(config, header, rows))
    print(
        f"basin: {summary.n_converged}/{summary.n_runs} converged, "
        f"{len(summary.cluster_sizes)} clusters"
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    try:
        report = verify.run_suite(args.suite, seed=args.seed)
    except KeyError:
        print(
            f"error: unknown suite {args.suite!r}; available: {', '.join(verify.SUITES)}",
            file=sys.stderr,
        )
        return 1
    _emit(_json_text(report), args.output)
    return 0 if report["passed"] else 2


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fnequiv", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("transform", help="apply a function-preserving transform to a network")
    p.add_argument("--network", required=True)
    p.add_argument("--transform", required=True, help="JSON transform spec file")
    p.add_argument("--output", default=None)
    p.add_argument("--bx", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("canonicalize", help="sort a network into its canonical form")
    p.add_argument("--network", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("check-equiv", help="decide functional equivalence of two networks")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--bx", type=float, default=1.0)
    p.add_argument("--tolerance", type=float, default=1e-7)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_check_equiv)

    p = sub.add_parser("bounds", help="evaluate covering bounds over a config (sweep)")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", default=None)
    p.add_argument("--epsilon", type=float, default=None, help="override the config value")
    p.add_argument("--B", type=float, default=None, help="override the config value")
    p.add_argument("--bx", type=float, default=None, help="override the config value")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("entropy-compare", help="the five comparable metric entropies")
    p.add_argument("--config", required=True)
    p.add_argument("--epsilon", type=float, default=None, help="override the config value")
    p.add_argument("--B", type=float, default=None, help="override the config value")
    p.add_argument("--bx", type=float, default=None, help="override the config value")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_entropy_compare)

    p = sub.add_parser("covering-sweep", help="greedy/exact covering and packing on a grid")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--points-per-axis", type=int, required=True)
    p.add_argument("--half-width", type=float, default=1.0)
    p.add_argument("--epsilons", required=True, help="comma-separated radii")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_covering_sweep)

    p = sub.add_parser("basin", help="multi-seed training and canonical clustering")
    p.add_argument("--arch", required=True, help="widths like 2-4-1")
    p.add_argument("--activations", default="tanh", help="comma-separated tags")
    p.add_argument("--scheme", choices=("uniform", "normal", "xavier", "he"), default="uniform")
    p.add_argument("--low", type=float, default=-1.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dataset", choices=("xor", "teacher"), default="xor")
    p.add_argument("--teacher-network", default=None)
    p.add_argument("--n-points", type=int, default=32)
    p.add_argument("--bx", type=float, default=1.0)
    p.add_argument("--n-runs", type=int, default=50)
    p.add_argument("--step-size", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--grad-threshold", type=float, default=1e-5)
    p.add_argument("--cluster-tolerance", type=float, default=None)
    p.add_argument("--jobs", type=int, default=1, help="ignored; runs train in lockstep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", default="basin")
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FnequivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is an internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
