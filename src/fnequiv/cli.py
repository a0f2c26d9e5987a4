"""Command-line surface.

Subcommands: transform, canonicalize, check-equiv, bounds, entropy-compare,
covering-sweep, basin, verify.  Every run is deterministic given its
arguments (all randomness flows from --seed) and echoes its fully-resolved
configuration into the output: every parsed argument under its dest name,
with the --epsilon/--B/--bx overrides folded into base/resolved, and without
basin's --jobs or, for an xor run, its teacher-only fields.  A bounds sweep
axis must be a non-empty list, B, B_x and epsilon must be JSON numbers (not
booleans or strings) and rho a list of them, and a d! too long to print as a
decimal string is an empty cell (null in JSON).  Every number is
range-checked before any work: NaN never passes a bound, and +inf is accepted
only by check-equiv's --tolerance and basin's --grad-threshold.  Exit codes:
0 success, 1 domain/validation error, 2 internal invariant violation.

Relative --output paths are resolved against $FNEQUIV_OUTPUT_DIR when set.
"""

from __future__ import annotations

import argparse
import itertools
import json
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
from .equivalence import decide_equivalence, sampled_sup_distance, _check_sample_budget
from .errors import ConfigError, FnequivError, DomainError, check_range
from .nncore import (
    Architecture,
    Network,
    activation_from_tag,
    arch_from_json_dict,
    load_network,
    network_to_json_dict,
    _json_float,
    _json_floats,
    _json_int,
    _require_keys,
)
from .transforms import NeuronSymmetry

OUTPUT_DIR_ENV = "FNEQUIV_OUTPUT_DIR"


def _cell(value) -> str:
    """One CSV cell: None is empty, a bool 0 or 1, a float 17 significant
    digits, a list its cells joined with ``|``, anything else ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return "|".join(map(_cell, value))
    return str(value)


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to stdout when ``output`` is None, else to the file
    ``output``, a relative path being taken inside $FNEQUIV_OUTPUT_DIR when set."""
    if output is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    with open(os.path.join(base, output) if base else output, "w") as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _echo(args, drop=(), **resolved) -> dict:
    """The configuration a run echoes: every parsed argument except ``func``
    and the ``drop`` names, with the ``resolved`` values put in."""
    skip = {"func", *drop}
    return {**{k: v for k, v in vars(args).items() if k not in skip}, **resolved}


def _load_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    return doc


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


# Each kind's fields.  A one-layer kind is named after its ``NeuronSymmetry``
# constructor, and its last field holds the per-neuron values.
_TRANSFORM_KEYS = {
    "permutation": ("perms",),
    "scaling": ("layer", "alpha"),
    "sign_flip": ("layer", "signs"),
}


def cmd_transform(args) -> int:
    net = load_network(args.network)
    spec_doc = _load_json(args.transform)
    kind = spec_doc.get("kind")
    if kind not in _TRANSFORM_KEYS:
        raise DomainError(f"unknown transform kind {kind!r}")
    _require_keys(spec_doc, {"kind", *_TRANSFORM_KEYS[kind]}, "transform spec", DomainError)
    try:
        if kind == "permutation":
            element = NeuronSymmetry.from_json_list(spec_doc["perms"])
        else:
            layer = _json_int(spec_doc["layer"])
            values = _json_floats(spec_doc[_TRANSFORM_KEYS[kind][-1]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed transform spec: {exc!r}") from exc
    if kind != "permutation":
        element = getattr(NeuronSymmetry, kind)(net.arch, layer, values)
    out_net = Network(net.arch, element.apply(net.params, net.arch))
    _check_sample_budget("--samples", args.samples, net.arch.input_dim, *net.arch.widths)
    # Measured before anything is written, so an invalid --samples or --bx
    # leaves no output file.
    dist = sampled_sup_distance(net, out_net, args.bx, args.samples, seed=args.seed)
    doc = network_to_json_dict(out_net)
    doc["config"] = _echo(args, transform=spec_doc)
    _emit(_json_text(doc), args.output)
    print(f"self-check: sampled sup distance to original = {_cell(dist)}")
    return 0


# ---------------------------------------------------------------------------
# canonicalize


def cmd_canonicalize(args) -> int:
    net = load_network(args.network)
    form = canonicalize(net.params)
    doc = {
        "config": _echo(args),
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
    widths = (*first.arch.widths, *second.arch.widths)
    _check_sample_budget("--samples", args.samples, first.arch.input_dim, *widths)
    verdict = decide_equivalence(
        first, second, args.bx, args.tolerance, args.samples, seed=args.seed
    )
    _emit(_json_text({"config": _echo(args), "verdict": verdict.to_json_dict()}), args.output)
    return 0


# ---------------------------------------------------------------------------
# bounds / entropy-compare


_BOUND_CONFIG_KEYS = {"arch", "B", "B_x", "epsilon", "rho"}
_SWEEP_KEYS = ("hidden", "B", "B_x", "epsilon")
# The override flags' dests; the echo holds their values inside base/resolved.
_OVERRIDE_FLAGS = ("epsilon", "B", "bx")


def _config_from_doc(doc: dict) -> bounds_mod.BoundConfig:
    _require_keys(doc, _BOUND_CONFIG_KEYS, "bound config", DomainError)
    try:
        return bounds_mod.BoundConfig(
            arch=arch_from_json_dict(doc["arch"]),
            B=_json_float(doc["B"]),
            B_x=_json_float(doc["B_x"]),
            epsilon=_json_float(doc["epsilon"]),
            rho=None if doc.get("rho") is None else _json_floats(doc["rho"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed bound config: {exc!r}") from exc


def _override(doc: dict, **values) -> dict:
    """A copy of ``doc`` with each value that is not None put in; the merged
    document is what gets echoed."""
    return {**doc, **{k: v for k, v in values.items() if v is not None}}


def _sweep_configs(base_doc: dict, sweep_doc: dict):
    _require_keys(sweep_doc, set(_SWEEP_KEYS), "sweep spec", DomainError)
    axes = [[None] if sweep_doc.get(k) is None else sweep_doc[k] for k in _SWEEP_KEYS]
    for name, axis in zip(_SWEEP_KEYS, axes):
        if not isinstance(axis, list):
            raise ConfigError(f"sweep axis {name!r} must be a list, got {axis!r}")
        if not axis:
            raise ConfigError(f"sweep axis {name!r} is empty, so the sweep has no rows")
    for hidden, B, B_x, eps in itertools.product(*axes):
        doc = _override(base_doc, B=B, B_x=B_x, epsilon=eps)
        if hidden is not None:
            try:
                doc["arch"] = dict(doc["arch"], hidden=hidden)
                acts = doc["arch"]["activations"]
                if len(acts) == 1 and len(hidden) > 1:
                    doc["arch"]["activations"] = acts * len(hidden)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"malformed bound config: {exc!r}") from exc
        yield _config_from_doc(doc)


def _bounds_row(cfg: bounds_mod.BoundConfig) -> dict:
    arch = cfg.arch
    comparison = bounds_mod.entropy_comparison(cfg)
    vol = effective_volume(arch, cfg.B)
    return {
        "arch": arch.describe(),
        "activations": ",".join(a.tag() for a in arch.activations),
        "B": cfg.B,
        "B_x": cfg.B_x,
        "epsilon": cfg.epsilon,
        "rho": list(cfg.rho),
        "L": arch.depth,
        "S": arch.param_count,
        "U": arch.hidden_unit_count,
        "shallow_log_bound": bounds_mod.shallow_covering_bound(cfg) if arch.depth == 1 else None,
        "deep_log_bound": bounds_mod.deep_covering_bound(cfg),
        "entropies": comparison.values(),
        "floored": list(comparison.floored),
        "stirling": [
            {"d": d, **vars(bounds_mod.stirling_bracket(d))} for d in arch.hidden_widths
        ],
        "log_total_volume": vol.log_total,
        "log_effective_volume": vol.log_effective,
        "effective_volume": vol.effective,
    }


# entropy-compare's CSV columns, and the bounds CSV's; a row is a dict with a
# value for each column.
_ENTROPY_COLUMNS = [*bounds_mod.EntropyComparison.ROW_NAMES, "floored"]
_BOUNDS_COLUMNS = [
    "arch", "activations", "B", "B_x", "epsilon", "rho", "L", "S", "U", "shallow_log_bound",
    "deep_log_bound", *_ENTROPY_COLUMNS, "stirling_brackets", "log_total_volume",
    "log_effective_volume", "effective_volume",
]  # fmt: skip


def _bounds_cells(row: dict) -> dict:
    """A ``_bounds_row`` as its CSV row: the entropies as columns of their
    own, the activations joined with ``|``, and the Stirling brackets as one
    ``d:lower<d!<upper`` cell, a hidden layer each, joined with ``;``."""
    brackets = ";".join(
        f"{s['d']}:{_cell(s['lower'])}<{_cell(s['factorial'])}<{_cell(s['upper'])}"
        for s in row["stirling"]
    )
    activations = row["activations"].split(",")
    return {**row, **row["entropies"], "activations": activations, "stirling_brackets": brackets}


def _table_text(config: dict, columns: list[str], rows) -> str:
    """A CSV of the ``rows`` (dicts) under a ``# config:`` line, a
    ``_cell`` for each named column."""
    lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(columns)]
    lines.extend(",".join(_cell(row[name]) for name in columns) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_bounds(args) -> int:
    base_doc = _override(_load_json(args.config_file), B=args.B, B_x=args.bx, epsilon=args.epsilon)
    sweep = {"sweep": _load_json(args.sweep_file)} if args.sweep_file else {}
    # An empty sweep yields the base config alone.
    rows = [_bounds_row(cfg) for cfg in _sweep_configs(base_doc, sweep.get("sweep", {}))]
    config = _echo(args, drop=_OVERRIDE_FLAGS, base=base_doc, **sweep)
    if args.format == "json":
        _emit(_json_text({"config": config, "rows": rows}), args.output)
    else:
        _emit(_table_text(config, _BOUNDS_COLUMNS, map(_bounds_cells, rows)), args.output)
    return 0


def cmd_entropy_compare(args) -> int:
    base_doc = _override(_load_json(args.config_file), B=args.B, B_x=args.bx, epsilon=args.epsilon)
    comparison = bounds_mod.entropy_comparison(_config_from_doc(base_doc))
    config = _echo(args, drop=_OVERRIDE_FLAGS, resolved=base_doc)
    row = {"entropies": comparison.values(), "floored": list(comparison.floored)}
    if args.format == "json":
        _emit(_json_text({"config": config, **row}), args.output)
    else:
        _emit(_table_text(config, _ENTROPY_COLUMNS, [{**row, **row["entropies"]}]), args.output)
    return 0


# ---------------------------------------------------------------------------
# covering-sweep


_COVER_COLUMNS = [
    "epsilon", "greedy_cover", "exact_cover", "greedy_pack", "exact_pack", "theory_bound_log"
]


def cmd_covering_sweep(args) -> int:
    try:
        epsilons = [float(e) for e in args.epsilons.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --epsilons: {exc}") from exc
    for eps in epsilons:
        check_range("epsilon", eps, 0, low_open=True)
    space = empirical.grid_sample(args.dim, args.points_per_axis, args.half_width)
    volume = (2.0 * args.half_width, args.dim)  # (2h)^d, which may leave the double range
    rows = [
        {
            "epsilon": eps,
            "greedy_cover": empirical.greedy_covering_estimate(space, eps),
            "greedy_pack": empirical.greedy_packing_estimate(space, eps),
            "exact_cover": empirical.exact_covering_number(space, eps) if args.exact else None,
            "exact_pack": empirical.exact_packing_number(space, eps) if args.exact else None,
            "theory_bound_log": bounds_mod.log_volume_covering_bound(args.dim, volume, eps),
        }
        for eps in epsilons
    ]
    _emit(_table_text(_echo(args, epsilons=epsilons), _COVER_COLUMNS, rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# basin


# The teacher dataset's settings; an xor run does not echo them.
_TEACHER_ONLY = ("teacher_network", "n_points", "bx")
# runs.csv's columns: a TrainRun's fields, its seed as "run".
_RUNS_COLUMNS = ["run", "converged", "diverged", "iterations", "final_loss", "cluster_id"]


def cmd_basin(args) -> int:
    check_range("--jobs", args.jobs, 1)
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
    else:
        if not args.teacher_network:
            raise DomainError("--teacher-network is required with --dataset teacher")
        teacher = load_network(args.teacher_network)
        if teacher.arch != arch:
            raise DomainError("teacher network architecture must match --arch")
        dataset = teacher_dataset(arch, teacher.params, args.n_points, args.bx, seed=args.seed)
    opt = OptimizerConfig(args.step_size, args.iters, args.grad_threshold)
    summary = basin_experiment(
        arch,
        scheme,
        dataset,
        args.n_runs,
        opt,
        cluster_tolerance=args.cluster_tolerance,
    )
    teacher_only = () if args.dataset == "teacher" else _TEACHER_ONLY
    config = _echo(args, drop=("jobs", *teacher_only))
    doc = {"config": config, "summary": summary.to_json_dict()}
    _emit(_json_text(doc), args.output_prefix + ".summary.json")
    runs = ({**vars(r), "run": r.seed} for r in summary.runs)
    _emit(_table_text(config, _RUNS_COLUMNS, runs), args.output_prefix + ".runs.csv")
    print(
        f"basin: {summary.n_converged}/{summary.n_runs} converged, "
        f"{len(summary.cluster_sizes)} clusters"
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, seed=args.seed)
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

    bound_args = argparse.ArgumentParser(add_help=False)
    bound_args.add_argument("--config", dest="config_file", metavar="CONFIG", required=True)
    for dest in _OVERRIDE_FLAGS:
        bound_args.add_argument("--" + dest, type=float, help="override the config value")
    bound_args.add_argument("--output", default=None)

    p = sub.add_parser(
        "bounds", parents=[bound_args], help="evaluate covering bounds over a config (sweep)"
    )
    p.add_argument("--sweep", dest="sweep_file", metavar="SWEEP", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "entropy-compare", parents=[bound_args], help="the five comparable metric entropies"
    )
    p.add_argument("--format", choices=("csv", "json"), default="json")
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
    p.add_argument(
        "--jobs", type=int, default=1, help="ignored (runs train in lockstep), but must be >= 1"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", default="basin")
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=verify.SUITES, metavar="suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (FnequivError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is an internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
