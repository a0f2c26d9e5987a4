import json

import numpy as np
import pytest

from fnequiv.cli import main
from fnequiv.nncore import (
    Architecture,
    Network,
    NetworkParams,
    TANH,
    load_network,
    params_identical,
    random_params,
    save_network,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_net(tmp_path):
    path = tmp_path / "net.json"
    arch = Architecture(1, (2,), (TANH,))
    params = NetworkParams((([[1.0], [2.0]], [3.0, 4.0]), ([[5.0, 6.0]], [7.0])))
    save_network(Network(arch, params), path)
    return path


@pytest.fixture
def bound_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "arch": {"d0": 1, "hidden": [2], "out": 1, "activations": ["relu"]},
                "B": 1.0,
                "B_x": 1.0,
                "epsilon": 1.0,
            }
        )
    )
    return path


class TestTransform:
    def test_identity_permutation_round_trips(self, tmp_path, small_net, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "permutation", "perms": [[0, 1]]}))
        out = tmp_path / "out.json"
        code, stdout, _ = run_cli(
            ["transform", "--network", str(small_net), "--transform", str(spec), "--output", str(out)],
            capsys,
        )
        assert code == 0
        original = load_network(small_net)
        transformed = load_network(out)
        assert params_identical(original.params, transformed.params)
        assert "self-check" in stdout

    def test_swap_matches_hand_example(self, tmp_path, small_net, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "permutation", "perms": [[1, 0]]}))
        out = tmp_path / "out.json"
        code, stdout, _ = run_cli(
            ["transform", "--network", str(small_net), "--transform", str(spec), "--output", str(out)],
            capsys,
        )
        assert code == 0
        net = load_network(out)
        assert net.params.weight(1).tolist() == [[2.0], [1.0]]
        assert net.params.bias(1).tolist() == [4.0, 3.0]
        assert net.params.weight(2).tolist() == [[6.0, 5.0]]
        dist = float(stdout.split("=")[-1])
        assert dist <= 1e-9

    def test_random_spec_self_check(self, tmp_path, capsys):
        arch = Architecture(2, (4,), (TANH,))
        params = random_params(arch, np.random.default_rng(0))
        net_path = tmp_path / "n.json"
        save_network(Network(arch, params), net_path)
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"kind": "permutation", "perms": [[2, 0, 3, 1]]}))
        out = tmp_path / "o.json"
        code, stdout, _ = run_cli(
            ["transform", "--network", str(net_path), "--transform", str(spec), "--output", str(out)],
            capsys,
        )
        assert code == 0
        assert float(stdout.split("=")[-1]) <= 1e-9

    def test_scaling_gating_error(self, tmp_path, small_net, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "scaling", "layer": 1, "alpha": [2.0, 2.0]}))
        code, _, err = run_cli(
            ["transform", "--network", str(small_net), "--transform", str(spec)], capsys
        )
        assert code == 1
        assert "homogeneous" in err

    def test_unknown_spec_fields_rejected(self, tmp_path, small_net, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "permutation", "perms": [[0, 1]], "extra": 1}))
        code, _, err = run_cli(
            ["transform", "--network", str(small_net), "--transform", str(spec)], capsys
        )
        assert code == 1
        assert "unknown fields" in err


    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "permutation"},
            {"kind": "scaling", "alpha": [2.0, 2.0]},
            {"kind": "scaling", "layer": 1},
            {"kind": "sign_flip", "signs": [1.0, -1.0]},
            {"kind": "sign_flip", "layer": 1},
            {"kind": "sign_flip", "layer": [1], "signs": [1.0, -1.0]},
            {"kind": "scaling", "layer": "first", "alpha": [2.0, 2.0]},
        ],
        ids=[
            "permutation_without_perms",
            "scaling_without_layer",
            "scaling_without_alpha",
            "sign_flip_without_layer",
            "sign_flip_without_signs",
            "list_layer",
            "string_layer",
        ],
    )
    def test_missing_or_ill_typed_spec_field_exits_one(self, tmp_path, small_net, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(
            ["transform", "--network", str(small_net), "--transform", str(path)], capsys
        )
        assert code == 1
        assert "malformed transform spec" in err

    @pytest.mark.parametrize("layer", [1.7, True, "1"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("kind,values", [("sign_flip", "signs"), ("scaling", "alpha")])
    def test_non_integer_layer_exits_one(self, tmp_path, small_net, capsys, layer, kind, values):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": kind, "layer": layer, values: [1.0, 1.0]}))
        code, _, err = run_cli(
            ["transform", "--network", str(small_net), "--transform", str(path)], capsys
        )
        assert code == 1
        assert "malformed transform spec" in err

    def test_spec_that_is_not_an_object_exits_one(self, tmp_path, small_net, capsys):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(
            ["transform", "--network", str(small_net), "--transform", str(path)], capsys
        )
        assert code == 1
        assert "JSON object" in err


class TestCanonicalize:
    def test_output_sorted_with_witness(self, tmp_path, capsys):
        arch = Architecture(1, (3,), (TANH,))
        params = NetworkParams(
            (([[1.0], [2.0], [3.0]], [1.0, 3.0, 2.0]), ([[4.0, 5.0, 6.0]], [0.0]))
        )
        net_path = tmp_path / "n.json"
        save_network(Network(arch, params), net_path)
        out = tmp_path / "c.json"
        code, _, _ = run_cli(
            ["canonicalize", "--network", str(net_path), "--output", str(out)], capsys
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["network"]["layers"][0]["b"] == [3.0, 2.0, 1.0]
        assert not doc["already_canonical"]
        assert doc["config"]["subcommand"] == "canonicalize"


class TestCheckEquiv:
    def test_permuted_pair_structural(self, tmp_path, capsys):
        arch = Architecture(2, (3,), (TANH,))
        params = random_params(arch, np.random.default_rng(1))
        from fnequiv.transforms import apply_permutation, random_spec

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_network(Network(arch, params), a)
        save_network(
            Network(arch, apply_permutation(params, random_spec(arch, np.random.default_rng(2)))), b
        )
        out = tmp_path / "v.json"
        code, _, _ = run_cli(
            ["check-equiv", "--first", str(a), "--second", str(b), "--output", str(out)], capsys
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"]["kind"] == "structurally_equal_by_permutation"


class TestBounds:
    def test_single_config_row(self, tmp_path, bound_config, capsys):
        out = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            ["bounds", "--config", str(bound_config), "--output", str(out)], capsys
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# config:")
        header = lines[1].split(",")
        row = lines[2].split(",")
        assert len(header) == len(row)
        assert all(cell != "" for cell in row)

    def test_epsilon_sweep_log_steps(self, tmp_path, bound_config, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"epsilon": [1.0, 0.5, 0.25]}))
        out = tmp_path / "rows.json"
        code, _, _ = run_cli(
            [
                "bounds",
                "--config",
                str(bound_config),
                "--sweep",
                str(sweep),
                "--format",
                "json",
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        import math

        S = rows[0]["S"]
        d1 = rows[0]["deep_log_bound"]
        d2 = rows[1]["deep_log_bound"]
        d3 = rows[2]["deep_log_bound"]
        assert d2 - d1 == pytest.approx(S * math.log(2), rel=1e-9)
        assert d3 - d2 == pytest.approx(S * math.log(2), rel=1e-9)

    def test_width_sweep_vanishing_volume(self, tmp_path, bound_config, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"hidden": [[d] for d in range(8, 33, 4)]}))
        out = tmp_path / "rows.json"
        code, _, _ = run_cli(
            [
                "bounds",
                "--config",
                str(bound_config),
                "--sweep",
                str(sweep),
                "--format",
                "json",
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        vols = [r["log_effective_volume"] for r in rows]
        assert all(a > b for a, b in zip(vols, vols[1:]))

    def test_flags_override_config_file(self, tmp_path, bound_config, capsys):
        out = tmp_path / "rows.json"
        code, _, _ = run_cli(
            [
                "bounds",
                "--config",
                str(bound_config),
                "--epsilon",
                "0.5",
                "--format",
                "json",
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["epsilon"] == 0.5  # file said 1.0
        assert doc["config"]["base"]["epsilon"] == 0.5  # resolved value echoed

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "arch": {"d0": 1, "hidden": [2], "out": 1, "activations": ["relu"]},
                    "B": 1.0,
                    "B_x": 1.0,
                    "epsilon": 1.0,
                    "extra_field": 5,
                }
            )
        )
        code, _, err = run_cli(["bounds", "--config", str(cfg)], capsys)
        assert code == 1
        assert "extra_field" in err


    @pytest.mark.parametrize(
        "doc",
        [
            {"arch": {"d0": 1, "out": 1, "activations": ["relu"]}, "B": 1.0, "B_x": 1.0, "epsilon": 1.0},
            {"arch": {"d0": 1, "hidden": [2], "out": 1, "activations": ["relu"]}, "B_x": 1.0, "epsilon": 1.0},
        ],
        ids=["arch_without_hidden", "config_without_B"],
    )
    def test_missing_field_is_invalid_configuration(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["bounds", "--config", str(cfg)], capsys)
        assert code == 1
        assert "internal error" not in err

    @pytest.mark.parametrize("which", ["config", "sweep"])
    def test_document_that_is_not_an_object_exits_one(
        self, tmp_path, bound_config, capsys, which
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        args = ["bounds", "--config", str(bound_config), "--sweep", str(bad)]
        if which == "config":
            args = ["bounds", "--config", str(bad)]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "JSON object" in err

    def test_hidden_sweep_without_arch_is_invalid_configuration(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"B": 1.0, "B_x": 1.0, "epsilon": 1.0}))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"hidden": [[2]]}))
        code, _, err = run_cli(["bounds", "--config", str(cfg), "--sweep", str(sweep)], capsys)
        assert code == 1
        assert "malformed bound config" in err


class TestEntropyCompare:
    def test_json_output(self, tmp_path, bound_config, capsys):
        out = tmp_path / "ent.json"
        code, _, _ = run_cli(
            ["entropy-compare", "--config", str(bound_config), "--output", str(out)], capsys
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["entropies"]) == {
            "spectral_2017",
            "pacbayes_2017",
            "lin_2019",
            "pdim_2019",
            "permutation_aware",
        }


class TestCoveringSweep:
    def test_csv_columns_and_sandwich(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "covering-sweep",
                "--dim",
                "1",
                "--points-per-axis",
                "9",
                "--epsilons",
                "0.1875,0.375,0.75",
                "--exact",
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "epsilon,greedy_cover,exact_cover,greedy_pack,exact_pack,theory_bound_log"
        for line in lines[2:]:
            eps, gc, ec, gp, ep, theory = line.split(",")
            assert int(gc) >= int(ec)
            assert int(gp) <= int(ep)


class TestBasinCommand:
    def test_writes_summary_and_runs(self, tmp_path, capsys):
        prefix = tmp_path / "exp"
        code, stdout, _ = run_cli(
            [
                "basin",
                "--arch",
                "2-3-1",
                "--activations",
                "tanh",
                "--n-runs",
                "4",
                "--iters",
                "200",
                "--step-size",
                "0.5",
                "--grad-threshold",
                "1e-3",
                "--output-prefix",
                str(prefix),
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads((tmp_path / "exp.summary.json").read_text())
        assert summary["summary"]["n_runs"] == 4
        assert summary["config"]["subcommand"] == "basin"
        runs_csv = (tmp_path / "exp.runs.csv").read_text().strip().split("\n")
        assert len(runs_csv) == 2 + 4  # config comment + header + rows
        assert "basin:" in stdout


class TestVerify:
    def test_permutation_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["verify", "permutation", "--output", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True

    def test_unknown_suite_lists_options(self, capsys):
        code, _, err = run_cli(["verify", "nonexistent"], capsys)
        assert code == 1
        for name in ("permutation", "sandwich", "amplification"):
            assert name in err


class TestErrorsAndDeterminism:
    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(["canonicalize", "--network", "/nonexistent.json"], capsys)
        assert code == 1

    def test_bad_arguments_exit_one(self, capsys):
        code, _, _ = run_cli(["bounds"], capsys)
        assert code == 1

    def test_internal_error_exit_two(self, small_net, capsys, monkeypatch):
        import fnequiv.cli as cli_mod

        def boom(params):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(cli_mod, "canonicalize", boom)
        code, _, err = run_cli(["canonicalize", "--network", str(small_net)], capsys)
        assert code == 2
        assert "internal error" in err

    def test_basin_jobs_flag_output_independent_of_workers(self, tmp_path, capsys):
        prefix = tmp_path / "exp"
        results = []
        for jobs in ("1", "2"):
            code, _, _ = run_cli(
                [
                    "basin",
                    "--arch",
                    "2-3-1",
                    "--n-runs",
                    "4",
                    "--iters",
                    "150",
                    "--step-size",
                    "0.5",
                    "--grad-threshold",
                    "1e-3",
                    "--jobs",
                    jobs,
                    "--output-prefix",
                    str(prefix),
                ],
                capsys,
            )
            assert code == 0
            results.append(
                (
                    (tmp_path / "exp.summary.json").read_text(),
                    (tmp_path / "exp.runs.csv").read_text(),
                )
            )
        assert results[0] == results[1]

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys, bound_config):
        monkeypatch.setenv("FNEQUIV_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            ["entropy-compare", "--config", str(bound_config), "--output", "ent.json"], capsys
        )
        assert code == 0
        assert (tmp_path / "ent.json").exists()

    def test_byte_identical_reruns(self, tmp_path, bound_config, small_net, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "permutation", "perms": [[1, 0]]}))
        commands = [
            ["transform", "--network", str(small_net), "--transform", str(spec), "--output", "{out}"],
            ["canonicalize", "--network", str(small_net), "--output", "{out}"],
            ["bounds", "--config", str(bound_config), "--output", "{out}"],
            ["entropy-compare", "--config", str(bound_config), "--output", "{out}"],
            [
                "covering-sweep",
                "--dim",
                "1",
                "--points-per-axis",
                "9",
                "--epsilons",
                "0.375,0.75",
                "--exact",
                "--output",
                "{out}",
            ],
            ["verify", "permutation", "--output", "{out}"],
        ]
        for i, template in enumerate(commands):
            out = tmp_path / f"cmd{i}.out"
            args = [a.replace("{out}", str(out)) for a in template]
            outputs = []
            stdouts = []
            for _ in range(2):
                code, stdout, _ = run_cli(args, capsys)
                assert code == 0
                outputs.append(out.read_bytes())
                stdouts.append(stdout)
            assert outputs[0] == outputs[1], template[0]
            assert stdouts[0] == stdouts[1], template[0]
