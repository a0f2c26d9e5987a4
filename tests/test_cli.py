import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fnequiv
from fnequiv.cli import build_parser, main
from fnequiv.nncore import (
    Architecture,
    Network,
    NetworkParams,
    RELU,
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
            {"kind": "permutation", "perms": [[1.5, 0]]},
            {"kind": "permutation", "perms": [[True, 0]]},
            {"kind": "permutation", "perms": [[2**70, 0]]},
            {"kind": "sign_flip", "layer": 1, "signs": ["1", True]},
            {"kind": "scaling", "layer": 1, "alpha": ["2", True]},
        ],
        ids=[
            "permutation_without_perms",
            "scaling_without_layer",
            "scaling_without_alpha",
            "sign_flip_without_layer",
            "sign_flip_without_signs",
            "list_layer",
            "string_layer",
            "float_perm_index",
            "bool_perm_index",
            "int64_overflow_perm_index",
            "string_and_bool_signs",
            "string_and_bool_alpha",
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

    def test_self_check_sample_count_over_budget_exits_one(self, tmp_path, small_net, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "permutation", "perms": [[1, 0]]}))
        out = tmp_path / "out.json"
        argv = ["transform", "--network", str(small_net), "--transform", str(spec)]
        argv += ["--output", str(out), "--samples", "1000000000000"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error: --samples = 1000000000000 ") and "limit" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--bx", "nan"]], ids=["samples", "bx"])
    def test_invalid_self_check_writes_no_output(self, tmp_path, small_net, capsys, flags):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "permutation", "perms": [[1, 0]]}))
        out = tmp_path / "out.json"
        argv = ["transform", "--network", str(small_net), "--transform", str(spec)]
        code, stdout, err = run_cli([*argv, "--output", str(out), *flags], capsys)
        assert code == 1, err
        assert not out.exists() and stdout == ""

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

    @pytest.mark.parametrize(
        "flag", ["--tolerance=nan", "--tolerance=-1", "--bx=nan", "--bx=inf", "--bx=0"]
    )
    def test_invalid_tolerance_or_radius_exits_one(self, tmp_path, small_net, capsys, flag):
        # The pair is structurally equal, so the radius would go unused.
        argv = ["check-equiv", "--first", str(small_net), "--second", str(small_net), flag]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error:") and stdout == ""

    @pytest.mark.parametrize("second", ["same", "other"])
    def test_sample_count_over_budget_exits_one(self, tmp_path, small_net, capsys, second):
        # 10^12 points would be a 16 TB array; the count is refused before
        # any is drawn, on either route.
        other = tmp_path / "other.json"
        params = NetworkParams((([[1.0], [2.0]], [3.0, 4.5]), ([[5.0, 6.0]], [7.0])))
        save_network(Network(Architecture(1, (2,), (TANH,)), params), other)
        pair = [small_net, small_net if second == "same" else other]
        argv = ["check-equiv", "--first", str(pair[0]), "--second", str(pair[1])]
        out = tmp_path / "v.json"
        argv += ["--samples", "1000000000000", "--output", str(out)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error: --samples = 1000000000000 ") and "limit" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_invalid_sample_count_exits_one(self, small_net, capsys, samples):
        # Checked before the structural route, which draws no samples.
        argv = ["check-equiv", "--first", str(small_net), "--second", str(small_net)]
        code, stdout, err = run_cli([*argv, f"--samples={samples}"], capsys)
        assert code == 1, err
        assert err.startswith("error:") and "n_samples" in err and stdout == ""


class TestNetworkFile:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden", [2.9]),
            ("hidden", [True, 1]),
            ("hidden", ["2"]),
            ("d0", 1.0),
            ("out", True),
            ("depth", 1),
        ],
    )
    def test_non_integer_width_or_unknown_arch_key_exits_one(
        self, tmp_path, small_net, capsys, field, value
    ):
        doc = json.loads(small_net.read_text())
        doc["arch"][field] = value
        small_net.write_text(json.dumps(doc))
        code, stdout, err = run_cli(["canonicalize", "--network", str(small_net)], capsys)
        assert code == 1, err
        assert "malformed architecture" in err and stdout == ""

    def test_nan_weight_exits_one(self, small_net, capsys):
        doc = json.loads(small_net.read_text())
        doc["layers"][0]["W"][0][0] = math.nan
        small_net.write_text(json.dumps(doc))
        argv = ["check-equiv", "--first", str(small_net), "--second", str(small_net)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert "malformed network document" in err and stdout == ""


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

    def test_width_past_double_range_prints_empty_stirling_bounds(
        self, tmp_path, bound_config, capsys
    ):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"hidden": [[171]]}))
        code, stdout, err = run_cli(
            ["bounds", "--config", str(bound_config), "--sweep", str(sweep)], capsys
        )
        assert code == 0, err
        header, row = (line.split(",") for line in stdout.strip().split("\n")[1:])
        assert row[header.index("stirling_brackets")] == f"171:<{math.factorial(171)}<"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_factorial_past_string_digit_limit_prints_empty(
        self, tmp_path, bound_config, capsys, fmt
    ):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"hidden": [[1800]]}))
        argv = ["bounds", "--config", str(bound_config), "--sweep", str(sweep), "--format", fmt]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 0, err
        if fmt == "csv":
            header, row = (line.split(",") for line in stdout.strip().split("\n")[1:])
            assert row[header.index("stirling_brackets")] == "1800:<<"
            assert row[header.index("arch")] == "1-1800-1"
        else:
            (row,) = json.loads(stdout)["rows"]
            assert row["stirling"] == [{"d": 1800, "lower": None, "factorial": None, "upper": None}]
            assert row["U"] == 1800

    @pytest.mark.parametrize("axis", ["hidden", "B", "B_x", "epsilon"])
    def test_scalar_sweep_axis_is_invalid_configuration(
        self, tmp_path, bound_config, capsys, axis
    ):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({axis: 2.0}))
        argv = ["bounds", "--config", str(bound_config), "--sweep", str(sweep)]
        code, _, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error:") and repr(axis) in err

    @pytest.mark.parametrize("axis", ["hidden", "B", "B_x", "epsilon"])
    def test_empty_sweep_axis_is_invalid_configuration(
        self, tmp_path, bound_config, capsys, axis
    ):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({axis: []}))
        argv = ["bounds", "--config", str(bound_config), "--sweep", str(sweep)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error:") and repr(axis) in err and "empty" in err
        assert stdout == ""

    @pytest.mark.parametrize("key", ["B", "B_x", "epsilon"])
    @pytest.mark.parametrize("where", ["config", "sweep"])
    def test_boolean_number_is_invalid_configuration(
        self, tmp_path, bound_config, capsys, key, where
    ):
        argv = ["bounds", "--config", str(bound_config)]
        if where == "config":
            bound_config.write_text(json.dumps({**json.loads(bound_config.read_text()), key: True}))
        else:
            sweep = tmp_path / "sweep.json"
            sweep.write_text(json.dumps({key: [True]}))
            argv += ["--sweep", str(sweep)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error:") and "malformed bound config" in err and "True" in err
        assert stdout == ""

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    @pytest.mark.parametrize("key", ["B", "B_x", "epsilon", "rho"])
    @pytest.mark.parametrize("where", ["config", "sweep"])
    def test_non_finite_number_is_invalid_configuration(
        self, tmp_path, bound_config, capsys, key, where, value
    ):
        # Python's JSON reader takes NaN and Infinity; 10**400 overflows a double.
        value = [value] if key == "rho" else value
        doc = json.loads(bound_config.read_text())
        sweep = tmp_path / "sweep.json"
        if where == "sweep" and key != "rho":
            sweep.write_text(json.dumps({key: [value]}))
        else:
            doc[key] = value
            sweep.write_text(json.dumps({"epsilon": [0.5, 1.0]}))
        bound_config.write_text(json.dumps(doc))
        argv = ["bounds", "--config", str(bound_config), "--format", "json"]
        if where == "sweep":
            argv += ["--sweep", str(sweep)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error:") and "expected a finite number" in err
        assert stdout == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--B", "--bx", "--epsilon"])
    def test_non_finite_override_flag_is_invalid_configuration(
        self, bound_config, capsys, flag, value
    ):
        argv = ["bounds", "--config", str(bound_config), f"{flag}={value}"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error:") and "expected a finite number" in err
        assert stdout == ""

    # The arch has two hidden layers, so "12" would read as two rates.
    @pytest.mark.parametrize("rho", [[True, 1.0], ["2", 1.0], "12", 2.0, {"0": 2.0}])
    def test_rho_must_be_a_list_of_numbers(self, tmp_path, capsys, rho):
        cfg = tmp_path / "cfg.json"
        arch = {"d0": 1, "hidden": [2, 2], "out": 1, "activations": ["relu"] * 2}
        cfg.write_text(
            json.dumps({"arch": arch, "B": 1.0, "B_x": 1.0, "epsilon": 1.0, "rho": rho})
        )
        code, stdout, err = run_cli(["bounds", "--config", str(cfg)], capsys)
        assert code == 1, err
        assert err.startswith("error:") and "malformed bound config" in err
        assert stdout == ""

    def test_integer_and_float_rho_print_the_same_rows(self, tmp_path, bound_config, capsys):
        outputs = []
        for rho in ([2], [2.0]):
            doc = {**json.loads(bound_config.read_text()), "rho": rho}
            bound_config.write_text(json.dumps(doc))
            code, stdout, err = run_cli(
                ["bounds", "--config", str(bound_config), "--format", "json"], capsys
            )
            assert code == 0, err
            outputs.append(json.loads(stdout)["rows"])
        assert outputs[0] == outputs[1]
        assert outputs[0][0]["rho"] == [2.0]

    @pytest.mark.parametrize("hidden", [[2.9], [True], ["2"]])
    def test_non_integer_hidden_sweep_axis_exits_one(self, tmp_path, bound_config, capsys, hidden):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"hidden": [[2], hidden]}))
        argv = ["bounds", "--config", str(bound_config), "--sweep", str(sweep)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert "malformed architecture" in err and stdout == ""

    def test_unknown_arch_key_in_config_exits_one(self, tmp_path, bound_config, capsys):
        doc = json.loads(bound_config.read_text())
        doc["arch"]["depth"] = 1
        bound_config.write_text(json.dumps(doc))
        code, stdout, err = run_cli(["bounds", "--config", str(bound_config)], capsys)
        assert code == 1, err
        assert "unknown fields in arch" in err and stdout == ""

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


def strict_json(text):
    """``json.loads`` that refuses the NaN and Infinity literals."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# A 2-4-4-1 relu config whose overrides below push a formula step out of the
# double range; each once ended in exit 2 or printed Infinity.
DEEP_RELU = {"d0": 2, "hidden": [4, 4], "out": 1, "activations": ["relu", "relu"]}


class TestBeyondDoubleRange:
    @pytest.mark.parametrize(
        "flags,beyond",
        [
            (["--B", "1e80"], {"spectral_2017", "pacbayes_2017"}),
            (["--B", "1", "--epsilon", "1e-200"], {"spectral_2017", "pacbayes_2017"}),
            (["--B", "1e200"], {"spectral_2017", "pacbayes_2017", "lin_2019"}),
        ],
        ids=["B_1e80", "epsilon_1e-200", "B_1e200"],
    )
    def test_entropy_beyond_a_double_is_null(self, tmp_path, capsys, flags, beyond):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arch": DEEP_RELU, "B": 1.5, "B_x": 1.0, "epsilon": 0.5}))
        code, stdout, err = run_cli(["entropy-compare", "--config", str(cfg), *flags], capsys)
        assert code == 0, err
        entropies = strict_json(stdout)["entropies"]
        assert {name for name, v in entropies.items() if v is None} == beyond
        assert all(math.isfinite(v) for v in entropies.values() if v is not None)
        code, stdout, err = run_cli(
            ["bounds", "--config", str(cfg), *flags, "--format", "csv"], capsys
        )
        assert code == 0, err
        header, row = stdout.splitlines()[1:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert {name for name in entropies if cells[name] == ""} == beyond

    @pytest.mark.parametrize("B", ["1e200", "1.7976931348623157e308"])
    def test_bounds_at_the_top_of_the_double_range(self, tmp_path, capsys, B):
        cfg = tmp_path / "cfg.json"
        arch = {"d0": 2, "hidden": [3], "out": 1, "activations": ["relu"]}
        cfg.write_text(json.dumps({"arch": arch, "B": 1.5, "B_x": 1e308, "epsilon": 5e-324}))
        code, stdout, err = run_cli(
            ["bounds", "--config", str(cfg), "--B", B, "--format", "json"], capsys
        )
        assert code == 0, err
        (row,) = strict_json(stdout)["rows"]
        for key in ("shallow_log_bound", "deep_log_bound", "log_total_volume"):
            assert math.isfinite(row[key])

    def test_covering_sweep_theory_log_stays_finite(self, capsys):
        argv = ["covering-sweep", "--dim", "2", "--points-per-axis", "2", "--epsilons", "1e-200"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 0, err
        theory = float(stdout.splitlines()[-1].split(",")[-1])
        assert theory == pytest.approx(math.log(4.0) + 2 * math.log(2e200), rel=1e-15)

    @pytest.mark.parametrize("half_width", [1e300, 1e-300])
    def test_covering_sweep_volume_beyond_a_double(self, capsys, half_width):
        # (2h)^2 overflows at 1e300 and underflows to 0 at 1e-300.
        argv = ["covering-sweep", "--dim", "2", "--points-per-axis", "2", "--epsilons", "0.5"]
        code, stdout, err = run_cli([*argv, f"--half-width={half_width}"], capsys)
        assert code == 0 and err == ""
        theory = float(stdout.splitlines()[-1].split(",")[-1])
        assert theory == pytest.approx(2 * math.log(2 * half_width) + 2 * math.log(4.0), rel=1e-15)

    def test_covering_sweep_refuses_a_grid_wider_than_a_double(self, capsys):
        argv = ["covering-sweep", "--dim", "2", "--points-per-axis", "2", "--epsilons", "0.5"]
        code, stdout, err = run_cli([*argv, "--half-width=1e308"], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: half_width must be in") and err.count("\n") == 1

    def test_check_equiv_gap_beyond_a_double_is_null(self, tmp_path, capsys):
        arch = Architecture(1, (1,), (RELU,))
        paths = []
        for name, bias in (("plus", 1.5e308), ("minus", -1.5e308)):
            paths.append(tmp_path / f"{name}.json")
            params = NetworkParams((([[1.0]], [0.0]), ([[1.0]], [bias])))
            save_network(Network(arch, params), paths[-1])
        argv = ["check-equiv", "--first", str(paths[0]), "--second", str(paths[1])]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        verdict = strict_json(stdout)["verdict"]
        assert verdict["kind"] == "distinguished" and verdict["sup_distance_estimate"] is None
        assert len(verdict["distinguishing_input"]) == 1


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

    @pytest.mark.parametrize("half_width", ["-1", "0", "nan"])
    def test_invalid_half_width_exits_one(self, capsys, half_width):
        argv = ["covering-sweep", "--dim", "2", "--points-per-axis", "3", "--epsilons", "0.5"]
        code, stdout, err = run_cli([*argv, f"--half-width={half_width}"], capsys)
        assert code == 1, err
        assert err.startswith("error:") and "half_width" in err and stdout == ""

    def test_oversized_grid_exits_one(self, capsys):
        argv = ["covering-sweep", "--dim", "8", "--points-per-axis", "100", "--epsilons", "0.5"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error: grid has") and stdout == ""


class TestBasinCommand:
    def test_run_count_over_budget_exits_one_promptly(self, tmp_path):
        # Spawning 10^12 child seeds alone would run for hours and grow
        # without bound, so the child gets a time limit and an
        # address-space cap; the count is refused before any seed is made.
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        paths = [str(Path(fnequiv.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        argv = [sys.executable, "-m", "fnequiv.cli", "basin", "--arch", "2-4-1"]
        argv += ["--n-runs", "1000000000000", "--output-prefix", str(tmp_path / "exp")]
        run = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap
        )
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: n_runs = 1000000000000 ") and "limit" in run.stderr
        assert run.stdout == "" and not list(tmp_path.iterdir())

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
        assert "n_points" not in summary["config"]  # teacher-only keys
        runs_csv = (tmp_path / "exp.runs.csv").read_text().strip().split("\n")
        assert len(runs_csv) == 2 + 4  # config comment + header + rows
        assert "basin:" in stdout

    def test_teacher_config_echoes_data_settings(self, tmp_path, capsys):
        arch = Architecture(2, (3,), (TANH,))
        teacher = tmp_path / "teacher.json"
        save_network(Network(arch, random_params(arch, np.random.default_rng(5))), teacher)
        configs = []
        for n_points in ("8", "16"):
            code, _, _ = run_cli(
                [
                    "basin",
                    "--arch",
                    "2-3-1",
                    "--dataset",
                    "teacher",
                    "--teacher-network",
                    str(teacher),
                    "--n-points",
                    n_points,
                    "--n-runs",
                    "2",
                    "--iters",
                    "5",
                    "--output-prefix",
                    str(tmp_path / "exp"),
                ],
                capsys,
            )
            assert code == 0
            summary = json.loads((tmp_path / "exp.summary.json").read_text())
            configs.append(summary["config"])
        assert configs[0] != configs[1]
        assert configs[1]["n_points"] == 16
        assert configs[1]["teacher_network"] == str(teacher)
        assert configs[1]["bx"] == 1.0

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("iters", ["200", "0"])
    def test_invalid_cluster_tolerance_exits_one_writing_nothing(
        self, tmp_path, capsys, tolerance, iters
    ):
        # At 0 iterations no run converges, so nothing after training would
        # reject the tolerance.
        code, stdout, err = run_cli(
            [
                "basin", "--arch", "2-2-1", "--n-runs", "2", "--iters", iters,
                "--step-size", "0.5", "--grad-threshold", "1e-3",
                f"--cluster-tolerance={tolerance}", "--output-prefix", str(tmp_path / "exp"),
            ],
            capsys,
        )  # fmt: skip
        assert code == 1, err
        assert err.startswith("error:") and "cluster tolerance" in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--grad-threshold=nan"],
            ["--grad-threshold=-1"],
            ["--dataset", "teacher", "--bx=-1"],
            ["--dataset", "teacher", "--bx=0"],
            ["--dataset", "teacher", "--bx=nan"],
        ],
    )
    def test_invalid_training_or_teacher_input_exits_one(self, tmp_path, capsys, flags):
        teacher = tmp_path / "teacher.json"
        arch = Architecture(2, (2,), (TANH,))
        save_network(Network(arch, random_params(arch, np.random.default_rng(5))), teacher)
        code, stdout, err = run_cli(
            [
                "basin", "--arch", "2-2-1", "--n-runs", "3", "--iters", "20",
                "--teacher-network", str(teacher), "--output-prefix", str(tmp_path / "exp"),
                *flags,
            ],
            capsys,
        )  # fmt: skip
        assert code == 1, err
        assert err.startswith("error:") and stdout == ""
        assert list(tmp_path.iterdir()) == [teacher]


class TestVerify:
    def test_permutation_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["verify", "permutation", "--output", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True

    @pytest.mark.parametrize("suite", ["sandwich", "amplification"])
    def test_suite_passes_on_stdout(self, suite, capsys):
        code, stdout, _ = run_cli(["verify", suite], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["suite"] == suite and report["passed"] is True

    def test_unknown_suite_lists_options(self, capsys):
        code, _, err = run_cli(["verify", "nonexistent"], capsys)
        assert code == 1
        for name in ("permutation", "sandwich", "amplification"):
            assert name in err


def subcommand_dests(name: str) -> set[str]:
    """The argparse dests of one subcommand, with the subcommand name itself."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[name]._actions if a.dest != "help"} | {"subcommand"}


_TEACHER_ONLY = {"teacher_network", "n_points", "bx"}
_OVERRIDES = {"epsilon", "B", "bx"}


@pytest.mark.parametrize(
    "name, argv, drop, extra",
    [
        ("transform", ["--network", "net.json", "--transform", "spec.json"], set(), set()),
        ("canonicalize", ["--network", "net.json"], set(), set()),
        ("check-equiv", ["--first", "net.json", "--second", "net.json"], set(), set()),
        (
            "bounds",
            ["--config", "cfg.json", "--sweep", "sweep.json", "--format", "json"],
            _OVERRIDES,
            {"base", "sweep"},
        ),
        ("entropy-compare", ["--config", "cfg.json"], _OVERRIDES, {"resolved"}),
        ("covering-sweep", ["--dim", "1", "--points-per-axis", "3", "--epsilons", "1"], set(), set()),
        (
            "basin",
            ["--arch", "1-2-1", "--dataset", "teacher", "--teacher-network", "net.json",
             "--n-runs", "1", "--iters", "1"],
            {"jobs"},
            set(),
        ),
        ("basin", ["--arch", "2-2-1", "--n-runs", "1", "--iters", "1"], {"jobs", *_TEACHER_ONLY}, set()),
    ],
    ids=[
        "transform", "canonicalize", "check-equiv", "bounds", "entropy-compare",
        "covering-sweep", "basin-teacher", "basin-xor",
    ],
)
def test_echoed_config_is_every_parsed_argument(
    tmp_path, monkeypatch, small_net, bound_config, capsys, name, argv, drop, extra
):
    """The echo holds every dest of the subcommand's parser, minus the
    documented drops, plus the resolved extras; a new flag cannot go missing."""
    (tmp_path / "spec.json").write_text(json.dumps({"kind": "permutation", "perms": [[1, 0]]}))
    (tmp_path / "sweep.json").write_text(json.dumps({"epsilon": [1.0]}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FNEQUIV_OUTPUT_DIR", raising=False)
    output = tmp_path / ("basin.summary.json" if name == "basin" else "out")
    code, _, err = run_cli([name, *argv] + ([] if name == "basin" else ["--output", "out"]), capsys)
    assert code == 0, err
    if name == "covering-sweep":
        config = json.loads(output.read_text().split("\n")[0].removeprefix("# config: "))
    else:
        config = json.loads(output.read_text())["config"]
    assert set(config) == (subcommand_dests(name) - drop) | extra


class TestErrorsAndDeterminism:
    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(["canonicalize", "--network", "/nonexistent.json"], capsys)
        assert code == 1

    def test_bad_arguments_exit_one(self, capsys):
        code, _, _ = run_cli(["bounds"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["covering-sweep", "--dim", "1", "--points-per-axis", "3", "--epsilons", "0.1,abc"],
            ["covering-sweep", "--dim", "1", "--points-per-axis", "3", "--epsilons", "inf"],
            ["covering-sweep", "--dim", "1", "--points-per-axis", "3", "--epsilons", "nan"],
            ["basin", "--arch", "2-2-1", "--activations", "leaky_relu:abc", "--n-runs", "1"],
            ["basin", "--arch", "2-2-1", "--step-size", "nan", "--n-runs", "1"],
            ["basin", "--arch", "2-2-1", "--jobs", "0", "--n-runs", "1"],
        ],
        ids=[
            "epsilons_abc",
            "epsilons_inf",
            "epsilons_nan",
            "leaky_relu_abc",
            "step_size_nan",
            "jobs_zero",
        ],
    )
    def test_malformed_number_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)  # basin writes to the working directory
        code, _, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith("error:")

    @pytest.mark.parametrize("subcommand", ["transform", "check-equiv", "basin", "verify"])
    def test_negative_seed_exits_one(self, tmp_path, small_net, capsys, subcommand):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "permutation", "perms": [[1, 0]]}))
        other = tmp_path / "other.json"  # not a permuted copy: the sampled route
        arch = Architecture(1, (2,), (TANH,))
        save_network(Network(arch, random_params(arch, np.random.default_rng(3))), other)
        argv = {
            "transform": ["--network", str(small_net), "--transform", str(spec)],
            "check-equiv": ["--first", str(small_net), "--second", str(other)],
            "basin": ["--arch", "2-2-1", "--n-runs", "2", "--output-prefix", str(tmp_path / "e")],
            "verify": ["permutation"],
        }[subcommand]
        written = set(tmp_path.iterdir())
        code, stdout, err = run_cli([subcommand, *argv, "--seed", "-1"], capsys)
        assert code == 1, err
        assert err.startswith("error:") and "seed" in err and stdout == ""
        assert set(tmp_path.iterdir()) == written

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


def scipy_modules_after(code: str) -> str:
    """The scipy modules loaded after ``code`` runs in a fresh interpreter."""
    code += "; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    paths = [str(Path(fnequiv.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().split("\n")[-1]


def test_import_loads_no_scipy():
    # scipy loads on first use only (about 1 s of import time).
    assert scipy_modules_after("import sys, fnequiv, fnequiv.cli") == "[]"


def test_sampled_points_load_no_scipy(tmp_path):
    # scipy.special alone adds about 25 MB, and scipy.stats about 70 MB and
    # a second of import time; the sampled points are built without either.
    arch = Architecture(2, (3,), (TANH,))
    nets = []
    for seed in (1, 2):
        nets.append(tmp_path / f"net{seed}.json")
        save_network(Network(arch, random_params(arch, np.random.default_rng(seed))), nets[-1])
    argv = ["check-equiv", "--first", str(nets[0]), "--second", str(nets[1]), "--samples", "64"]
    argv += ["--output", str(tmp_path / "v.json")]
    code = f"import sys; from fnequiv.cli import main; assert main({argv!r}) == 0"
    assert scipy_modules_after(code) == "[]"
    assert json.loads((tmp_path / "v.json").read_text())["verdict"]["kind"] == "distinguished"
    code = "import sys; from fnequiv import Architecture, RELU, function_class_sample; "
    code += "function_class_sample(Architecture(1, (1,), (RELU,)), 1.0, 2, 1.0, 8)"
    assert scipy_modules_after(code) == "[]"


def test_basin_run_loads_no_scipy(tmp_path):
    # Importing scipy.spatial alone more than doubles a basin run's peak memory.
    argv = ["basin", "--arch", "2-3-1", "--n-runs", "4", "--iters", "200", "--step-size", "0.5"]
    argv += ["--grad-threshold", "1e-3", "--output-prefix", str(tmp_path / "exp")]
    code = f"import sys; from fnequiv.cli import main; assert main({argv!r}) == 0"
    assert scipy_modules_after(code) == "[]"
    summary = json.loads((tmp_path / "exp.summary.json").read_text())["summary"]
    assert summary["n_converged"] > 0  # so the clustering ran too


def test_greedy_cover_and_pack_load_no_scipy():
    # Importing scipy.spatial alone adds more than 30 MB to a run's peak
    # memory; the greedy oracles compute their distances in numpy.
    code = "import sys; from fnequiv import Architecture, RELU, function_class_sample; "
    code += "from fnequiv import greedy_covering_estimate, greedy_packing_estimate; "
    code += "s = function_class_sample(Architecture(1, (2,), (RELU,)), 1.0, 3, 1.0, 16); "
    code += "assert greedy_covering_estimate(s, 0.1) >= greedy_packing_estimate(s, 0.1) > 1"
    assert scipy_modules_after(code) == "[]"
