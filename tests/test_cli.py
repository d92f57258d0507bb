"""Config validation, experiment dispatch, and reproducibility contracts."""

import argparse
import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from urglab import cli, palm
from urglab.cli import (
    KINDS,
    MAX_WINDOW_ENTRIES,
    ExperimentConfig,
    ValidationError,
    build_window,
    config_from_args,
    build_parser,
    main,
    parse_config_file,
    run,
    validate,
)
from urglab.graphs import window_from_dict
from urglab.palm import GuardViolation


ROOT = Path(__file__).resolve().parents[1]


def read(path):
    return path.read_bytes()


def test_validate_eps_against_alpha():
    config = ExperimentConfig("kazhdan", {"model": "cycle", "L": 8, "k": 2, "eps": 0.5})
    messages = validate(config)
    assert any("eps must satisfy eps < min(alpha)" in m for m in messages)


def test_validate_negative_intensity():
    config = ExperimentConfig("palm", {"t": -2.0, "L": 10.0, "d": 2, "m": 100})
    assert any("intensity t must be positive" in m for m in validate(config))


def test_validate_small_torus():
    config = ExperimentConfig("percolation", {"model": "torus", "d": 2, "L": 2, "p": 0.2})
    assert any("L must satisfy L >= 3" in m for m in validate(config))


def test_validate_unknown_kind():
    assert validate(ExperimentConfig("nope")) == ["unknown experiment kind: nope"]
    assert validate(ExperimentConfig(["gauss-check"], {})) == ["unknown experiment kind: ['gauss-check']"]


def test_run_rejects_invalid():
    with pytest.raises(ValidationError):
        run(ExperimentConfig("gauss-check", {"rho": [2.0], "n": 10}))


@pytest.mark.parametrize("name, value", [
    ("trials", "3"), ("trials", None), ("trials", 2.5), ("trials", True),
    ("seed", "0"), ("seed", None), ("seed", 1.0), ("seed", True),
    ("out_dir", 5), ("out_dir", None),
    ("params", [1, 2]), ("params", None), ("params", "x"),
])
def test_run_rejects_untyped_common_fields(name, value, tmp_path):
    config = ExperimentConfig("gauss-check", {"n": 10}, trials=1, out_dir=str(tmp_path / "out"))
    setattr(config, name, value)
    assert validate(config) == [f"{name}: invalid value {value!r}"]
    with pytest.raises(ValidationError, match=f"^{name}: invalid value"):
        run(config)
    assert not (tmp_path / "out").exists()


def test_gauss_check_single_row(tmp_path):
    config = ExperimentConfig(
        "gauss-check", {"rho": [0.0], "n": 10**5}, trials=1, seed=1, out_dir=str(tmp_path)
    )
    manifest = run(config)
    lines = (tmp_path / "gauss_check.csv").read_text().strip().splitlines()
    assert lines[0] == "rho,closed_form,mc,stderr,ok"
    assert len(lines) == 2
    assert lines[1].endswith("True")
    assert "gauss_check.csv" in manifest.outputs


def test_percolation_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        config = ExperimentConfig(
            "percolation",
            {"model": "torus", "d": 2, "L": 16, "p": 0.2},
            trials=20,
            seed=5,
            out_dir=str(out),
        )
        run(config)
    assert read(out_a / "percolation.csv") == read(out_b / "percolation.csv")


def test_kazhdan_brute_force_cycle8(tmp_path):
    config = ExperimentConfig(
        "kazhdan",
        {"model": "cycle", "L": 8, "k": 2, "eps": 0.0, "brute_force": True},
        seed=1,
        out_dir=str(tmp_path),
    )
    run(config)
    payload = json.loads((tmp_path / "kazhdan_result.json").read_text())
    assert payload["certificate"] is True
    assert payload["value"] == 0.5


def test_manifest_checksums_match(tmp_path):
    import hashlib

    config = ExperimentConfig(
        "gauss-check", {"rho": [0.5], "n": 10**4}, seed=3, out_dir=str(tmp_path)
    )
    manifest = run(config)
    data = json.loads((tmp_path / "run.manifest.json").read_text())
    assert data["artifact_version"]
    for name, digest in manifest.outputs.items():
        assert hashlib.sha256(read(tmp_path / name)).hexdigest() == digest
        assert data["outputs"][name] == digest


def test_palm_cellvol_outputs(tmp_path):
    config = ExperimentConfig(
        "palm",
        {"t": 1.0, "L": 8.0, "d": 2, "m": 500, "check": "cellvol"},
        trials=20,
        seed=2,
        out_dir=str(tmp_path),
    )
    run(config)
    payload = json.loads((tmp_path / "palm_report.json").read_text())
    assert payload["trials"] == 20
    lines = (tmp_path / "palm_trials.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,volume"
    assert len(lines) == 21


def test_mtp_check_exact_flag(tmp_path):
    config = ExperimentConfig(
        "mtp-check",
        {"model": "torus", "d": 2, "L": 5, "transport": "bichromatic"},
        seed=4,
        out_dir=str(tmp_path),
    )
    run(config)
    payload = json.loads((tmp_path / "mtp_report.json").read_text())
    assert payload["exact"] is True


@pytest.mark.parametrize("transport", sorted(cli.BUILTIN_TRANSPORTS))
def test_mtp_check_builtins_cut_no_ball(transport, tmp_path, monkeypatch):
    from urglab import balls

    def unreachable(*args):
        raise AssertionError("cut a ball")

    monkeypatch.setattr(balls, "_cut", unreachable)
    w = build_window({"model": "torus", "d": 2, "L": 8}, 0)
    with pytest.raises(AssertionError, match="cut a ball"):  # the patch reaches every ball cut
        balls.ball(w, None, 0, 1)
    argv = ["mtp-check", "--model", "torus", "--d", "2", "--L", "8", "--transport", transport]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "mtp_report.json").read_text())["exact"] is True


def test_cost_bound_json(tmp_path):
    config = ExperimentConfig(
        "cost-bound",
        {"model": "torus", "d": 2, "L": 12, "p": 0.3},
        seed=6,
        out_dir=str(tmp_path),
    )
    run(config)
    payload = json.loads((tmp_path / "cost_bound.json").read_text())
    assert payload["empirical_bound"] <= payload["lemma_bound"]
    assert payload["cluster_count"] >= 1


# sha256 of cost_bound.json, recorded while connect_clusters still ran a
# whole-window connected_components and a four-key candidate sort
@pytest.mark.parametrize("params, seed, digest", [
    ({"model": "torus", "d": 2, "L": 32, "p": 0.3}, 6,
     "c6179d7d249ba3d30ec80a47a5b0f02b83c52394a73d2d73c732dcbd0c2b8854"),
    ({"model": "random-regular", "k_rank": 2, "n": 400, "p": 0.3}, 10,
     "a0fde45d7c4ab1a58c83da3d1a91f8ca8f80af7123bc44ab35074dfa518a3721"),
], ids=["torus", "random-regular"])
def test_cost_bound_golden_bytes(tmp_path, params, seed, digest):
    run(ExperimentConfig("cost-bound", params, seed=seed, out_dir=str(tmp_path)))
    assert hashlib.sha256(read(tmp_path / "cost_bound.json")).hexdigest() == digest


# sha256 of the data file of runs that draw through each sampler: Gaussian pairs, the constant
# colouring, iid colourings with d = 3 and Bernoulli subsets; recorded while the colourings were
# drawn through a model object and the pairs through a pair class
@pytest.mark.parametrize("kind, params, trials, seed, name, digest", [
    ("gauss-check", {"rho": [-0.9, 0.0, 0.5], "n": 10000}, 100, 3, "gauss_check.csv",
     "8999859fbb82546923be936cfe449b0fcfbfe7e3ad50614821e9c92b3f416be9"),
    ("mtp-check", {"model": "torus", "d": 2, "L": 8, "colouring": "constant", "colours": 3,
                   "transport": "source-colour", "transport_colour": 2}, 100, 4, "mtp_report.json",
     "cdc035246f8c6dd894718a7e027c19b60ed4cd4baf4493d03205f414848778e5"),
    ("mtp-check", {"model": "random-regular", "k_rank": 2, "n": 50, "colours": 3, "transport": "bichromatic"},
     100, 5, "mtp_report.json", "c369b056944c9c85b80b15509a2225050e394498b36dce0224acc8a6781e627e"),
    ("percolation", {"model": "torus", "d": 2, "L": 16, "p": [0.2, 0.5]}, 3, 6, "percolation.csv",
     "0576b06390f8c199a67bb0fb5dc8399ce5253f9011ec790debbec7d163f64ab5"),
], ids=["gauss-check", "mtp-constant", "mtp-iid-3", "percolation"])
def test_sampler_golden_bytes(tmp_path, kind, params, trials, seed, name, digest):
    run(ExperimentConfig(kind, params, trials=trials, seed=seed, out_dir=str(tmp_path)))
    assert hashlib.sha256(read(tmp_path / name)).hexdigest() == digest


def test_mtp_check_from_window_file(tmp_path):
    from urglab.graphs import build_random_regular, window_to_json

    w = build_random_regular(2, 20, seed=9)
    window_path = tmp_path / "window.json"
    window_path.write_text(window_to_json(w))
    config = ExperimentConfig(
        "mtp-check",
        {"model": "window-file", "window_file": str(window_path), "transport": "source-colour"},
        seed=2,
        out_dir=str(tmp_path),
    )
    run(config)
    payload = json.loads((tmp_path / "mtp_report.json").read_text())
    assert payload["exact"] is True
    assert payload["window"] == w.window_id


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# gauss demo\nrho = \"0,0.5\"\nn = 1000\nseed = 7\nout = out_dir_from_file\n")
    parser = build_parser()
    args = parser.parse_args(["gauss-check", "--config", str(cfg), "--seed", "9"])
    config = config_from_args(args)
    assert config.params["rho"] == [0.0, 0.5]
    assert config.params["n"] == 1000
    assert config.seed == 9  # flag beats file
    assert config.out_dir == "out_dir_from_file"


def test_parse_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["percolation", "--model", "torus", "--d", "2", "--L", "2", "--p", "0.2",
                 "--out", str(tmp_path)]) == 2
    def config_file(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def window_file(name, edges):
        data = {"model": "torus", "params": {"d": 1, "L": 4}, "seed": None, "n": 4, "edges": edges}
        return ["mtp-check", "--model", "window-file", "--window-file", config_file(name, json.dumps(data))]

    rows = [[0, 1, "+e1"], [0, 3, "-e1"], [1, 2, "+e1"], [2, 3, "+e1"]]  # a 4-cycle
    assert main([*window_file("cycle.json", rows), "--out", str(tmp_path)]) == 0
    cycle = ["--model", "cycle", "--L", "8"]
    malformed = [
        (["percolation", "--config", config_file("bad.cfg", 'L = "abc"\n')], "L: invalid value 'abc'"),
        (["percolation", "--config", config_file("fraction.cfg", "L = 8.9\n")], "L: invalid value 8.9"),
        (["percolation", "--config", config_file("int_bool.cfg", "L = true\n")], "L: invalid value True"),
        (["palm", "--config", config_file("float_bool.cfg", "t = true\n")], "t: invalid value True"),
        (window_file("fraction.json", [[1.5, 1, "+e1"], *rows[1:]]), "window_file: cannot read"),
        (window_file("id_n.json", [[4, 1, "+e1"], *rows[1:]]), "window_file: cannot read"),
        (window_file("negative.json", [[-1, 1, "+e1"], *rows[1:]]), "window_file: cannot read"),
        (window_file("bool_id.json", [*rows[:2], [True, 2, "+e1"], rows[3]]), "window_file: cannot read"),
        (window_file("label.json", [[0, 1, "+e9"], *rows[1:]]), "window_file: cannot read"),
        (window_file("degree.json", [*rows, [0, 2, "+e1"]]), "window_file: cannot read"),  # 3 > 2d at 0
        (["mtp-check", "--transport", "constant", "--transport-colour", "2"],
         "transport constant takes no transport_colour"),
        (["percolation", "--model", "cycle", "--L", "2"], "cycle: length L"),
        (["mtp-check", *cycle, "--config", config_file("transport.cfg", 'transport = ["a"]\n')],
         "transport: invalid value ['a']"),
        (["palm", "--check", "inversion", "--config", config_file("functional.cfg", "functional = [1]\n")],
         "functional: invalid value [1]"),
        (["palm", "--check", "cellvol", "--functional", "one"], "check cellvol takes no functional"),
        (["palm", "--check", "locfin", "--functional", "one"], "check locfin takes no functional"),
        (["mtp-check", "--config", config_file("window.cfg", 'model = "window-file"\nwindow_file = 5\n')],
         "window_file: invalid value 5"),
        (["mtp-check", "--model", "window-file", "--window-file", str(tmp_path / "missing.json")],
         "window_file: cannot read"),
        (["mtp-check", "--model", "window-file", "--window-file", config_file("bad.json", "{}\n")],
         "window_file: cannot read"),
        (["kazhdan", *cycle, "--config", config_file("bool.cfg", 'brute_force = "no"\n')],
         "brute_force: invalid value 'no'"),
        (["kazhdan", *cycle, "--config", config_file("typo.cfg", "budgt = 5\n")], "unknown key budgt"),
        (["gauss-check", "--config", str(tmp_path / "missing.cfg")], "config: cannot read"),
        (["palm", "--L", "inf"], "side L must be positive and finite"),
        (["palm", "--t", "inf"], "intensity t must be positive and finite"),
        (["gauss-check", "--rho="], "rho: invalid value ''"),
        (["percolation", "--L", "8", "--p="], "p: invalid value ''"),
        (["percolation", "--L", "8", "--p", "0.1,1.5"], "occupation probability p must lie in [0, 1]"),
        (["cost-bound", "--L", "8", "--p", "0.1,0.2"], "p: invalid value '0.1,0.2'"),
        (["kazhdan", *cycle, "--k", "2", "--alpha", "0.5,nan"], "alpha entries must be finite"),
        (["kazhdan", *cycle, "--k", "2", "--alpha", "nan,0.5"], "alpha entries must be finite"),
        (["mtp-check", *cycle, "--transport-value", "-1"], "transport_value must be finite and nonnegative"),
        (["mtp-check", *cycle, "--transport-value", "nan"], "transport_value must be finite and nonnegative"),
        # 1e308 on each of the 512 entries overflows the sums to inf
        (["mtp-check", "--model", "torus", "--L", "8", "--transport", "constant", "--transport-value", "1e308"],
         "transport_value must be finite and nonnegative, at most 1.79769e+300"),
        (["mtp-check", *cycle, "--transport", "source-colour", "--transport-colour", "0"],
         "transport_colour must lie in 1..2"),
        (["mtp-check", *cycle, "--transport", "source-colour", "--transport-colour", "7"],
         "transport_colour must lie in 1..2"),
        *[([kind, "--model", "random-regular", "--n", "20", "--window-seed", "-1"], "window_seed must be nonnegative")
          for kind in ("mtp-check", "percolation", "cost-bound", "kazhdan")],
    ]
    refused = tmp_path / "refused"
    for argv, message in malformed:
        capsys.readouterr()
        assert main([*argv, "--out", str(refused)]) == 2, argv
        assert message in capsys.readouterr().err, argv
        assert not refused.exists(), argv  # a refused run creates no output directory
    # refused only once the window is built or the subsets are sampled
    refused_late = [
        (["kazhdan", "--model", "cycle", "--L", "9", "--k", "2", "--eps", "0.01"],
         "validation: eps: no integer part sizes"),
        (["percolation", "--model", "random-regular", "--k-rank", "1", "--n", "40", "--p", "0.3", "--trials", "3"],
         "validation: model: the window is disconnected and clusters span multiple window components "
         "(component 0: clusters [0, 1, 2, 6, 7, 8]; component 1: clusters [3, 4]; component 2: clusters [5])\n"),
    ]
    for argv, message in refused_late:
        capsys.readouterr()
        assert main([*argv, "--out", str(refused)]) == 2, argv
        assert message in capsys.readouterr().err, argv
        assert not refused.exists(), argv
    with monkeypatch.context() as patch:
        def unreachable(*args):
            raise AssertionError("a sample count above the guard reached the sampler")

        # a sampler or window builder call here would try to allocate gigabytes or terabytes
        for name in ("verify_mean_cell_volume", "orthant_probability_mc", "build_torus_window",
                     "build_path", "build_complete", "build_random_regular"):
            patch.setattr(cli, name, unreachable)
        patch.setattr(cli.WindowGraph, "__init__", unreachable)
        huge = {"model": "torus", "params": {"d": 1, "L": 4}, "seed": None, "n": 10**13, "edges": rows}
        for argv, message in [(["palm", "--m", "10000000000000", "--trials", "1"], "guard: m: "),
                              (["gauss-check", "--n", "10000000000000"], "guard: n: "),
                              (["percolation", "--model", "torus", "--d", "40", "--L", "3"], "guard: L: "),
                              (["percolation", "--model", "torus", "--d", "12", "--L", "10"], "guard: L: "),
                              (["percolation", "--model", "cycle", "--L", "1000000000000"], "guard: L: "),
                              (["kazhdan", "--model", "complete", "--n", "100000"], "guard: n: "),
                              (["mtp-check", "--model", "path", "--n", "50000002"], "guard: n: "),
                              (["cost-bound", "--model", "random-regular", "--k-rank", "2", "--n", "25000001"],
                               "guard: n: "),
                              (["mtp-check", "--model", "window-file", "--window-file",
                                config_file("huge.json", json.dumps(huge))], "guard: window_file: ")]:
            capsys.readouterr()
            assert main([*argv, "--out", str(refused)]) == 3, argv
            assert message in capsys.readouterr().err, argv
            assert not refused.exists(), argv
    guarded = [
        ["--t", "0.001", "--L", "5", "--d", "1", "--check", "cellvol"],
        ["--t", "1e300", "--L", "5"],
        ["--t", "1e300", "--check", "locfin"],
        ["--L", "1e200"],  # L^d overflows a double
    ]
    for argv in guarded:
        capsys.readouterr()
        assert main(["palm", *argv, "--out", str(refused)]) == 3, argv
        assert "guard: expected point count" in capsys.readouterr().err, argv
        assert not refused.exists(), argv
    # the writers make a missing output directory, nested ones included
    assert main(["gauss-check", "--rho", "0", "--n", "1000", "--seed", "1",
                 "--out", str(refused / "nested")]) == 0
    assert sorted(p.name for p in (refused / "nested").iterdir()) == ["gauss_check.csv", "run.manifest.json"]


def test_window_guard_counts_directed_entries(monkeypatch):
    # each model at exactly MAX_WINDOW_ENTRIES directed entries reaches its builder, one step more is refused
    assert MAX_WINDOW_ENTRIES == 10**8
    for name in ("build_torus_window", "build_path", "build_complete", "build_random_regular"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: name)
    at_cap = [  # 2d * L^d, 2L, 2(n - 1), n(n - 1), 2k * n
        ({"model": "torus", "d": 2, "L": 5000}, "L"),
        ({"model": "cycle", "L": 5 * 10**7}, "L"),
        ({"model": "path", "n": 5 * 10**7 + 1}, "n"),
        ({"model": "complete", "n": 10**4}, "n"),
        ({"model": "random-regular", "k_rank": 2, "n": 25 * 10**6}, "n"),
    ]
    for params, field in at_cap:
        assert build_window(params, 0).startswith("build_"), params
        with pytest.raises(GuardViolation, match=f"^{field}: "):
            build_window({**params, field: params[field] + 1}, 0)


@pytest.mark.parametrize("params", [
    {"model": "torus", "d": 1, "L": 5}, {"model": "torus", "d": 2, "L": 4}, {"model": "torus", "d": 3, "L": 3},
    {"model": "cycle", "L": 7}, {"model": "path", "n": 6}, {"model": "complete", "n": 7},
    *[{"model": "random-regular", "k_rank": k, "n": 9} for k in (1, 2, 3)],
], ids=lambda params: "-".join(map(str, params.values())))
def test_window_model_rows_count_the_built_entries(params):
    # the guard's count of a model's row is the size of the window its builder returns
    spec = cli._resolve(cli.WindowSpec, "window", params)
    assert cli._WINDOW_MODELS[spec.model][2](spec) == build_window(params, 0).indices.size


def test_window_file_guard_counts_vertices_and_rows(tmp_path, monkeypatch):
    # a window file at exactly its entry cap in vertices or directed entries builds, one more is refused
    rows = [[0, 1, "+e1"], [0, 3, "-e1"], [1, 2, "+e1"], [2, 3, "+e1"]]  # a 4-cycle: 8 directed entries
    for n, size in [(4, 8), (10, 10)]:  # the rows set the size, then the vertex count (6 isolated vertices)
        path = tmp_path / f"window{n}.json"
        path.write_text(json.dumps({"model": "torus", "params": {"d": 1, "L": 4}, "seed": None, "n": n, "edges": rows}))
        params = {"model": "window-file", "window_file": str(path)}
        monkeypatch.setattr(cli, "_FILE_ENTRIES", size)
        assert build_window(params, 0).n == n
        monkeypatch.setattr(cli, "_FILE_ENTRIES", size - 1)
        with pytest.raises(GuardViolation, match="^window_file: "):
            build_window(params, 0)


@pytest.mark.parametrize("model, rank", [("torus", "d"), ("random-regular", "k")])
def test_window_file_guard_counts_declared_labels(model, rank, tmp_path, capsys, monkeypatch):
    # a torus file declares 2d edge labels and a random-regular file 2k; the guard counts them
    # before the generator set is built, so a 3-vertex file declaring 2e8 labels is refused at once
    def window_file(value):
        path = tmp_path / f"{model}-{value}.json"
        path.write_text(json.dumps({"model": model, "params": {rank: value}, "seed": None, "n": 3, "edges": []}))
        return str(path)

    start = time.perf_counter()
    assert main(["mtp-check", "--model", "window-file", "--window-file", window_file(10**8),
                 "--out", str(tmp_path / "refused")]) == 3
    assert time.perf_counter() - start < 1.0
    assert "guard: window_file: " in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    # 2 * 500,001 labels are under the file's entry cap but over MAX_PARTS: each label costs Python
    # strings and dicts, and at k = 500,000 the file takes seconds and hundreds of MB to read
    start = time.perf_counter()
    assert main(["mtp-check", "--model", "window-file", "--window-file", window_file(500_001),
                 "--out", str(tmp_path / "refused")]) == 3
    assert time.perf_counter() - start < 0.1
    assert "guard: window_file: " in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    params = {"model": "window-file", "window_file": window_file(2)}
    monkeypatch.setattr(cli, "_FILE_ENTRIES", 4)  # the 4 labels of rank 2 outnumber the 3 vertices
    assert build_window(params, 0).n == 3
    monkeypatch.setattr(cli, "_FILE_ENTRIES", 3)
    with pytest.raises(GuardViolation, match="^window_file: "):
        build_window(params, 0)


@pytest.mark.parametrize("model, rank, label", [("torus", "d", "+e1"), ("random-regular", "k", "s1")])
@pytest.mark.parametrize("value", [True, 2.5, "2", 0], ids=["bool", "float", "string", "zero"])
def test_window_file_rank_must_be_a_positive_integer(model, rank, label, value, tmp_path, capsys):
    # a bool rank used to load as rank 1, under a window id such as torus(L=3,d=True)
    data = {"model": model, "params": {rank: value, "L" if model == "torus" else "n": 3}, "seed": None,
            "n": 3, "edges": [[0, 1, label], [1, 2, label], [2, 0, label]]}
    with pytest.raises(ValueError, match=f"^params.{rank} must be a positive integer"):
        window_from_dict(data)
    path = tmp_path / "window.json"
    path.write_text(json.dumps(data))
    assert main(["mtp-check", "--model", "window-file", "--window-file", str(path),
                 "--out", str(tmp_path / "refused")]) == 2
    assert f"validation: window_file: cannot read {path}: params.{rank} must be a positive integer" in \
        capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    data["params"][rank] = 1  # the same file with an integer rank loads
    assert window_from_dict(data).n == 3


def test_window_file_guard_counts_explicit_labels(tmp_path, capsys, monkeypatch):
    # an explicit file builds one label per distinct name in its edge rows; the guard counts them
    def window_file(labels):
        path = tmp_path / f"explicit-{labels}.json"
        edges = [[i, (i + 1) % 5, f"e{i}"] for i in range(labels)]
        path.write_text(json.dumps({"model": "explicit", "params": {}, "seed": None, "n": 5, "edges": edges}))
        return path

    monkeypatch.setattr(cli, "MAX_PARTS", 3)
    assert main(["mtp-check", "--model", "window-file", "--window-file", str(window_file(4)),
                 "--out", str(tmp_path / "refused")]) == 3
    assert "guard: window_file: " in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    assert main(["mtp-check", "--model", "window-file", "--window-file", str(window_file(3)),
                 "--out", str(tmp_path / "ok")]) == 0


def test_window_file_guard_caps_the_read(tmp_path, capsys, monkeypatch):
    # a file one byte over _FILE_BYTES is refused before it is read: this one is all zero bytes
    # (sparse on disk), so reading it would fail the parse and exit 2, not 3
    path = tmp_path / "oversized.json"
    with path.open("wb") as f:
        f.truncate(cli._FILE_BYTES + 1)
    argv = ["mtp-check", "--model", "window-file", "--window-file", str(path)]
    assert main([*argv, "--out", str(tmp_path / "refused")]) == 3
    assert "guard: window_file: " in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    # a 4-cycle file of exactly _FILE_BYTES builds, and one byte over is refused
    rows = [[0, 1, "+e1"], [0, 3, "-e1"], [1, 2, "+e1"], [2, 3, "+e1"]]
    path.write_text(json.dumps({"model": "torus", "params": {"d": 1, "L": 4}, "seed": None, "n": 4, "edges": rows}))
    monkeypatch.setattr(cli, "_FILE_BYTES", path.stat().st_size)
    assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(cli, "_FILE_BYTES", path.stat().st_size - 1)
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "refused")]) == 3
    assert "guard: window_file: " in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


SPATIAL_PROBE = """
import json, sys
from urglab import cli

loaded = {"import": "scipy.spatial" in sys.modules}
for i, (name, kind, params) in enumerate(json.loads(sys.argv[2])):
    cli.run(cli.ExperimentConfig(kind, params, trials=2, out_dir=f"{sys.argv[1]}/{i}"))
    loaded[name] = "scipy.spatial" in sys.modules
print(json.dumps(loaded))
"""


def test_only_palm_loads_scipy_spatial(tmp_path):
    # scipy.spatial is a large share of start-up, and only palm's locfin check builds a KD-tree; the
    # tree builder imports it at its first build, so no other kind or check, nor the import of cli,
    # loads it.  Each run adds to the same process, so locfin runs last
    runs = [("percolation", "percolation", {"L": 8, "p": [0.3]}), ("cost-bound", "cost-bound", {"L": 8}),
            ("kazhdan", "kazhdan", {"L": 8, "budget": 50, "restarts": 1}), ("mtp-check", "mtp-check", {"L": 8}),
            ("gauss-check", "gauss-check", {"n": 100}),
            ("palm inversion", "palm", {"check": "inversion", "L": 5.0, "m": 10}),
            ("palm cellvol", "palm", {"check": "cellvol", "L": 5.0, "m": 10}),
            ("palm locfin", "palm", {"check": "locfin", "L": 5.0, "m": 10})]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SPATIAL_PROBE, str(tmp_path), json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, **{name: name == "palm locfin" for name, _, _ in runs}}


def test_palm_dimension_guard_counts_coordinates(tmp_path, capsys, monkeypatch):
    # t*L^d*d coordinates per sample (at least d, the origin row) at MAX_EXPECTED_POINTS reach the
    # sampler, one more is refused; a sampler call here would try to allocate up to 160 GB.  One
    # location per trial keeps the m*d location guard out of the way
    assert palm.MAX_EXPECTED_POINTS == 1e8

    def unreachable(*args):
        raise AssertionError("reached the sampler")

    for name in ("_poisson_points", "palm_sample_poisson"):
        monkeypatch.setattr(palm, name, unreachable)
    monkeypatch.setattr(cli, "sample_poisson", unreachable)
    refused = tmp_path / "refused"
    for check in ("cellvol", "inversion", "locfin"):
        palm_run = ["palm", "--check", check, "--L", "1", "--m", "1", "--trials", "1",
                    "--out", str(refused)]
        for t, d in [("20", "1000000000"), ("20", "5000001"), ("0.5", "100000001")]:
            capsys.readouterr()
            assert main([*palm_run, "--t", t, "--d", d]) == 3, (check, t, d)
            assert "guard: d: " in capsys.readouterr().err, (check, t, d)
            assert not refused.exists()
        with pytest.raises(AssertionError, match="reached the sampler"):
            main([*palm_run, "--t", "20", "--d", "5000000"])


def test_palm_location_guard_counts_m_times_d(tmp_path, capsys, monkeypatch):
    # m locations of d coordinates each: m*d at MAX_SAMPLES reaches the sampler, one more
    # is refused naming m; the first case would ask for 5e14 coordinates
    assert cli.MAX_SAMPLES == 10**8

    def unreachable(*args):
        raise AssertionError("reached the sampler")

    for name in ("_poisson_points", "palm_sample_poisson"):
        monkeypatch.setattr(palm, name, unreachable)
    monkeypatch.setattr(cli, "sample_poisson", unreachable)
    refused = tmp_path / "refused"
    for check in ("cellvol", "inversion", "locfin"):
        palm_run = ["palm", "--check", check, "--t", "20", "--L", "1", "--trials", "1", "--out", str(refused)]
        for d, m in [("5000000", "100000000"), ("2", "50000001"), ("10", "10000001")]:
            capsys.readouterr()
            assert main([*palm_run, "--d", d, "--m", m]) == 3, (check, d, m)
            assert "guard: m: " in capsys.readouterr().err, (check, d, m)
            assert not refused.exists()
        with pytest.raises(AssertionError, match="reached the sampler"):
            main([*palm_run, "--d", "2", "--m", "50000000"])


def test_locfin_refuses_a_run_in_which_every_configuration_is_empty(tmp_path, capsys):
    # t*L = 0.005: all three sampled configurations are empty, so no trial checks anything
    refused = tmp_path / "refused"
    assert main(["palm", "--check", "locfin", "--t", "0.001", "--L", "5", "--d", "1", "--trials", "3",
                 "--out", str(refused)]) == 3
    assert "guard: t: " in capsys.readouterr().err
    assert not refused.exists()
    # t*L = 1: trials 0, 7 and 9 of seed 0 are empty and skipped, the other seven run
    out = tmp_path / "partly"
    assert main(["palm", "--check", "locfin", "--t", "0.2", "--L", "5", "--d", "1", "--trials", "10",
                 "--out", str(out)]) == 0
    rows = (out / "palm_trials.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4", "5", "6", "8"]
    assert json.loads((out / "palm_report.json").read_text())["trials"] == 7


def test_part_counts_sum_exactly_and_are_capped(tmp_path, capsys, monkeypatch):
    # sum([1/d] * d) drifts past the 1e-12 tolerance from d = 36217; the exact sums stay within it
    assert abs(sum([1.0 / 36217] * 36217) - 1.0) > 1e-12
    cycle = ["--model", "cycle", "--L", "8"]
    assert main(["mtp-check", *cycle, "--colours", "36217", "--out", str(tmp_path / "mtp")]) == 0
    assert main(["kazhdan", *cycle, "--k", "36217", "--budget", "1", "--out", str(tmp_path / "kazhdan")]) == 0

    def unreachable(*args):
        raise AssertionError("a part count above the guard reached its per-part list")

    monkeypatch.setattr(cli.KazhdanSpec, "weights", unreachable)
    # mtp-check derives its colouring seed just before it builds its [1/d] * d list
    monkeypatch.setattr(cli, "derive_seed", unreachable)
    refused = tmp_path / "refused"
    for count in ("1000001", "10000000000"):
        for argv, message in [(["kazhdan", *cycle, "--k", count], "guard: k: "),
                              (["mtp-check", *cycle, "--colours", count], "guard: colours: ")]:
            capsys.readouterr()
            assert main([*argv, "--out", str(refused)]) == 3, argv
            assert message in capsys.readouterr().err, argv
            assert not refused.exists(), argv


@pytest.mark.parametrize("kind, field", [("kazhdan", "k"), ("mtp-check", "colours")])
def test_part_guard_runs_in_run_not_in_validate(kind, field, tmp_path):
    # a part count above MAX_PARTS is valid, and run() refuses it naming the field
    config = ExperimentConfig(kind, {"model": "cycle", "L": 8, field: 10**10}, out_dir=str(tmp_path / "out"))
    assert validate(config) == []
    with pytest.raises(GuardViolation, match=f"^{field}: "):
        run(config)
    assert not (tmp_path / "out").exists()


def test_validation_is_reported_before_guards(tmp_path, capsys):
    # eps is invalid at any k, so the part guard that k = 10**10 would trip is never reached
    argv = ["kazhdan", "--model", "cycle", "--L", "8", "--k", "10000000000", "--eps", "0.5"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "validation: kazhdan: eps must satisfy" in err and "guard: " not in err


def test_only_run_calls_the_writers():
    # runners return their payloads, and run() alone writes them: inside the package only
    # cli.run names write_json or write_csv (reporting defines them, cli imports them)
    writers = set()
    for path in sorted((ROOT / "src" / "urglab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for sub in ast.walk(node):
                if getattr(sub, "id", getattr(sub, "attr", None)) in ("write_json", "write_csv"):
                    writers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert writers == {"cli.run"}


def test_window_spec_dispatches_on_model_once():
    # each window model is one row of the model table: no comparison inside WindowSpec tests
    # self.model, or a local copy of it, against a model name
    tree = ast.parse((ROOT / "src" / "urglab" / "cli.py").read_text())
    spec = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "WindowSpec")

    def is_model(node):
        return isinstance(node, ast.Attribute) and node.attr == "model" and getattr(node.value, "id", None) == "self"

    copies = set()
    for node in ast.walk(spec):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple) else [(target, node.value)])
                copies |= {t.id for t, v in pairs if isinstance(t, ast.Name) and is_model(v)}

    def model_names(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {e.value for e in elts if isinstance(e, ast.Constant)} & set(cli.WINDOW_MODELS)

    chains = []
    for node in ast.walk(spec):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(is_model(o) or isinstance(o, ast.Name) and o.id in copies for o in operands)
                    and any(map(model_names, operands))):
                chains.append(ast.unparse(node))
    assert chains == []
    assert cli.WINDOW_MODELS == tuple(cli._WINDOW_MODELS)


def test_percolation_p_grid_rows(tmp_path):
    def percolation_csv(name, p):
        argv = ["percolation", "--L", "8", "--p", p, "--trials", "3", "--seed", "4"]
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        return read(tmp_path / name / "percolation.csv")

    grid = percolation_csv("grid", "0.1,0.3")
    # row i is trial i % trials at p[i // trials]
    assert [row.split(",")[0] for row in grid.decode().splitlines()[1:]] == ["0.1"] * 3 + ["0.3"] * 3
    assert hashlib.sha256(grid).hexdigest() == (
        "ab7a57146e5e485911ba0cceb5406fa317b8057b266e0ae32abaeb1a52fa2e7a")
    # the first value's rows are the one-value run, header included
    assert grid.startswith(percolation_csv("one", "0.1"))
    # a random-regular window (loops and parallel edges)
    argv = ["percolation", "--model", "random-regular", "--k-rank", "2", "--n", "200",
            "--p", "0.1,0.3", "--trials", "3", "--seed", "4", "--out", str(tmp_path / "rr")]
    assert main(argv) == 0
    assert hashlib.sha256(read(tmp_path / "rr" / "percolation.csv")).hexdigest() == (
        "cb14404b81495f848a75ea649b53bebf9104018b7052e1c43e28b88c608f8cb8")


def test_percolation_takes_a_bare_p(tmp_path):
    cfg = tmp_path / "perc.cfg"
    cfg.write_text("L = 8\np = 0.3\n")
    assert main(["percolation", "--config", str(cfg), "--trials", "2", "--out", str(tmp_path / "cli")]) == 0
    manifest = run(ExperimentConfig("percolation", {"L": 8, "p": 0.3}, trials=2, out_dir=str(tmp_path / "run")))
    assert manifest.config["params"]["p"] == [0.3]
    assert read(tmp_path / "cli" / "percolation.csv") == read(tmp_path / "run" / "percolation.csv")


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text()
    lines = [line.split("#")[0].strip() for block in re.findall(r"```\w*\n(.*?)```", readme, re.S)
             for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("urglab ")]
    assert len(commands) >= len(KINDS)
    for argv in commands:
        config_from_args(build_parser().parse_args(argv))
    scripts = set(re.findall(r"scripts/\w+\.py", readme))
    assert scripts
    assert all((ROOT / name).is_file() for name in scripts), scripts


# the fewest settings each kind needs (the torus window needs its side L)
MINIMAL_PARAMS = {
    "gauss-check": {},
    "mtp-check": {"L": 4},
    "percolation": {"L": 4},
    "cost-bound": {"L": 4},
    "kazhdan": {"L": 4},
    "palm": {},
}


@pytest.mark.parametrize("kind", KINDS)
def test_cli_and_run_apply_the_same_defaults(kind, tmp_path):
    params = MINIMAL_PARAMS[kind]
    flags = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    assert main([kind, *flags, "--out", str(tmp_path / "cli")]) == 0
    manifest = run(ExperimentConfig(kind, dict(params), out_dir=str(tmp_path / "run")))
    for name in manifest.outputs:
        assert read(tmp_path / "cli" / name) == read(tmp_path / "run" / name), name
    echoes = [json.loads((tmp_path / side / "run.manifest.json").read_text())["config"]
              for side in ("cli", "run")]
    assert echoes[0] == echoes[1]


WINDOW_OPTIONS = {"--model", "--d", "--L", "--n", "--k-rank", "--window-seed", "--window-file"}
# option strings of each subcommand, recorded from the hand-written parser the
# specs replaced: generating the parser must neither add nor lose one
OPTIONS = {
    "gauss-check": {"--rho", "--n"},
    "mtp-check": WINDOW_OPTIONS
    | {"--transport", "--transport-colour", "--transport-value", "--colouring", "--colours"},
    "percolation": WINDOW_OPTIONS | {"--p"},
    "cost-bound": WINDOW_OPTIONS | {"--p"},
    "kazhdan": WINDOW_OPTIONS | {"--k", "--alpha", "--eps", "--budget", "--restarts", "--brute-force"},
    "palm": {"--t", "--L", "--d", "--m", "--check", "--functional"},
}


@pytest.mark.parametrize("kind", KINDS)
def test_generated_subcommand_options(kind, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([kind, "--help"])
    assert exit_info.value.code == 0
    assert "(default: 100)" in capsys.readouterr().out  # --trials
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {s for action in subcommands.choices[kind]._actions for s in action.option_strings}
    assert options == {"-h", "--help", "--config", "--out", "--seed", "--trials"} | OPTIONS[kind]


def _random_config(rng) -> ExperimentConfig:
    kind = ["gauss-check", "percolation", "kazhdan", "mtp-check", "palm", "cost-bound"][
        int(rng.integers(6))
    ]
    seed = int(rng.integers(1000))
    if kind == "gauss-check":
        params = {"rho": [float(rng.uniform(-1, 1))], "n": int(rng.integers(10, 1000))}
    elif kind == "palm":
        params = {
            "t": float(rng.uniform(0.5, 3.0)),
            "L": float(rng.uniform(6.0, 15.0)),
            "d": int(rng.integers(1, 3)),
            "m": int(rng.integers(10, 200)),
            "check": ["cellvol", "inversion", "locfin"][int(rng.integers(3))],
        }
    else:
        model = ["torus", "cycle", "random-regular"][int(rng.integers(3))]
        params = {"model": model}
        if model == "torus":
            params["d"] = int(rng.integers(1, 3))
            params["L"] = int(rng.integers(3, 9))
        elif model == "cycle":
            params["L"] = int(rng.integers(3, 30))
        else:
            params["k_rank"] = int(rng.integers(1, 3))
            params["n"] = int(rng.integers(10, 40))
        if kind in ("percolation", "cost-bound"):
            params["p"] = float(rng.uniform(0.0, 1.0))
        elif kind == "kazhdan":
            params["k"] = int(rng.integers(1, 4))
            params["eps"] = float(rng.uniform(0.0, 0.9 / params["k"]))
            params["budget"] = int(rng.integers(1, 50))
            params["restarts"] = 1
        elif kind == "mtp-check":
            params["transport"] = ["constant", "bichromatic", "source-colour"][int(rng.integers(3))]
    return ExperimentConfig(kind, params, trials=int(rng.integers(1, 5)), seed=seed)


def test_valid_configs_clear_run_validation_fuzz():
    # validate() empty implies the window of a window kind builds, the only
    # step of run() before sampling; a subsample runs for real below
    rng = np.random.default_rng(2024)
    accepted = 0
    for i in range(1000):
        config = _random_config(rng)
        if validate(config):
            continue
        if config.kind not in ("gauss-check", "palm"):
            build_window(config.params, config.seed)
        accepted += 1
    assert accepted >= 800


def test_valid_config_subsample_runs_for_real(tmp_path):
    rng = np.random.default_rng(77)
    executed = 0
    attempts = 0
    while executed < 12 and attempts < 200:
        attempts += 1
        config = _random_config(rng)
        if validate(config):
            continue
        if config.kind == "kazhdan" and config.params.get("eps", 0.0) > 0.0:
            # integer-infeasible eps is a legitimate downstream rejection
            try:
                build_window(config.params, config.seed)
            except ValueError:
                continue
        config.out_dir = str(tmp_path / f"run{executed}")
        try:
            run(config)
        except Exception as exc:  # noqa: BLE001 - the assertion is about validation paths
            from urglab.clusters import DisconnectedClustersError
            from urglab.kazhdan import InfeasibleBalanceError
            from urglab.palm import GuardViolation

            # data-dependent refusals, not validation failures
            assert isinstance(
                exc, (InfeasibleBalanceError, GuardViolation, DisconnectedClustersError)
            ), exc
            continue
        executed += 1
    assert executed == 12
