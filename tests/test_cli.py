"""Command-line interface: subcommands, exit codes, file formats."""

import json
import math
import secrets

import pytest

from prdna.cli import main
from prdna.graph import capacity, graph_from_json, graph_to_json, uniform_graph
from prdna.quantizer import design_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_prints_nine_digit_value(capsys):
    code, out, _ = run(capsys, "capacity", "--q", "4", "--menu", "1")
    assert code == 0
    assert abs(float(out.strip()) - math.log2(3)) < 1e-7
    assert out.strip() == "1.5849625"


def test_capacity_json_roundtrips_through_reader(capsys, tmp_path):
    graph = uniform_graph(4, [1, 2], max_duration=10)
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(graph_to_json(graph))
    out_path = tmp_path / "cap.json"
    code, out, _ = run(capsys, "capacity", "--graph", str(graph_path), "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert abs(data["capacity"] - capacity(graph).capacity) < 1e-7
    assert data["letters"] == ["A", "C", "G", "T"]
    assert graph_from_json(graph_to_json(graph)) == graph


def test_design_binomial_json_output(capsys, tmp_path):
    out_path = tmp_path / "design.json"
    code, out, _ = run(
        capsys, "design", "binomial",
        "--p", "0.5", "--delta", "0.1", "--N", "1", "--M", "10",
        "--out", str(out_path),
    )
    assert code == 0
    assert "exact_err" in out  # human-readable table on stdout
    data = json.loads(out_path.read_text())
    assert data["t"][0] == 4
    assert data["tau"][1] == 4
    design_from_json(out_path.read_text())  # reader accepts the artifact


def test_design_poisson_table(capsys):
    code, out, _ = run(capsys, "design", "poisson", "--delta", "0.02", "--N", "1", "--ell-max", "3")
    assert code == 0
    assert out.count("\n") >= 4


def test_encode_decode_roundtrip_64_bits(capsys, tmp_path):
    payload = secrets.token_hex(8)
    sched_path = tmp_path / "schedule.txt"
    code, _, _ = run(
        capsys, "encode", "--q", "4", "--menu", "1,2", "--T", "40",
        "--payload-hex", payload, "--delta", "0.02", "--out", str(sched_path),
    )
    assert code == 0
    header = sched_path.read_text().splitlines()[0].split()
    assert header[0] == "4" and header[1] == "2" and header[2] == "40"
    code, out, _ = run(capsys, "decode", "--q", "4", "--menu", "1,2", "--in", str(sched_path))
    assert code == 0
    assert out.strip() == payload


def test_encode_rejects_overfull_budget(capsys):
    code, _, err = run(
        capsys, "encode", "--q", "4", "--menu", "1", "--T", "4",
        "--payload-hex", "ffff",
    )
    assert code == 2
    assert "error:" in err


def test_usage_error_names_flag_and_range(capsys):
    with pytest.raises(SystemExit) as info:
        main(["design", "binomial", "--p", "1.5", "--delta", "0.1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--p" in err and "(0, 1)" in err


def test_rate_curve_csv_schema(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "rate-curve", "--family", "binomial", "--sweep", "p",
        "--values", "0.5,0.9", "--delta", "0.02", "--N", "5", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "param,N,delta,M,ell,capacity_bits_per_time,alpha,rate_thm2,lambda1,status"
    assert len(lines) == 3
    assert lines[1].endswith("ok")


def test_rate_curve_jobs_flag_matches_sequential(capsys, tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "rate-curve", "--family", "poisson", "--sweep", "N",
        "--values", "1,2,3,4", "--delta", "0.05",
    ]
    assert main(argv + ["--out", str(a_path)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(b_path)]) == 0
    capsys.readouterr()
    assert a_path.read_text() == b_path.read_text()


def test_simulate_report_and_exit_zero(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "simulate", "--family", "binomial", "--p", "0.9",
        "--delta", "0.05", "--N", "3", "--M", "10",
        "--payload-rounds", "50", "--trials", "10", "--seed", "5",
        "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["trials"] == 10
    assert data["seed"] == 5
    assert data["success_rate"] >= 0.9


def test_simulate_prints_drawn_seed_when_omitted(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("PRDNA_SEED", raising=False)
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "simulate", "--family", "binomial", "--p", "0.9",
        "--delta", "0.05", "--N", "3", "--M", "10",
        "--payload-rounds", "20", "--trials", "2", "--out", str(out_path),
    )
    assert code == 0
    assert "seed=" in out
    printed = int(out.split("seed=")[1].splitlines()[0])
    assert json.loads(out_path.read_text())["seed"] == printed


def test_simulate_env_seed_fallback(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("PRDNA_SEED", "77")
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "simulate", "--family", "binomial", "--p", "0.9",
        "--delta", "0.05", "--N", "3", "--M", "10",
        "--payload-rounds", "20", "--trials", "2", "--out", str(out_path),
    )
    assert code == 0
    assert "seed=" not in out
    assert json.loads(out_path.read_text())["seed"] == 77


def test_simulate_exit_three_on_unrecoverable(capsys, tmp_path):
    # single fragile copy plus strict deletion reading: appended rounds
    # vanish often enough that some trial aborts
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "simulate", "--family", "binomial", "--p", "0.4",
        "--delta", "0.3", "--N", "1", "--M", "10",
        "--payload-rounds", "120", "--trials", "5", "--seed", "2",
        "--strict-deletions", "--out", str(out_path),
    )
    assert code == 3
    assert json.loads(out_path.read_text())["unrecoverable"] >= 1


def test_simulate_fixed_payload_mode(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "simulate", "--family", "binomial", "--p", "0.9",
        "--delta", "0.05", "--N", "3", "--M", "10",
        "--payload-hex", "ab12", "--T", "12", "--trials", "4", "--seed", "3",
        "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["trials"] == 4
    assert data["success_rate"] == 1.0


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("empty.txt", "", ["decode", "--q", "4", "--menu", "1,2", "--in"]),
        ("graph.json", '{"q": 4, "M": 10}', ["capacity", "--graph"]),
        (
            "design.json",
            '{"family": "binomial", "t": [2, 6], "tau": [0, 4, 20], "delta": 0.02, "p": 0.5}',
            ["simulate", "--payload-rounds", "10", "--trials", "1", "--seed", "1", "--design"],
        ),
        ("graph.json", "[]", ["capacity", "--graph"]),
        ("graph.json", '{"q": 4, "menus": 5}', ["capacity", "--graph"]),
        ("graph.json", '{"q": 4, "menus": {"default": null}}', ["capacity", "--graph"]),
        (
            "design.json",
            '{"family": "binomial", "N": null, "t": [2, 6], "tau": [0, 4, 20], "delta": 0.02}',
            ["simulate", "--payload-rounds", "10", "--trials", "1", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            "[]",
            ["simulate", "--payload-rounds", "10", "--trials", "1", "--seed", "1", "--design"],
        ),
    ],
    ids=[
        "empty-schedule", "graph-without-menus", "design-without-N",
        "graph-not-object", "graph-menus-not-object", "graph-null-menu",
        "design-null-N", "design-not-object",
    ],
)
def test_malformed_input_files_exit_two(capsys, tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "family_args, integer_graph",
    [
        (["--family", "binomial", "--p", "0.9", "--M", "10"], True),
        (["--family", "poisson", "--ell-max", "4"], False),
    ],
    ids=["binomial", "poisson"],
)
def test_simulate_bits_per_time_only_on_integer_graphs(capsys, tmp_path, family_args, integer_graph):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "simulate", *family_args, "--delta", "0.05", "--N", "4",
        "--payload-rounds", "50", "--trials", "3", "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    rate = json.loads(out_path.read_text())["bits_per_time"]
    assert (rate > 0) if integer_graph else (rate is None)
