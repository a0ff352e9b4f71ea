"""Command-line interface: subcommands, exit codes, file formats."""

import json
import math
import secrets

import pytest

import prdna.cli
import prdna.codec
import prdna.graph
from prdna.cli import main
from prdna.codec import attach_redundancy, encode_payload, size_parity
from prdna.graph import capacity, graph_from_json, uniform_graph
from prdna.quantizer import design_from_json


def _readme_schedule_body():
    # rounds of the README example: deadbeef12345678 at T = 40, delta = 0.02
    graph = uniform_graph(4, [1, 2])
    payload = encode_payload(format(0xDEADBEEF12345678, "064b"), graph, "A", 40)
    plan, ecc = size_parity(payload.num_rounds, 0.02, graph.ell, graph.q)
    rows = [f"{a} {i}" for a, i in attach_redundancy(graph, payload, plan, ecc).rounds]
    body = "\n".join(["# start=A bits=64 counts=w32 margin=3", *rows]) + "\n"
    return payload.num_rounds, plan.redundancy_rounds, body


README_PAYLOAD_ROUNDS, README_APPENDED_ROUNDS, README_BODY = _readme_schedule_body()
README_HEADER = f"4 2 40 {README_PAYLOAD_ROUNDS} {README_APPENDED_ROUNDS} 0.02\n"


def _readme_rows_with(flips=(), swap=None):
    # README rounds with the index of each payload round in `flips` turned
    # 1 <-> 2, or the indices of the two payload rounds in `swap` exchanged
    rows = README_BODY.splitlines()  # the meta line, then the rounds
    for k in flips:
        letter, index = rows[1 + k].split()
        rows[1 + k] = f"{letter} {3 - int(index)}"
    if swap is not None:
        (a, i), (b, j) = (rows[1 + k].split() for k in swap)
        assert i != j  # a swap of equal indices would change nothing
        rows[1 + swap[0]], rows[1 + swap[1]] = f"{a} {j}", f"{b} {i}"
    return "\n".join(rows) + "\n"


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
    graph_path.write_text('{"q": 4, "letters": ["A", "C", "G", "T"], "M": 10, "menus": {"default": [1, 2]}}')
    out_path = tmp_path / "cap.json"
    code, out, _ = run(capsys, "capacity", "--graph", str(graph_path), "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert abs(data["capacity"] - capacity(graph).capacity) < 1e-7
    assert data["letters"] == ["A", "C", "G", "T"]
    assert graph_from_json(graph_path.read_text()) == graph


@pytest.mark.parametrize("menu", ["nan", "inf", "1,nan", "1,inf"])
def test_capacity_refuses_a_non_finite_menu(capsys, menu):
    code, out, err = run(capsys, "capacity", "--q", "4", "--menu", menu)
    assert code == 2
    assert "durations must be finite" in err
    assert out == ""


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_capacity_refuses_a_non_finite_graph_file(capsys, tmp_path, bad):
    path = tmp_path / "graph.json"
    path.write_text(f'{{"q": 4, "menus": {{"default": [1, {bad}]}}}}')
    code, out, err = run(capsys, "capacity", "--graph", str(path))
    assert code == 2
    assert "durations must be finite" in err
    assert out == ""


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


def test_binary_alphabet_encodes_without_parity(capsys, tmp_path):
    sched_path = tmp_path / "schedule.txt"
    code, _, _ = run(
        capsys, "encode", "--q", "2", "--menu", "1,2", "--T", "40",
        "--payload-hex", "abcd", "--out", str(sched_path),
    )
    assert code == 0
    q, ell, total, _, appended, delta = sched_path.read_text().splitlines()[0].split()
    assert (q, ell, total, appended, delta) == ("2", "2", "40", "0", "0")
    code, out, _ = run(capsys, "decode", "--q", "2", "--menu", "1,2", "--in", str(sched_path))
    assert (code, out.strip()) == (0, "abcd")


def test_encode_writes_no_margin_and_old_margin_files_decode(capsys, tmp_path):
    sched_path = tmp_path / "schedule.txt"
    assert main(["encode", "--q", "4", "--menu", "1,2", "--T", "40", "--payload-hex",
                 "deadbeef12345678", "--delta", "0.02", "--out", str(sched_path)]) == 0
    assert sched_path.read_text() == README_HEADER + README_BODY.replace(" margin=3", "")
    # files written while the radius had a margin option name it in the meta line
    sched_path.write_text(README_HEADER + README_BODY)
    code, out, _ = run(capsys, "decode", "--q", "4", "--menu", "1,2", "--in", str(sched_path))
    assert (code, out.strip()) == (0, "deadbeef12345678")


def test_decode_validates_the_payload_once(capsys, tmp_path, monkeypatch):
    sched_path = tmp_path / "schedule.txt"
    argv = ["--q", "4", "--menu", "1,2"]
    assert main(["encode", *argv, "--T", "40", "--payload-hex", "deadbeef12345678",
                 "--delta", "0.02", "--out", str(sched_path)]) == 0
    calls = []
    validate = prdna.codec.make_schedule

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(prdna.codec, "make_schedule", counted)
    monkeypatch.setattr(prdna.cli, "make_schedule", counted, raising=False)
    code, out, _ = run(capsys, "decode", *argv, "--in", str(sched_path))
    assert (code, out.strip()) == (0, "deadbeef12345678")
    # one call, over every round of the file: payload and appended rounds
    body = [tuple(line.split()) for line in sched_path.read_text().splitlines()[2:]]
    assert len(calls) == 1 and calls[0][1] == "A"
    assert [(a, str(i)) for a, i in calls[0][2]] == body


def test_decode_refuses_a_header_total_without_counting_to_it(capsys, tmp_path):
    # no meta line, so the width defaults to the header's total: the rank
    # refuses the schedule before any count grows to that total
    sched_path = tmp_path / "schedule.txt"
    body = README_BODY.split("\n", 1)[1]
    sched_path.write_text(README_HEADER.replace(" 40 ", " 3000 ", 1) + body)
    prdna.graph._count_table.cache_clear()
    try:
        code, out, err = run(capsys, "decode", "--q", "4", "--menu", "1,2", "--in", str(sched_path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "expected 3000" in err
        assert len(prdna.graph._count_table(uniform_graph(4, [1, 2])).mantissas) <= 41  # one entry per row
    finally:
        prdna.graph._count_table.cache_clear()


# deadbeef12345678 at T = 40 with no parity, as the codec spelled it while
# it ranked on exact counts, with that codec's meta line
EXACT_COUNT_ROUNDS = (
    "C1 A1 C1 A1 C1 A1 G1 A2 C1 T1 A1 T1 A2 C1 G1 A1 C1 G1 A1 G1 A1 C2 T1 G1 A1 G1 T1 G1 C2 A1 C1 A1 G2 C1 G1"
)
EXACT_COUNT_FILE = "4 2 40 35 0 0\n# start=A bits=64\n" + "".join(
    f"{r[0]} {r[1]}\n" for r in EXACT_COUNT_ROUNDS.split()
)


def test_decode_refuses_a_file_ranked_on_exact_counts(capsys, tmp_path):
    # past 2**32 schedules exact and rounded counts rank apart: without
    # counts=w32 on its meta line the file exits 2 instead of decoding to
    # other bits, and so does a file naming other counts
    sched_path = tmp_path / "schedule.txt"
    argv = ["decode", "--q", "4", "--menu", "1,2", "--in", str(sched_path)]
    for meta, written in (("# start=A bits=64", "exact counts"), ("# start=A bits=64 counts=w53", "counts=w53")):
        sched_path.write_text(EXACT_COUNT_FILE.replace("# start=A bits=64", meta))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: schedule file was written with {written};")
    sched_path.write_text(EXACT_COUNT_FILE.replace("bits=64", "bits=64 counts=w32"))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() != "deadbeef12345678"


def test_decode_takes_a_file_without_counts_below_2_to_the_w(capsys, tmp_path):
    # below 2**32 schedules the counts are exact either way: T = 10 on
    # menu {1, 2} offers about 2**19 schedules, so the meta line may lack counts=
    sched_path = tmp_path / "schedule.txt"
    argv = ["--q", "4", "--menu", "1,2"]
    assert main(["encode", *argv, "--T", "10", "--payload-hex", "abcd", "--out", str(sched_path)]) == 0
    text = sched_path.read_text()
    assert text.splitlines()[1] == "# start=A bits=16 counts=w32"
    sched_path.write_text(text.replace(" counts=w32", ""))
    code, out, _ = run(capsys, "decode", *argv, "--in", str(sched_path))
    assert (code, out.strip()) == (0, "abcd")


@pytest.mark.parametrize(
    "flips, swap, code, out, err",
    [
        ((), (34, 30), 0, "deadbeef12345678\n", ""),
        ((), (0, 7), 0, "deadbeef12345678\n", ""),
        ((0,), None, 0, "deadbeef12345678\n", ""),
        (tuple(range(7)), None, 0, "deadbeef12345678\n", ""),
        (tuple(range(8)), None, 3, "", "unrecoverable:"),
    ],
    ids=["swap-34-30", "swap-0-7", "flip-0", "flip-0-to-6", "flip-0-to-7"],
)
def test_decode_corrects_misread_indices_up_to_the_radius(capsys, tmp_path, flips, swap, code, out, err):
    # the README file at radius 7: uncorrected, the same-total swaps ranked
    # to a wrong payload or overflowed and the flips changed the total
    sched_path = tmp_path / "schedule.txt"
    sched_path.write_text(README_HEADER + _readme_rows_with(flips, swap))
    got = run(capsys, "decode", "--q", "4", "--menu", "1,2", "--in", str(sched_path))
    assert got[:2] == (code, out) and got[2].startswith(err)


def test_header_holds_the_delta_that_sized_the_code(capsys, tmp_path):
    # nine digits of this delta size a smaller code than the delta itself
    delta = "0.02952233341895664"
    full, short = (size_parity(README_PAYLOAD_ROUNDS, d, 2, 4)[0] for d in (float(delta), 0.0295223334))
    assert (full.radius_target, full.redundancy_rounds) == (9, 67)
    assert (short.radius_target, short.redundancy_rounds) == (8, 60)
    sched_path = tmp_path / "schedule.txt"
    argv = ["--q", "4", "--menu", "1,2"]
    assert main(["encode", *argv, "--T", "40", "--payload-hex", "deadbeef12345678",
                 "--delta", delta, "--out", str(sched_path)]) == 0
    assert sched_path.read_text().splitlines()[0].split()[4:] == ["67", delta]
    code, out, _ = run(capsys, "decode", *argv, "--in", str(sched_path))
    assert (code, out.strip()) == (0, "deadbeef12345678")
    # the same file under the nine-digit header the encoder used to write
    sched_path.write_text(sched_path.read_text().replace(delta, "0.0295223334", 1))
    code, out, err = run(capsys, "decode", *argv, "--in", str(sched_path))
    assert (code, out) == (2, "")
    assert "header counts 67 appended rounds" in err and err.rstrip().endswith("needs 60")


def test_decode_refuses_a_nan_delta_by_name(capsys, tmp_path):
    sched_path = tmp_path / "schedule.txt"
    sched_path.write_text(README_HEADER.replace(" 0.02", " nan") + _readme_rows_with())
    code, out, err = run(capsys, "decode", "--q", "4", "--menu", "1,2", "--in", str(sched_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: delta must lie in [0, 0.5) for ell=2")


@pytest.mark.parametrize("bad", ["nan", "-5", "7"])
def test_decode_checks_delta_on_a_single_duration_menu(capsys, tmp_path, bad):
    # a one-duration menu carries no parity, yet its header delta is checked
    sched_path = tmp_path / "schedule.txt"
    argv = ["--q", "4", "--menu", "1"]
    assert main(["encode", *argv, "--T", "20", "--payload-hex", "abcd",
                 "--delta", "0.02", "--out", str(sched_path)]) == 0
    header, rest = sched_path.read_text().split("\n", 1)
    assert header.endswith(" 0 0.02")
    sched_path.write_text(header.removesuffix("0.02") + bad + "\n" + rest)
    code, out, err = run(capsys, "decode", *argv, "--in", str(sched_path))
    assert (code, out) == (2, "")
    assert "delta" in err


def test_decode_refuses_real_durations(capsys, tmp_path):
    # the rounds C 2, G 2 last 6 on the menu {1.5, 3}
    sched_path = tmp_path / "schedule.txt"
    sched_path.write_text("4 2 6 2 0 0\n# start=A bits=12\nC 2\nG 2\n")
    code, out, err = run(
        capsys, "decode", "--q", "4", "--menu", "1.5,3", "--bits", "12", "--in", str(sched_path)
    )
    assert (code, out) == (2, "")
    assert "integer durations" in err


def test_encode_names_the_default_start_on_a_graph_without_a(capsys, tmp_path):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text('{"letters": ["C", "G", "T"], "menus": {"default": [1, 2]}}')
    argv = ["encode", "--graph", str(graph_path), "--T", "40", "--payload-hex", "ab"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: unknown letter 'A', the default --start: name a letter of the graph with --start\n"
    code, _, err = run(capsys, *argv, "--start", "A")  # a letter the user typed is named as before
    assert (code, err) == (2, "error: unknown letter 'A'\n")
    assert run(capsys, *argv, "--start", "C")[0] == 0


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


@pytest.mark.parametrize(
    "family_args", [["binomial", "--p", "0.5"], ["poisson"]], ids=["binomial", "poisson"]
)
@pytest.mark.parametrize("budget", ["0", "-1", "inf", "nan"])
def test_design_rejects_nonpositive_or_nonfinite_budget(capsys, family_args, budget):
    with pytest.raises(SystemExit) as info:
        main(["design", *family_args, "--delta", "0.02", "--M", budget])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--M" in err and "(0, inf)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "binomial", "--p", "0.3", "--delta", "0.02", "--N", "2", "--M", "3.5"],
        ["rate-curve", "--family", "binomial", "--sweep", "N", "--values", "1,2",
         "--p", "0.3", "--delta", "0.02", "--M", "3.5"],
        ["simulate", "--p", "0.5", "--delta", "0.02", "--N", "5", "--M", "9.5",
         "--payload-rounds", "20", "--trials", "1", "--seed", "1"],
    ],
    ids=["design", "rate-curve", "simulate"],
)
def test_fractional_binomial_cap_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "is not a whole number" in err


def test_poisson_cap_stays_real(capsys):
    argv = ["rate-curve", "--family", "poisson", "--sweep", "delta", "--values", "0.02", "--N", "5"]
    code, out, _ = run(capsys, *argv, "--M", "3.5")
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "3.5"


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


def test_rate_curve_caps_poisson_durations_at_M(capsys):
    argv = ["rate-curve", "--family", "poisson", "--sweep", "delta", "--values", "0.02", "--N", "5"]
    code, out, _ = run(capsys, *argv, "--M", "3")
    assert code == 0
    assert out.splitlines()[1] == "0.02,5,0.02,3,2,1.89373571,0.826240724,1.74396436,0.921034037,ok"
    # without --M a Poisson row has no duration cap to print
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1].split(",")[3:5] == ["", "10"]


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


def test_simulate_prints_drawn_seed_when_omitted(capsys, tmp_path):
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
        (
            "schedule.txt",
            f"4 2 40 -{README_APPENDED_ROUNDS} {README_APPENDED_ROUNDS} 0.02\n" + README_BODY,
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        (
            "schedule.txt",
            f"4 2 40 {README_PAYLOAD_ROUNDS} 7 0.02\n" + README_BODY,
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        (
            "schedule.txt",
            README_HEADER.replace(" 0.02", " 0.05") + README_BODY,
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        (
            "schedule.txt",
            README_HEADER.replace(" 0.02", " 0") + README_BODY,
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        (
            "design.json",
            '{"family": "binomial", "N": 5, "t": [2, 6], "tau": [0, 4, 20], "delta": 0.02}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            '{"family": "poisson", "N": 5, "t": [1, 2], "tau": [0, 1, 2], "delta": 0.02}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            '{"family": "binomial", "N": 0, "t": [2, 6], "tau": [0, 4, 20], "delta": 0.02, "p": 0.5}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            '{"family": "binomial", "N": 5, "t": [2.5, 6], "tau": [0, 4, 20], "delta": 0.02, "p": 0.5}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            '{"family": "binomial", "N": 2.5, "t": [2, 6], "tau": [0, 4, 20], "delta": 0.02, "p": 0.5}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            '{"family": "binomial", "N": "5", "t": [2, 6], "tau": [0, 4, 20], "delta": 0.02, "p": 0.5}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            '{"family": "binomial", "N": 5, "t": [2, 6], "tau": [0, 4.4, 20], "delta": 0.02, "p": 0.5}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            '{"family": "poisson", "N": 5, "t": [1, 2], "tau": [0, 0.3, 1], "delta": 0.02, '
            '"lambda": [1, 4]}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "schedule.txt",
            "4 2 3 2 1 0\n# start=A bits=3\nC 1\nG 2\nX 1\n",
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        (
            "schedule.txt",
            "4 2 3 2 1 0\n# start=A bits=3\nC 1\nG 2\nG 1\n",
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        (
            "schedule.txt",
            "4 2 3 2 1 0\n# start=A bits=3\nC 1\nG 2\nT 3\n",
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        ("graph.json", '{"q": 4, "M": NaN, "menus": {"default": [1, 2]}}', ["capacity", "--graph"]),
        ("graph.json", '{"q": 4, "M": Infinity, "menus": {"default": [1, 2]}}', ["capacity", "--graph"]),
        ("graph.json", '{"q": 4.7, "menus": {"default": [1, 2]}}', ["capacity", "--graph"]),
        ("graph.json", '{"q": "4", "menus": {"default": [1, 2]}}', ["capacity", "--graph"]),
        (
            "design.json",
            '{"family": "binomial", "N": 5, "t": [2, 6], "tau": [0, 8, 21], "delta": 0.02, "M": NaN, "p": 0.5}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "design.json",
            '{"family": "binomial", "N": 5, "t": [2, 6], "tau": [0, 8, 21], "delta": 0.02, "M": -4, "p": 0.5}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
        (
            "schedule.txt",
            README_HEADER + README_BODY.replace("bits=64", "bits=-2"),
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        (
            "schedule.txt",
            README_HEADER + README_BODY.replace("bits=64", "bits=-3"),
            ["decode", "--q", "4", "--menu", "1,2", "--in"],
        ),
        (
            "design.json",
            '{"family": "binomial", "N": 5, "t": [2, 6], "tau": [0, 8, 21], "delta": 0.02, "p": 0.5}',
            ["simulate", "--p", "0.3", "--payload-rounds", "20", "--trials", "2", "--seed", "1",
             "--design"],
        ),
        # letters a schedule file line or a "B>A" menu key cannot name
        (
            "graph.json",
            '{"letters": ["A", "C", "A C"], "menus": {"default": [1, 2]}}',
            ["encode", "--T", "20", "--payload-hex", "ab", "--delta", "0.02", "--graph"],
        ),
        ("graph.json", '{"letters": ["A", "C", ""], "menus": {"default": [1, 2]}}', ["capacity", "--graph"]),
        ("graph.json", '{"letters": [1, 2, 3], "menus": {"default": [1, 2]}}', ["capacity", "--graph"]),
        ("graph.json", '{"letters": ["A", "C", "G>"], "menus": {"default": [1, 2]}}', ["capacity", "--graph"]),
        # a string where a JSON number belongs, once read as its digits
        ("graph.json", '{"q": 4, "menus": {"default": "12"}}', ["capacity", "--graph"]),
        (
            "design.json",
            '{"family": "binomial", "N": 5, "t": "26", "tau": [0, 8, 21], "delta": 0.02, "p": 0.5}',
            ["simulate", "--payload-rounds", "20", "--trials", "2", "--seed", "1", "--design"],
        ),
    ],
    ids=[
        "empty-schedule", "graph-without-menus", "design-without-N",
        "graph-not-object", "graph-menus-not-object", "graph-null-menu",
        "design-null-N", "design-not-object", "schedule-negative-payload-rounds",
        "schedule-appended-count-mismatch", "schedule-delta-sizes-more-rounds",
        "schedule-delta-zero-sizes-none", "binomial-design-without-p",
        "poisson-design-without-lambda", "design-zero-copies", "binomial-design-fractional-t",
        "design-fractional-N", "design-string-N", "binomial-design-fractional-tau",
        "poisson-design-fractional-tau-sum", "schedule-appended-unknown-letter",
        "schedule-appended-repeated-letter", "schedule-appended-index-outside-menu",
        "graph-nan-cap", "graph-infinite-cap", "graph-fractional-q", "graph-string-q",
        "design-nan-cap", "design-cap-below-durations", "schedule-negative-bits-2",
        "schedule-negative-bits-3", "design-with-design-flags", "graph-letter-with-blank",
        "graph-empty-letter", "graph-number-letters", "graph-letter-with-arrow",
        "graph-string-menu", "design-string-t",
    ],
)
def test_malformed_input_files_exit_two(capsys, tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text",
    [
        '{"family": "binomial", "N": 5, "t": [2, 6], "tau": [0, 8, 21], "delta": 0.02, "p": 0.5, '
        '"lambda": [1, 4]}',
        '{"family": "poisson", "N": 5, "t": [1, 2], "tau": [0, 0.2, 1], "delta": 0.02, '
        '"lambda": [0.1, 0.4], "p": 0.5}',
    ],
    ids=["binomial-with-lambda", "poisson-with-p"],
)
def test_simulate_refuses_a_design_file_with_the_other_familys_parameter(capsys, tmp_path, text):
    path = tmp_path / "design.json"
    path.write_text(text)
    code, out, err = run(
        capsys, "simulate", "--design", str(path), "--payload-rounds", "20", "--trials", "2", "--seed", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "the other family's parameter" in err


def test_simulate_design_file_names_the_design_flags_it_would_ignore(capsys, tmp_path):
    path = tmp_path / "design.json"
    path.write_text(
        '{"family": "binomial", "N": 5, "t": [2, 6], "tau": [0, 8, 21], "delta": 0.02, "p": 0.5}'
    )
    base = ["simulate", "--design", str(path), "--payload-rounds", "20", "--trials", "2", "--seed", "1"]
    code, out, err = run(capsys, *base, "--family", "binomial", "--N", "1", "--ell-max", "10")
    assert code == 2 and out == ""
    assert err == "error: --design fixes the design; --family, --N, --ell-max would be ignored\n"
    code, out, _ = run(capsys, *base)
    assert code == 0 and json.loads(out)["trials"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["encode", "--q", "4", "--menu", "1,2", "--T", "40", "--payload-hex", "dead",
             "--delta", "0.02", "--margin", "inf"],
            "--margin",
        ),
        (
            ["simulate", "--p", "0.5", "--delta", "0.02", "--N", "5", "--payload-rounds", "10",
             "--trials", "1", "--seed", "1", "--margin", "inf"],
            "--margin",
        ),
        (
            ["rate-curve", "--family", "binomial", "--sweep", "N", "--values", "1,inf",
             "--p", "0.5", "--delta", "0.02"],
            "error: copy count inf",
        ),
        (
            ["rate-curve", "--family", "binomial", "--sweep", "N", "--values", "2.7",
             "--p", "0.5", "--delta", "0.02"],
            "error: copy count 2.7",
        ),
        (
            ["simulate", "--p", "0.5", "--delta", "0.02", "--N", "5",
             "--payload-rounds", "100000000", "--trials", "1", "--seed", "1"],
            "error: field prime 102353989 is too large",
        ),
        (
            ["rate-curve", "--family", "binomial", "--sweep", "p", "--values", "0.5",
             "--delta", "0.02", "--N", "5", "--q", "2"],
            "error: letter increments need at least q = 3",
        ),
        (
            ["rate-curve", "--family", "poisson", "--sweep", "N", "--values", "1,2,3,4",
             "--delta", "0.05", "--jobs", "2"],
            "--jobs",
        ),
        (
            ["simulate", "--p", "0.5", "--delta", "0.02", "--N", "5", "--payload-rounds", "50",
             "--payload-hex", "abcd", "--T", "40", "--trials", "1", "--seed", "1"],
            "not allowed with argument --payload-rounds",
        ),
        (
            ["simulate", "--p", "0.5", "--delta", "0.02", "--N", "5", "--payload-rounds", "10",
             "--T", "20", "--trials", "1", "--seed", "1"],
            "error: --T and --bits size a --payload-hex payload",
        ),
        (
            ["simulate", "--p", "0.5", "--delta", "0.02", "--N", "5", "--payload-rounds", "10",
             "--bits", "8", "--trials", "1", "--seed", "1"],
            "error: --T and --bits size a --payload-hex payload",
        ),
        (
            ["simulate", "--p", "0.5", "--payload-rounds", "10", "--trials", "1", "--seed", "1"],
            "error: need --delta or --design",
        ),
        (["design", "poisson", "--p", "0.5", "--delta", "0.02"], "error: poisson designs do not read --p"),
        (
            ["design", "binomial", "--p", "0.5", "--delta", "0.02", "--ell-max", "4"],
            "error: binomial designs do not read --ell-max",
        ),
        (
            ["simulate", "--family", "poisson", "--p", "0.5", "--delta", "0.02", "--payload-rounds", "10",
             "--trials", "1", "--seed", "1"],
            "error: poisson designs do not read --p",
        ),
        (
            ["simulate", "--p", "0.5", "--delta", "0.02", "--ell-max", "4", "--payload-rounds", "10",
             "--trials", "1", "--seed", "1"],
            "error: binomial designs do not read --ell-max",
        ),
        (
            ["rate-curve", "--family", "poisson", "--sweep", "delta", "--values", "0.02", "--N", "5",
             "--p", "0.5"],
            "error: poisson designs do not read --p",
        ),
        (
            ["rate-curve", "--family", "binomial", "--sweep", "delta", "--values", "0.02", "--N", "5",
             "--p", "0.5", "--ell-max", "10"],
            "error: binomial designs do not read --ell-max",
        ),
        # int(text, 16) alone would take a 0x prefix, underscores, blanks
        # and non-ASCII digits, and size the payload from the raw string
        (
            ["encode", "--q", "4", "--menu", "1,2", "--T", "40", "--payload-hex", "0xff"],
            "error: --payload-hex '0xff' is not a string of hex digits",
        ),
        (
            ["encode", "--q", "4", "--menu", "1,2", "--T", "40", "--payload-hex", "ab_cd"],
            "error: --payload-hex 'ab_cd' is not a string of hex digits",
        ),
        (
            ["simulate", "--p", "0.5", "--delta", "0.02", "--payload-hex", " ab", "--T", "40",
             "--trials", "1", "--seed", "1"],
            "error: --payload-hex ' ab' is not a string of hex digits",
        ),
        (
            ["simulate", "--p", "0.5", "--delta", "0.02", "--payload-hex", "\u0663", "--T", "40",
             "--trials", "1", "--seed", "1"],
            "is not a string of hex digits",
        ),
        (
            ["rate-curve", "--family", "binomial", "--sweep", "p", "--values", "0.5",
             "--delta", "0.02", "--N", "5", "--p", "0.3"],
            "error: the sweep sets p; a fixed p would be ignored",
        ),
        (
            ["rate-curve", "--family", "binomial", "--sweep", "N", "--values", "5",
             "--N", "3", "--p", "0.5", "--delta", "0.02"],
            "error: the sweep sets N; a fixed N would be ignored",
        ),
        # sized in bits: the count in decimal would pass int's 4300-digit limit
        (
            ["encode", "--q", "4", "--menu", "1,2", "--T", "100", "--payload-hex", "f" * 5000],
            "error: 20000 bits need 2**20000 schedules; duration 100 from 'A' offers fewer than 2**192",
        ),
    ],
    ids=[
        "encode-margin-inf", "simulate-margin-inf", "sweep-N-inf", "sweep-N-fraction",
        "simulate-prime-too-large", "rate-curve-binary-alphabet", "rate-curve-jobs",
        "simulate-rounds-and-hex", "simulate-T-without-hex", "simulate-bits-without-hex",
        "simulate-without-delta", "design-poisson-p", "design-binomial-ell-max",
        "simulate-poisson-p", "simulate-binomial-ell-max", "rate-curve-poisson-p",
        "rate-curve-binomial-ell-max", "encode-hex-0x", "encode-hex-underscore", "simulate-hex-blank",
        "simulate-hex-non-ascii-digit", "rate-curve-sweep-p-fixed-p", "rate-curve-sweep-N-fixed-N",
        "encode-hex-past-4300-digits",
    ],
)
def test_malformed_numeric_inputs_exit_two(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the flag
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


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
