import json
import os
import subprocess
import sys

import pytest

from linkdiag.cli import run

from helpers import count_calls

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    with open(fixture(name), encoding="utf-8") as fh:
        return fh.read()


def test_analyze_golden(capsys):
    code, out, _err = run_cli(capsys, ["analyze", fixture("trefoil.knot"), "--json"])
    assert code == 0
    assert out == golden("golden_analyze_trefoil.json")
    obj = json.loads(out)
    r = obj["result"]
    assert r["seifert"] == {"O": 2, "O_plus": 1, "sl": 1}
    assert r["index"]["ind"] == 0
    assert r["bounds"]["pinned"] == 2
    assert r["is_positive"] is True


def test_homfly_golden(capsys):
    code, out, _err = run_cli(capsys, ["homfly", fixture("trefoil.knot"), "--json"])
    assert code == 0
    assert out == golden("golden_homfly_trefoil.json")
    obj = json.loads(out)
    assert obj["result"]["string"] == "-v^4 + 2v^2 + v^2 z^2"


def test_certify_golden(capsys):
    code, out, _err = run_cli(
        capsys,
        [
            "certify",
            fixture("trefoil.knot"),
            "--witness",
            fixture("qp_trefoil.json"),
            "--mode",
            "thm1",
            "--json",
        ],
    )
    assert code == 0
    assert out == golden("golden_certify_trefoil.json")
    assert json.loads(out)["result"]["status"] == "Positive"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", fixture("trefoil.knot"), "--json"],
        ["certify", fixture("trefoil.knot"), "--witness", fixture("qp_trefoil.json"), "--mode", "thm1"],
    ],
    ids=["analyze", "certify"],
)
def test_one_seifert_analysis_per_request(monkeypatch, capsys, argv):
    import linkdiag.seifert

    calls = count_calls(monkeypatch, linkdiag.seifert.seifert_analysis)
    code, _out, _err = run_cli(capsys, argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command, braid, expected",
    [
        (["analyze"], "braid n=2: 1 1 1", 2),
        (["certify", "--witness", fixture("qp_trefoil.json"), "--mode", "thm1"], "braid n=2: 1 1 1", 3),
        (["braidize"], "braid n=2: 1 1 1", 2),
        (["reduce", "--crossing", "3"], "braid n=3: 1 1 1 2", 4),
    ],
    ids=["analyze", "certify", "braidize", "reduce"],
)
def test_check_valid_calls_per_request(tmp_path, monkeypatch, capsys, command, braid, expected):
    # A closure is valid by construction, and a Seifert analysis validates
    # its diagram itself, so neither is checked again by its caller.
    import linkdiag.diagram

    path = tmp_path / "k.braid"
    path.write_text(braid + "\n")
    calls = count_calls(monkeypatch, linkdiag.diagram.check_valid)
    code, _out, _err = run_cli(capsys, command[:1] + [str(path)] + command[1:])
    assert code == 0
    assert len(calls) == expected


def test_json_output_is_deterministic(capsys):
    _c1, out1, _ = run_cli(capsys, ["analyze", fixture("trefoil.knot"), "--json"])
    _c2, out2, _ = run_cli(capsys, ["analyze", fixture("trefoil.knot"), "--json"])
    assert out1 == out2


def test_braidize_round_trip(capsys):
    code, out, _err = run_cli(capsys, ["braidize", fixture("trefoil.knot"), "--json"])
    assert code == 0
    r = json.loads(out)["result"]
    assert r["strands"] == 2 and r["letters"] == [1, 1, 1]


def test_braidize_above_crossing_cap_is_exact(tmp_path, capsys):
    # T(3,9) has 18 crossings; braidize has no cap, but accepts the flag.
    path = tmp_path / "t39.braid"
    path.write_text("braid n=3: " + " ".join(["1 2"] * 9) + "\n")
    code, out, err = run_cli(capsys, ["braidize", str(path), "--max-crossings", "16", "--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["warnings"] == []
    assert report["result"]["strands"] == 3 and len(report["result"]["letters"]) == 18


def test_reduce_command(tmp_path, capsys):
    path = tmp_path / "kink.braid"
    path.write_text("braid n=2: 1\n")
    code, out, _err = run_cli(capsys, ["reduce", str(path), "--crossing", "0", "--json"])
    assert code == 0
    r = json.loads(out)["result"]
    assert r["arcs"] == 0 and r["loops"] == 1


def test_selftest(capsys):
    code, out, _err = run_cli(capsys, ["selftest", "--json"])
    assert code == 0
    r = json.loads(out)["result"]
    assert r["ok"] is True and r["passed"] == r["checks"]


def test_exit_code_input_error(tmp_path, capsys):
    path = tmp_path / "bad.knot"
    path.write_text("arcs:x loops:0\n")
    code, _out, err = run_cli(capsys, ["analyze", str(path), "--json"])
    assert code == 2
    assert "error:" in err


def test_huge_declared_arc_count_is_one_error(tmp_path, capsys):
    # The per-arc checks must not run over a declared count with no
    # crossings behind it.
    path = tmp_path / "huge.knot"
    path.write_text("arcs:99999999999 loops:0")
    code, out, err = run_cli(capsys, ["analyze", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: arc-count") and err.count("\n") == 1


def test_exit_code_missing_file(capsys):
    code, _out, err = run_cli(capsys, ["analyze", "/nonexistent/f.knot"])
    assert code == 2


def test_exit_code_size_limit(tmp_path, capsys):
    path = tmp_path / "big.braid"
    path.write_text("braid n=2: " + " ".join(["1"] * 20) + "\n")
    code, _out, err = run_cli(capsys, ["homfly", str(path), "--json"])
    assert code == 3


def test_free_loops_over_cap_exit_3(tmp_path, capsys):
    # One crossing and 99,997 free loops: a leaf of that many components
    # would raise delta to that power, so the loops count against the cap.
    path = tmp_path / "loops.braid"
    path.write_text("braid n=99999: 1\n")
    code, out, err = run_cli(capsys, ["homfly", str(path), "--json"])
    assert code == 3 and out == ""
    assert err == "error: 99997 free loops exceeds HOMFLY cap 16\n"


def test_deep_skein_under_a_raised_cap(tmp_path, capsys):
    # T(2, 1000) takes the skein about a thousand levels deep, past
    # Python's recursion limit; the explicit stack evaluates it.
    path = tmp_path / "t1000.braid"
    path.write_text("braid n=2: " + "1 " * 1000 + "\n")
    code, out, err = run_cli(capsys, ["analyze", str(path), "--json", "--max-crossings", "5000"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["result"]["bounds"]["lower_mfw"] == 2
    assert report["warnings"] == []


def test_analyze_warns_on_free_loops_over_cap(tmp_path, capsys):
    path = tmp_path / "loops.braid"
    path.write_text("braid n=6: 1\n")
    code, out, _err = run_cli(capsys, ["analyze", str(path), "--json", "--max-crossings", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["warnings"] == ["4 free loops exceeds HOMFLY cap 2"]
    assert "bounds" not in report["result"]


def test_non_planar_input_exit_2(tmp_path, capsys):
    path = tmp_path / "virtual.knot"
    path.write_text(
        "arcs:4 loops:0\n"
        "X+ u_in:3 o_in:2 u_out:0 o_out:1\n"
        "X- u_in:1 o_in:0 u_out:2 o_out:3\n"
    )
    for command in ("analyze", "homfly", "braidize"):
        code, out, err = run_cli(capsys, [command, str(path), "--json"])
        assert code == 2 and out == ""
        assert err.startswith("error: non-planar") and err.count("\n") == 1


def test_exit_code_witness_mismatch(tmp_path, capsys):
    path = tmp_path / "fig8.braid"
    path.write_text("braid n=3: 1 -2 1 -2\n")
    code, _out, err = run_cli(
        capsys,
        [
            "certify",
            str(path),
            "--witness",
            fixture("qp_trefoil.json"),
            "--mode",
            "thm1",
            "--json",
        ],
    )
    assert code == 4


def test_human_output_smoke(capsys):
    code, out, _err = run_cli(capsys, ["analyze", fixture("trefoil.knot")])
    assert code == 0
    assert out.startswith("analyze:")
    assert "sl: 1" in out


def test_pd_and_braid_autodetect(tmp_path, capsys):
    pd = tmp_path / "t.pd"
    pd.write_text("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n")
    code, out, _err = run_cli(capsys, ["analyze", str(pd), "--json"])
    assert code == 0
    assert json.loads(out)["result"]["counts"]["c_plus"] == 3


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "linkdiag.cli", "homfly", fixture("trefoil.knot"), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "homfly"


@pytest.mark.parametrize("crossing", ["99", "-1"])
def test_reduce_crossing_out_of_range(capsys, crossing):
    code, out, err = run_cli(
        capsys, ["reduce", fixture("trefoil.knot"), "--crossing", crossing, "--json"]
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["thm1", "thm4", "cor_mp"])
def test_certify_size_limited_index(capsys, mode):
    # One Seifert-graph vertex allowed: the trefoil's two circles exceed it,
    # so no index is computed.  Modes that need the index stop with exit 3;
    # thm1 still certifies, but cannot record the gap row.
    argv = [
        "certify",
        fixture("trefoil.knot"),
        "--witness",
        fixture("qp_trefoil.json"),
        "--mode",
        mode,
        "--max-vertices",
        "1",
        "--json",
    ]
    code, out, err = run_cli(capsys, argv)
    if mode == "thm1":
        assert code == 0
        r = json.loads(out)["result"]
        assert r["status"] == "Positive"
        names = [h["name"] for h in r["hypothesis_trace"]]
        assert "SL=sl(D)" in names
        assert not any(name.startswith("gap") for name in names)
    else:
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("factors", ['"x"', "[1]", '[{"conj": [1e400], "gen": 1}]'])
def test_certify_bad_witness_factors(tmp_path, capsys, factors):
    witness = tmp_path / "w.json"
    witness.write_text('{"strands": 2, "factors": %s}' % factors)
    argv = ["certify", fixture("trefoil.knot"), "--witness", str(witness), "--mode", "thm1", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: bad witness JSON")


@pytest.mark.parametrize("arcs", ["1e400", "Infinity"])
def test_json_diagram_overflow_is_one_error(tmp_path, capsys, arcs):
    path = tmp_path / "huge.json"
    path.write_text('{"arcs": %s, "crossings": []}' % arcs)
    code, out, err = run_cli(capsys, ["analyze", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_witness_strands_overflow_is_one_error(tmp_path, capsys):
    witness = tmp_path / "w.json"
    witness.write_text('{"strands": 1e400, "factors": []}')
    argv = ["certify", fixture("trefoil.knot"), "--witness", str(witness), "--mode", "thm1", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _certify_at_cap(tmp_path, capsys, factors, cap):
    braid = tmp_path / "t.braid"
    braid.write_text("braid n=2: 1 1 1\n")
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"strands": 2, "factors": factors}))
    argv = ["certify", str(braid), "--witness", str(witness), "--mode", "thm4", "--json"]
    code, out, _err = run_cli(capsys, argv + ["--max-crossings", str(cap)])
    assert code == 0
    report = json.loads(out)
    verified = [h["value"] for h in report["result"]["hypothesis_trace"] if h["name"] == "witness-verified"]
    return verified, report["result"]["status"], report["warnings"]


def test_certify_own_closure_verified_at_any_cap(tmp_path, capsys):
    # The input is the witness's closure, so nothing needs evaluating.
    factors = [{"conj": [], "gen": 1}] * 3
    assert _certify_at_cap(tmp_path, capsys, factors, -1) == ([True], "Positive", [])


def test_certify_unverified_witness_warns(tmp_path, capsys):
    # sigma_1 conjugated by itself: the trefoil on another diagram.
    factors = [{"conj": [1], "gen": 1}] + [{"conj": [], "gen": 1}] * 2
    caveat = "witness not verified: crossing cap exceeded"
    assert _certify_at_cap(tmp_path, capsys, factors, -1) == ([False], "Positive", [caveat])
    assert _certify_at_cap(tmp_path, capsys, factors, 16) == ([True], "Positive", [])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", fixture("trefoil.knot"), "--bogus"],
        ["analyze", fixture("trefoil.knot"), "--max-crossings", "abc"],
        ["certify", fixture("trefoil.knot"), "--mode", "thm1"],
        ["certify", fixture("trefoil.knot"), "--witness", fixture("qp_trefoil.json"), "--mode", "thm9"],
        [],
    ],
    ids=["unknown-flag", "bad-int", "missing-witness", "bad-choice", "no-command"],
)
def test_bad_flag_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_huge_strand_and_loop_counts_cost_no_memory(tmp_path, capsys):
    # Free loops and strands no letter touches are counted, never stored.
    import tracemalloc

    n = 10**6
    loops = tmp_path / "loops.json"
    loops.write_text(json.dumps({"arcs": 0, "loops": n, "crossings": []}))
    braid = tmp_path / "wide.braid"
    braid.write_text(f"braid n={n}: 1\n")
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"strands": n, "factors": []}))
    reducible = tmp_path / "reducible.braid"
    reducible.write_text(f"braid n={n}: 1 1 1 2\n")
    cases = [
        (["analyze", str(loops), "--json"], 0),
        (["analyze", str(braid), "--json"], 0),
        (["certify", fixture("trefoil.knot"), "--witness", str(witness), "--mode", "thm1"], 4),
        # The bridge check finds the Seifert-graph blocks before HOMFLY
        # refuses the free loops.
        (["reduce", str(reducible), "--crossing", "3"], 3),
    ]
    for argv, expected in cases:
        tracemalloc.start()
        try:
            code, _out, _err = run_cli(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == expected
        assert peak < 10 * 2**20, (argv[0], peak)
