"""End-to-end tests of the command-line interface."""
import json
from xml.etree import ElementTree

import pytest

from slpn.cli import main
from slpn.sampling import Instance


def run(argv):
    return main(argv)


def test_sample_writes_instance(tmp_path):
    out = tmp_path / "inst.json"
    rc = run(
        [
            "sample", "--kind", "symplpn", "--n", "8", "--k", "8", "--p", "0.05",
            "--structured", "--keep-witness", "--seed", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    inst = Instance.from_json(json.loads(out.read_text()))
    assert inst.n == 8 and inst.k == 8
    assert inst.witness is not None and inst.witness.structured


def test_keygen_encrypt_decrypt_roundtrip(tmp_path, capsys):
    pk = tmp_path / "pk.json"
    sk = tmp_path / "sk.json"
    ct = tmp_path / "ct.json"
    assert run(["keygen", "--n", "32", "--p", "0.001", "--seed", "1",
                "--pk", str(pk), "--sk", str(sk)]) == 0
    assert run(["encrypt", "--pk", str(pk), "--bit", "1", "--seed", "2",
                "--out", str(ct)]) == 0
    assert run(["decrypt", "--sk", str(sk), "--ct", str(ct)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_keygen_auto_p(tmp_path):
    pk = tmp_path / "pk.json"
    sk = tmp_path / "sk.json"
    assert run(["keygen", "--n", "64", "--p", "auto:0.75", "--seed", "3",
                "--pk", str(pk), "--sk", str(sk)]) == 0
    obj = json.loads(pk.read_text())
    from slpn.pke import pick_p_for_success

    assert abs(obj["p"] - pick_p_for_success(64, 0.75)) < 1e-12


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decrypt", "--sk", "f.json", "--ct", "f.json"],
         "slpn decrypt: secret key must be a JSON object, got list"),
        (["keygen", "--n", "8", "--p", "2.0"], "slpn keygen: p = '2.0': p out of range"),
        (["owf", "gen", "--p", "7"], "slpn owf: p out of range"),
        (["reduce", "lsn-to-symplpn", "--n", "4", "--k", "0", "--p", "0.1"],
         "slpn reduce: k must be at least 1, got 0"),
        (["reduce", "drop-bit", "--n", "4", "--p", "0.05", "--trials", "1"],
         "slpn reduce: trials must be at least 2, got 1"),
        (["reduce", "drop-bit", "--n", "4", "--p", "0.05", "--m", "100", "--trials", "4"],
         "slpn reduce: flood count m = 100 is outside 1..3 at n = 4"),
        (["reduce", "drop-bit", "--n", "4", "--p", "0.75", "--trials", "2"],
         "slpn reduce: the drop-bit reduction needs p < 3/4, got p = 0.75"),
        (["encrypt", "--pk", "missing.json", "--bit", "1"],
         "slpn encrypt: [Errno 2] No such file or directory: 'missing.json'"),
        (["attack", "prange", "--in", "missing.json"],
         "slpn attack: [Errno 2] No such file or directory: 'missing.json'"),
        (["experiment", "--spec", "missing.json"],
         "slpn experiment: [Errno 2] No such file or directory: 'missing.json'"),
        (["plot", "--csv", "missing.csv", "--x", "p", "--y", "measured", "--out", "o.svg"],
         "slpn plot: [Errno 2] No such file or directory: 'missing.csv'"),
        (["plot", "--csv", "short.csv", "--x", "p", "--y", "measured", "--out", "o.svg"],
         "slpn plot: row 2 has no value in column 'measured'"),
    ],
    ids=["decrypt-list-file", "keygen-p-2", "owf-gen-p-7", "reduce-lsn-k-0",
         "reduce-drop-bit-trials-1", "reduce-drop-bit-m-100", "reduce-drop-bit-p-0.75",
         "encrypt-missing-pk", "attack-missing-instance", "experiment-missing-spec",
         "plot-missing-csv", "plot-short-row"],
)
def test_bad_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text("[1]")
    (tmp_path / "short.csv").write_text("p,measured\n0.1,0.9\n0.2\n")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message
    assert sorted(f.name for f in tmp_path.iterdir()) == ["f.json", "short.csv"]


@pytest.mark.parametrize(
    "x, y, missing",
    [("p", "measured,nope", "nope"), ("q", "measured", "q")],
    ids=["unknown-y", "unknown-x"],
)
def test_plot_unknown_column_exits_2(tmp_path, monkeypatch, capsys, x, y, missing):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text("p,measured\n0.1,0.9\n0.2,0.8\n")
    assert run(["plot", "--csv", "c.csv", "--x", x, "--y", y, "--out", "o.svg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"slpn plot: no column {missing!r} among p, measured"
    assert not (tmp_path / "o.svg").exists()


def _polylines(path) -> list:
    root = ElementTree.parse(path).getroot()
    return root.findall("{http://www.w3.org/2000/svg}polyline")


def test_experiment_svg_and_plot_draw_one_line_per_column_and_series(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "decryption_curve",
        "grid": [{"n": 8, "p": 0.02}, {"n": 8, "p": 0.1}, {"n": 12, "p": 0.02}, {"n": 12, "p": 0.1}],
        "trials": 10,
        "seed": 3,
        "out": str(tmp_path / "curve.csv"),
        "options": {"svg": True},
    }))
    assert run(["experiment", "--spec", str(spec)]) == 0
    # the experiment draws predicted and measured against p, as one series
    lines = _polylines(tmp_path / "curve.csv.svg")
    assert len(lines) == 2
    assert all(len(line.get("points").split()) == 4 for line in lines)
    out = tmp_path / "by_n.svg"
    assert run(["plot", "--csv", str(tmp_path / "curve.csv"), "--x", "p",
                "--y", "predicted,measured", "--series", "n", "--out", str(out)]) == 0
    # one line per y column and value of n, each through that n's two points
    lines = _polylines(out)
    assert len(lines) == 4
    assert all(len(line.get("points").split()) == 2 for line in lines)
    labels = [t.text for t in ElementTree.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert {"12 predicted", "12 measured", "8 predicted", "8 measured"} <= set(labels)


def test_su_roundtrip(tmp_path, capsys):
    pk = tmp_path / "pk.json"
    sk = tmp_path / "sk.json"
    ct = tmp_path / "ct.json"
    assert run(["su-keygen", "--n", "16", "--p", "0.001", "--seed", "4",
                "--pk", str(pk), "--sk", str(sk)]) == 0
    obj = json.loads(pk.read_text())
    assert len(obj["seed_hex"]) * 4 == 4 * 16 * 16
    assert run(["su-encrypt", "--pk", str(pk), "--bit", "0", "--seed", "5",
                "--out", str(ct)]) == 0
    assert run(["su-decrypt", "--sk", str(sk), "--ct", str(ct)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_owf_flow(tmp_path, capsys):
    idx = tmp_path / "idx.json"
    inp = tmp_path / "inp.json"
    img = tmp_path / "img.json"
    assert run(["owf", "gen", "--n", "6", "--k", "2", "--p", "0.1",
                "--seed", "6", "--out", str(idx)]) == 0
    assert run(["owf", "sample", "--index", str(idx), "--seed", "7",
                "--out", str(inp)]) == 0
    assert run(["owf", "eval", "--index", str(idx), "--input", str(inp),
                "--out", str(img)]) == 0
    assert run(["owf", "verify", "--index", str(idx), "--input", str(inp),
                "--image", str(img)]) == 0
    assert capsys.readouterr().out.strip().endswith("ok")
    # a corrupted image fails verification with a nonzero exit code
    obj = json.loads(img.read_text())
    flipped = int(obj["hex"][0], 16) ^ 1
    obj["hex"] = format(flipped, "x") + obj["hex"][1:]
    img.write_text(json.dumps(obj))
    assert run(["owf", "verify", "--index", str(idx), "--input", str(inp),
                "--image", str(img)]) == 1


def test_reduce_lsn(capsys):
    rc = run(["reduce", "lsn-to-symplpn", "--oracle", "brute", "--n", "4",
              "--k", "1", "--p", "0.1", "--trials", "100", "--seed", "8"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 100
    assert 0 <= report["successes"] <= 100


def test_reduce_drop_bit_both(capsys):
    rc = run(["reduce", "drop-bit", "--oracle", "brute", "--n", "4",
              "--p", "0.05", "--trials", "60", "--m", "1", "--seed", "9",
              "--branch", "both"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["reports"]) == 2
    assert out["selected"] in ("plain", "flooded")


def test_attack_cli(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    run(["sample", "--kind", "symplpn", "--n", "12", "--k", "12", "--p", "0.05",
         "--structured", "--seed", "10", "--out", str(inst_file)])
    capsys.readouterr()
    keys = {}
    for algorithm, seed in (("prange", "11"), ("pair-isd", "12"), ("brute", "13")):
        rc = run(["attack", algorithm, "--in", str(inst_file), "--max-iters", "20000",
                  "--seed", seed, "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["success"] is True
        keys[algorithm] = sorted(out)
    # every attack prints one result shape
    assert keys["brute"] == keys["prange"] == keys["pair-isd"]
    assert "wall_time" in keys["brute"]


@pytest.mark.parametrize("algorithm", ["prange", "pair-isd"])
def test_attack_negative_max_iters_exits_2_without_traceback(tmp_path, capsys, algorithm):
    # the bad-input table's file is not an instance, so this row has its own
    inst_file = tmp_path / "inst.json"
    run(["sample", "--kind", "symplpn", "--n", "8", "--k", "8", "--p", "0.05",
         "--structured", "--seed", "10", "--out", str(inst_file)])
    capsys.readouterr()
    assert run(["attack", algorithm, "--in", str(inst_file), "--max-iters", "-5", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "slpn attack: max_iters = -5 is negative"


# Pinned at the commit before `attack` lost its worker fan-out, re-pinned when
# depolarizing noise came to take one uniform per pair; wall_time is
# the only field a seed does not fix.
PINNED_ATTACKS = {
    ("prange", "11"): {"success": True, "iterations": 2, "secret": "4d4d89fa",
                       "error": "0000000200000010"},
    ("pair-isd", "12"): {"success": True, "iterations": 5, "secret": "4d4d89fa",
                         "error": "0000000200000010"},
}


def _attack_json(tmp_path, capsys, algorithm, seed):
    inst_file = tmp_path / "pinned.json"
    run(["sample", "--kind", "symplpn", "--n", "32", "--k", "32", "--p", "0.08",
         "--structured", "--seed", "23", "--out", str(inst_file)])
    capsys.readouterr()
    rc = run(["attack", algorithm, "--in", str(inst_file), "--max-iters", "20000",
              "--seed", seed, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    return {
        "success": out["success"],
        "iterations": out["iterations"],
        "secret": out["secret"]["hex"],
        "error": out["error"]["hex"],
    }


@pytest.mark.parametrize("algorithm, seed", sorted(PINNED_ATTACKS))
def test_attack_json_pinned(tmp_path, capsys, algorithm, seed):
    assert _attack_json(tmp_path, capsys, algorithm, seed) == PINNED_ATTACKS[algorithm, seed]


def test_experiment_cli(tmp_path, capsys):
    spec = {
        "name": "decryption_curve",
        "grid": [{"n": 16, "p": 0.0001}],
        "trials": 50,
        "seed": 14,
        "out": str(tmp_path / "curve.csv"),
        "options": {"max_abs_error": 0.05},
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert run(["experiment", "--spec", str(spec_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["assertions_ok"] is True
    # a hopeless tolerance makes the run exit nonzero
    spec["options"] = {"max_abs_error": 1e-9}
    spec["grid"] = [{"n": 16, "p": 0.3}]
    spec_file.write_text(json.dumps(spec))
    assert run(["experiment", "--spec", str(spec_file)]) == 1


def test_bad_thread_env_spares_commands_without_threads(tmp_path, monkeypatch, capsys):
    # slpn runs on one thread and reads no thread-count variable
    from test_harness import PINNED_SHA256, PINNED_SPECS, output_sha256

    monkeypatch.setenv("SLPN_THREADS", "abc")
    assert run(["keygen", "--n", "8", "--p", "0.01", "--seed", "1",
                "--pk", str(tmp_path / "pk.json"), "--sk", str(tmp_path / "sk.json")]) == 0
    for (algorithm, seed), pinned in PINNED_ATTACKS.items():
        assert _attack_json(tmp_path, capsys, algorithm, seed) == pinned
    monkeypatch.chdir(tmp_path)
    spec = dict(PINNED_SPECS["curve"], grid=list(PINNED_SPECS["curve"]["grid"]))
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run(["experiment", "--spec", "spec.json"]) == 0
    assert output_sha256(spec["out"]) == PINNED_SHA256["curve"]


def test_attack_threads_flag_is_gone(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    run(["sample", "--kind", "lpn", "--n", "16", "--k", "4", "--p", "0.05",
         "--structured", "--seed", "10", "--out", str(inst_file)])
    with pytest.raises(SystemExit) as exc:
        run(["attack", "prange", "--in", str(inst_file), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


CURVE_SPEC = {"name": "decryption_curve", "grid": [{"n": 8, "p": 0.01}], "trials": 10,
              "seed": 1, "out": "c.csv"}
ISD_SPEC = {"name": "matched_isd", "grid": [{"n": 8, "q": 0.01}], "trials": 1, "seed": 1,
            "out": "c.csv"}


def _curve_second_point(**point):
    # a good first point, so a check made only while running would leave its row
    return dict(CURVE_SPEC, grid=CURVE_SPEC["grid"] + [point])


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"name": "decryption_curve", "trials": 10, "seed": 1, "out": "c.csv"}, "grid"),
        ({"name": "decryption_curve", "grid": [1], "trials": 10, "seed": 1, "out": "c.csv"},
         "grid"),
        ({"name": "decryption_curve", "grid": [{"n": 8, "p": 0.01}], "trials": 10, "seed": 1,
          "out": "c.csv", "options": [1]}, "options"),
        ({"name": "decryption_curve", "grid": [{"n": 8, "p": 0.01}], "trials": "a", "seed": 1,
          "out": "c.csv"}, "trials"),
        (dict(CURVE_SPEC, name="decryption_curv"), "name 'decryption_curv'"),
        (dict(CURVE_SPEC, options={"max_abs_eror": 0.05}), "max_abs_eror"),
        (_curve_second_point(n=8), "grid[1] is missing p"),
        (_curve_second_point(n=8, p=2.0), "grid[1]: p = 2.0"),
        (_curve_second_point(n=8, p="auto:1.5"), "grid[1]: p = 'auto:1.5'"),
        (dict(ISD_SPEC, grid=[{"n": 8, "q": 0.9}]), "q out of range"),
        (_curve_second_point(n=0, p=0.01), "n must be at least 1"),
        (dict(ISD_SPEC, grid=[{"n": 8, "q": 0.01, "max_iters": 5}]), "max_iters"),
    ],
    ids=["no-grid", "grid-entry-int", "options-list", "trials-str", "unknown-name",
         "misspelt-option", "point-without-p", "p-2", "p-auto-1.5", "q-0.9", "n-0",
         "point-max-iters"],
)
def test_experiment_bad_spec_exits_2(tmp_path, monkeypatch, capsys, spec, field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run(["experiment", "--spec", "spec.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err
    assert not (tmp_path / "c.csv").exists()
    assert not (tmp_path / "c.csv.manifest.json").exists()
