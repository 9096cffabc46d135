"""End-to-end tests of the command-line interface."""
import json

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
    rc = run(["attack", "prange", "--in", str(inst_file), "--max-iters", "20000",
              "--seed", "11", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["success"] is True
    rc = run(["attack", "pair-isd", "--in", str(inst_file), "--max-iters", "20000",
              "--threads", "2", "--seed", "12", "--json"])
    assert rc == 0
    rc = run(["attack", "brute", "--in", str(inst_file), "--seed", "13", "--json"])
    assert rc == 0


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


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


def test_bad_thread_env_spares_commands_without_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SLPN_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        run(["keygen", "--help"])
    assert exc.value.code == 0
    assert run(["keygen", "--n", "8", "--p", "0.01", "--seed", "1",
                "--pk", str(tmp_path / "pk.json"), "--sk", str(tmp_path / "sk.json")]) == 0


@pytest.mark.parametrize(
    "env, flag, source",
    [("abc", None, "SLPN_THREADS"), ("0", None, "SLPN_THREADS"),
     ("1", "0", "--threads"), (None, "two", "--threads")],
)
def test_bad_thread_count_rejected_before_any_thread(tmp_path, monkeypatch, capsys, env, flag, source):
    import slpn.cli
    import slpn.harness

    monkeypatch.setattr(slpn.cli, "ThreadPoolExecutor", _no_pool)
    monkeypatch.setattr(slpn.harness, "ThreadPoolExecutor", _no_pool)
    if env is None:
        monkeypatch.delenv("SLPN_THREADS", raising=False)
    else:
        monkeypatch.setenv("SLPN_THREADS", env)
    inst_file = tmp_path / "inst.json"
    run(["sample", "--kind", "lpn", "--n", "16", "--k", "4", "--p", "0.05",
         "--structured", "--seed", "10", "--out", str(inst_file)])
    argv = ["attack", "prange", "--in", str(inst_file), "--max-iters", "50"]
    if flag is not None:
        argv += ["--threads", flag]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert source in err and "integer >= 1" in err
    if flag is None:
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "name": "decryption_curve", "grid": [{"n": 8, "p": 0.01}], "trials": 10,
            "seed": 1, "out": str(tmp_path / "c.csv"), "options": {},
        }))
        with pytest.raises(SystemExit) as exc:
            run(["experiment", "--spec", str(spec_file)])
        assert exc.value.code == 2
        assert source in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()
