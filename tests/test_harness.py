"""Tests for the statistics helpers and experiment drivers."""
import hashlib
import json
from pathlib import Path

import pytest

from slpn.attacks import AttackResult, make_brute_oracle, make_coin_oracle, witness_oracle
from slpn.harness import (
    ExperimentSpec,
    StatSummary,
    advantage,
    advantage_interval,
    chi_square_stat,
    empirical_tv,
    run_experiment,
    wilson_interval,
)
from slpn.pke import gen
from slpn.reductions import Branch, measure_drop_bit
from slpn.sampling import Rng, gen_symplpn


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


@pytest.mark.parametrize("successes", [5, -1])
def test_wilson_interval_rejects_successes_outside_trials(successes):
    with pytest.raises(ValueError, match=f"successes = {successes} is outside 0..3"):
        wilson_interval(successes, 3)
    with pytest.raises(ValueError, match=f"successes = {successes} is outside 0..3"):
        advantage_interval(successes, 3, 1, 3)


def test_stat_summary_invariant():
    StatSummary(0.5, 0.4, 0.6, 100)
    with pytest.raises(ValueError):
        StatSummary(0.7, 0.4, 0.6, 100)


def test_empirical_tv_identical_and_disjoint():
    assert empirical_tv([1, 2, 3, 1], [1, 2, 3, 1]) == 0.0
    assert empirical_tv([1, 1, 2], [3, 4]) == 1.0


def test_empirical_tv_uniform_vs_subset():
    # uniform on N outcomes vs uniform on a fraction f of them: TV = 1 - f
    n, keep = 40, 10
    full = {i: 1 for i in range(n)}
    sub = {i: 1 for i in range(keep)}
    assert abs(empirical_tv(sub, full) - (1 - keep / n)) < 1e-12


def test_empirical_tv_rejects_huge_space():
    with pytest.raises(ValueError):
        empirical_tv({i: 1 for i in range(1 << 17)}, {0: 1})


def test_chi_square_stat():
    assert chi_square_stat([10, 10, 10, 10]) == 0.0
    assert chi_square_stat([20, 0], [10, 10]) == 20.0
    with pytest.raises(ValueError):
        chi_square_stat([1, 2], [0, 3])


def test_chi_square_stat_rejects_empty_and_mismatched_counts():
    with pytest.raises(ValueError, match="counts are empty"):
        chi_square_stat([])
    with pytest.raises(ValueError, match="2 counts against 1 expected counts"):
        chi_square_stat([1, 2], [1])


def test_advantage_coin_oracle_near_zero():
    rng = Rng(1)
    coin = make_coin_oracle(rng.split(99))
    summary = advantage(
        rng,
        coin,
        lambda r: gen_symplpn(r, 4, 4, 0.1, structured=True),
        lambda r: gen_symplpn(r, 4, 4, 0.1, structured=False),
        trials=500,
    )
    assert summary.estimate < 0.1
    assert summary.ci_lo == 0.0


def test_advantage_witness_oracle_is_one():
    rng = Rng(2)
    summary = advantage(
        rng,
        witness_oracle,
        lambda r: gen_symplpn(r, 3, 3, 0.1, structured=True, keep_witness=True),
        lambda r: gen_symplpn(r, 3, 3, 0.1, structured=False, keep_witness=True),
        trials=200,
    )
    assert summary.estimate == 1.0


def test_advantage_brute_oracle_calibrated():
    rng = Rng(3)
    summary = advantage(
        rng,
        make_brute_oracle(),
        lambda r: gen_symplpn(r, 8, 8, 0.05, structured=True),
        lambda r: gen_symplpn(r, 8, 8, 0.05, structured=False),
        trials=400,
    )
    assert summary.estimate >= 0.5



def test_advantage_interval_is_estimate_plus_minus_mean_wilson_width():
    for say_s, ts, say_u, tu in ((180, 200, 20, 200), (7, 10, 3, 12), (0, 100, 100, 100)):
        lo_s, hi_s = wilson_interval(say_s, ts)
        lo_u, hi_u = wilson_interval(say_u, tu)
        est = abs(say_s / ts - say_u / tu)
        slack = (hi_s - lo_s + hi_u - lo_u) / 2.0
        assert advantage_interval(say_s, ts, say_u, tu) == (
            est,
            max(0.0, est - slack),
            min(1.0, est + slack),
        )


def test_advantage_reports_pinned():
    # both callers of advantage_interval, pinned before they shared it
    rng = Rng(21)
    s = advantage(
        rng,
        make_coin_oracle(rng.split(1)),
        lambda r: gen_symplpn(r, 3, 3, 0.1, structured=True),
        lambda r: gen_symplpn(r, 3, 3, 0.1, structured=False),
        trials=150,
    )
    assert (s.estimate, s.ci_lo, s.ci_hi, s.samples) == (
        0.053333333333333344, 0.0, 0.21064074949005168, 300
    )
    rep = measure_drop_bit(
        Rng(22), make_brute_oracle(weight_threshold=1), n=4, p=0.05,
        branch=Branch.PLAIN, trials=60, m=1,
    )
    assert (rep.advantage, rep.ci_lo, rep.ci_hi) == (
        0.4333333333333334, 0.12770127443760054, 0.7389653922290662
    )
    assert rep.details == {"p_structured": 0.7666666666666667, "p_unstructured": 0.3333333333333333}

def test_advantage_requires_enough_trials():
    rng = Rng(4)
    with pytest.raises(ValueError):
        advantage(rng, witness_oracle, None, None, trials=10)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("x", (), 10, 1, "out.csv")
    with pytest.raises(ValueError):
        ExperimentSpec("x", ({"n": 4},), 0, 1, "out.csv")


def test_decryption_curve(tmp_path):
    out = tmp_path / "curve.csv"
    spec = ExperimentSpec(
        name="decryption_curve",
        grid=({"n": 16, "p": 0.0001}, {"n": 32, "p": "auto:0.8"}),
        trials=300,
        seed=5,
        out=str(out),
        options={"encs_per_key": 3},
    )
    rows = run_experiment(spec)[0]
    assert len(rows) == 2
    assert rows[0]["measured"] == 1.0  # essentially noiseless
    assert abs(rows[1]["measured"] - rows[1]["predicted"]) < 0.08
    assert abs(rows[1]["predicted"] - 0.8) < 1e-6
    assert out.exists()
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert len(manifest["sha256"]) == 64


def test_decryption_curve_csv_roundtrip(tmp_path):
    import csv

    out = tmp_path / "roundtrip.csv"
    spec = ExperimentSpec(
        name="decryption_curve",
        grid=({"n": 16, "p": 0.02},),
        trials=120,
        seed=9,
        out=str(out),
    )
    rows = run_experiment(spec)[0]
    with out.open(newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    for got, want in zip(back, rows):
        assert int(got["n"]) == want["n"]
        assert abs(float(got["measured"]) - want["measured"]) < 1e-12
        assert abs(float(got["predicted"]) - want["predicted"]) < 1e-12


def test_experiment_svg_rendering(tmp_path):
    spec = ExperimentSpec(
        name="decryption_curve",
        grid=({"n": 16, "p": 0.02}, {"n": 16, "p": 0.1}, {"n": 16, "p": 0.2}),
        trials=60,
        seed=10,
        out=str(tmp_path / "c.csv"),
        options={"svg": True},
    )
    rows, ok = run_experiment(spec)
    svg = (tmp_path / "c.csv.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "measured" in svg and "predicted" in svg


def test_encs_per_key_sets_the_keypair_count(tmp_path, monkeypatch):
    import slpn.harness

    calls = []

    def counting_gen(*args):
        calls.append(args[1:])
        return gen(*args)

    monkeypatch.setattr(slpn.harness, "gen", counting_gen)
    spec = ExperimentSpec(
        name="decryption_curve",
        grid=({"n": 16, "p": 0.02},),
        trials=25,
        seed=12,
        out=str(tmp_path / "keys.csv"),
        options={"encs_per_key": 10},
    )
    rows, _ = run_experiment(spec)
    # 10 + 10 + 5 encryptions: the last keypair serves only the trials left
    assert calls == [(16, 0.02)] * 3
    assert rows[0]["trials"] == 25


def test_decryption_curve_reproducible(tmp_path):
    spec_args = dict(
        name="decryption_curve",
        grid=({"n": 16, "p": 0.05},),
        trials=200,
        seed=11,
        options={},
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_experiment(ExperimentSpec(out=str(a), **spec_args))
    run_experiment(ExperimentSpec(out=str(b), **spec_args))
    assert a.read_bytes() == b.read_bytes()


# Pinned at the commit before the grid lost its thread pool: a seed must keep
# giving these exact bytes. `out` is relative so the manifest is path-free.
PINNED_SPECS = {
    "curve": dict(
        name="decryption_curve",
        grid=({"n": 16, "p": 0.05}, {"n": 32, "p": "auto:0.8"}),
        trials=60,
        seed=12,
        out="curve.csv",
        options={"encs_per_key": 3},
    ),
    "isd": dict(
        name="matched_isd",
        grid=({"n": 12, "q": 0.02},),
        trials=3,
        seed=6,
        out="isd.csv",
        options={"max_iters": 20000},
    ),
}
PINNED_SHA256 = {
    "curve": (
        "0f2c96c3256ca3254363a0678560a73d6ba2afa8a91339f5cfe484ce26e3ceb0",
        "dbe9314183376448098be6bcf0b14b47c71d692ab395b7e9f777354f2a675f53",
    ),
    "isd": (
        "eb730cfa78aa39fa254e774769e43dff3732de02eb11aad1a42c296239d66529",
        "13c406b81038976111378c407bc1163cb6cc86bfd0dcbb28263306f62b14e39c",
    ),
}


def output_sha256(out: str) -> tuple[str, str]:
    """sha256 of an experiment's CSV and of its manifest."""
    return tuple(
        hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in (out, out + ".manifest.json")
    )


@pytest.mark.parametrize("key", sorted(PINNED_SPECS))
def test_experiment_outputs_pinned(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    spec = ExperimentSpec(**PINNED_SPECS[key])
    rows, ok = run_experiment(spec)
    assert ok
    assert output_sha256(spec.out) == PINNED_SHA256[key]


def test_matched_isd_benchmark(tmp_path):
    out = tmp_path / "isd.csv"
    spec = ExperimentSpec(
        name="matched_isd",
        grid=({"n": 12, "q": 0.02},),
        trials=6,
        seed=6,
        out=str(out),
        options={"max_iters": 20000},
    )
    rows = run_experiment(spec)[0]
    assert len(rows) == 4  # two problems x two algorithms
    keyed = {(r["problem"], r["algorithm"]): r for r in rows}
    assert keyed[("symplpn", "pair")]["success_rate"] == 1.0
    assert keyed[("lpn", "prange")]["success_rate"] == 1.0
    assert out.exists()


def test_matched_isd_zero_noise_single_iteration(tmp_path):
    out = tmp_path / "isd0.csv"
    spec = ExperimentSpec(
        name="matched_isd",
        grid=({"n": 8, "q": 0.0},),
        trials=9,
        seed=7,
        out=str(out),
        options={"max_iters": 5000},
    )
    rows = run_experiment(spec)[0]
    for row in rows:
        assert row["success_rate"] == 1.0
        # with no noise the first full-rank set wins; each set is full rank
        # with probability around 0.29, so medians stay small
        assert row["median_iterations"] <= 25


def test_run_experiment_dispatch_and_assertions(tmp_path):
    spec = ExperimentSpec(
        name="decryption_curve",
        grid=({"n": 16, "p": 0.0001},),
        trials=100,
        seed=8,
        out=str(tmp_path / "c.csv"),
        options={"max_abs_error": 0.05},
    )
    rows, ok = run_experiment(spec)
    assert ok and rows
    bad = ExperimentSpec(
        name="nope", grid=({"n": 4},), trials=1, seed=1, out=str(tmp_path / "x.csv")
    )
    with pytest.raises(ValueError):
        run_experiment(bad)


def test_pair_at_most_plain_checks_every_point(tmp_path, monkeypatch):
    import slpn.harness as harness

    def fake_attack(iterations_by_k):
        def attack(rng, inst, max_iters):
            return AttackResult(True, None, None, iterations_by_k[inst.matrix.ncols], 0.0)

        return attack

    # pair-aware needs more iterations than prange at the first point only
    monkeypatch.setattr(harness, "prange_isd", fake_attack({8: 4, 9: 4}))
    monkeypatch.setattr(harness, "pair_aware_isd", fake_attack({8: 9, 9: 1}))
    spec = ExperimentSpec(
        name="matched_isd",
        grid=({"n": 8, "q": 0.01}, {"n": 9, "q": 0.01}),
        trials=1,
        seed=2,
        out=str(tmp_path / "isd.csv"),
        options={"pair_at_most_plain": True},
    )
    rows, ok = run_experiment(spec)
    medians = [(r["n"], r["algorithm"], r["median_iterations"]) for r in rows
               if r["problem"] == "symplpn"]
    assert medians == [(8, "pair", 9), (8, "prange", 4), (9, "pair", 1), (9, "prange", 4)]
    assert not ok


@pytest.mark.parametrize("key", sorted(PINNED_SPECS))
def test_spec_from_json_accepts_pinned_specs(key):
    spec = ExperimentSpec(**PINNED_SPECS[key])
    assert ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


def test_failed_run_keeps_finished_rows_and_no_manifest(tmp_path):
    import csv

    out = tmp_path / "partial.csv"
    spec = ExperimentSpec(
        name="decryption_curve",
        grid=({"n": 16, "p": 0.05}, {"n": 16, "p": 2.0}),
        trials=20,
        seed=3,
        out=str(out),
    )
    with pytest.raises(ValueError, match="p out of range"):
        run_experiment(spec)
    with out.open(newline="") as fh:
        back = list(csv.DictReader(fh))
    assert [(r["n"], r["p"], r["trials"]) for r in back] == [("16", "0.05", "20")]
    assert not (tmp_path / "partial.csv.manifest.json").exists()
    # the finished row is the one a complete run writes for that point
    whole = run_experiment(
        ExperimentSpec(name="decryption_curve", grid=spec.grid[:1], trials=20, seed=3,
                       out=str(tmp_path / "whole.csv"))
    )[0]
    assert float(back[0]["measured"]) == whole[0]["measured"]


def _spec_json(**changes):
    obj = {"name": "decryption_curve", "grid": [{"n": 8, "p": 0.01}], "trials": 10,
           "seed": 1, "out": "c.csv", "options": {}}
    obj.update(changes)
    return {k: v for k, v in obj.items() if v is not None}


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"grid": None}, "grid"),
        ({"trials": None, "seed": None}, "trials, seed"),
        ({"grid": [1]}, "grid"),
        ({"grid": {"n": 8}}, "grid"),
        ({"options": [1]}, "options"),
        ({"trials": "a"}, "trials"),
        ({"seed": None}, "seed"),
        ({"out": 5}, "out"),
        ({"options": {"encs_per_key": 0}}, "encs_per_key must be at least 1"),
        ({"options": {"max_abs_error": "0.05"}}, "max_abs_error must be float"),
        ({"trials": 10.0}, "trials must be int"),
        ({"option": {"max_abs_error": 0.05}}, "unknown keys option"),
    ],
    ids=["no-grid", "no-trials-seed", "grid-entry-int", "grid-object", "options-list",
         "trials-str", "no-seed", "out-int", "encs-per-key-0", "tolerance-str",
         "trials-float", "misspelt-options-key"],
)
def test_spec_from_json_rejects_bad_fields(changes, field):
    with pytest.raises(ValueError, match=field):
        ExperimentSpec.from_json(_spec_json(**changes))


def test_spec_from_json_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentSpec.from_json([1, 2])

