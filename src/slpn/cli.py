"""Umbrella command-line interface.

Subcommands cover instance sampling, the plain and seed-keyed encryption
schemes, the one-way-function family, reduction drivers, attacks, and the
experiment runner. All randomness is seeded; JSON files are the only state.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .attacks import (
    AttackResult,
    brute_force_search,
    make_brute_oracle,
    make_coin_oracle,
    pair_aware_isd,
    prange_isd,
)
from .gf2 import BitVec
from .harness import ExperimentSpec, run_experiment
from .owf import OwfIndex, OwfInput, owf_eval, owf_gen, owf_sample, owf_verify_preimage
from .pke import Ciphertext, PublicKey, SecretKey, dec, enc, gen, parse_p
from .plot import render_csv
from .reductions import (
    Branch,
    interpolation_select,
    measure_drop_bit,
    measure_lsn_reduction,
)
from .sampling import Instance, InstanceKind, Rng, gen_lpn, gen_lsn, gen_symplpn
from .supke import SuPublicKey, su_dec, su_enc, su_gen


def _write_json(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _cmd_sample(args) -> int:
    rng = Rng(args.seed)
    kind = InstanceKind(args.kind)
    if kind is InstanceKind.SYMPLPN:
        inst = gen_symplpn(rng, args.k, args.n, args.p, args.structured, args.keep_witness)
    elif kind is InstanceKind.LSN:
        inst = gen_lsn(rng, args.k, args.n, args.p, args.keep_witness)
    else:
        inst = gen_lpn(rng, args.k, args.n, args.p, args.structured, args.keep_witness)
    _write_json(args.out, inst.to_json())
    return 0


def _cmd_keygen(args) -> int:
    rng = Rng(args.seed)
    p = parse_p(args.p, args.n)
    pk, sk = args.gen(rng, args.n, p)
    _write_json(args.pk, pk.to_json())
    _write_json(args.sk, sk.to_json())
    return 0


def _cmd_encrypt(args) -> int:
    pk = args.key.from_json(_read_json(args.pk))
    ct = args.enc(Rng(args.seed), pk, args.bit)
    _write_json(args.out, ct.to_json())
    return 0


def _cmd_decrypt(args) -> int:
    sk = SecretKey.from_json(_read_json(args.sk))
    ct = Ciphertext.from_json(_read_json(args.ct))
    print(args.dec(sk, ct))
    return 0


def _cmd_owf(args) -> int:
    if args.action == "gen":
        idx = owf_gen(Rng(args.seed), args.k, args.n, args.p)
        _write_json(args.out, idx.to_json())
        return 0
    index = OwfIndex.from_json(_read_json(args.index))
    if args.action == "sample":
        x = owf_sample(Rng(args.seed), index)
        _write_json(args.out, x.to_json())
        return 0
    x = OwfInput.from_json(_read_json(args.input))
    if args.action == "eval":
        _write_json(args.out, owf_eval(index, x).to_json())
        return 0
    image = BitVec.from_json(_read_json(args.image))
    verified = owf_verify_preimage(index, x, image)
    print("ok" if verified else "fail")
    return 0 if verified else 1


def _make_oracle(name: str, rng: Rng):
    if name == "brute":
        return make_brute_oracle()
    if name == "coin":
        return make_coin_oracle(rng)
    raise ValueError(f"unknown oracle {name!r}")


def _cmd_reduce(args) -> int:
    rng = Rng(args.seed)
    oracle = _make_oracle(args.oracle, rng.split(1))
    if args.action == "lsn-to-symplpn":
        report = measure_lsn_reduction(rng, oracle, args.k, args.n, args.p, args.trials)
        print(json.dumps(report.to_json(), indent=2))
        return 0
    branches = {
        "plain": [Branch.PLAIN],
        "flooded": [Branch.FLOODED],
        "both": [Branch.PLAIN, Branch.FLOODED],
    }[args.branch]
    reports = [
        measure_drop_bit(rng.split(i), oracle, args.n, args.p, br, args.trials, args.m)
        for i, br in enumerate(branches)
    ]
    out = {"reports": [r.to_json() for r in reports]}
    if len(reports) == 2:
        out["selected"] = interpolation_select(reports[0], reports[1]).value
    print(json.dumps(out, indent=2))
    return 0


def _cmd_attack(args) -> int:
    inst = Instance.from_json(_read_json(args.infile))
    rng = Rng(args.seed)
    if args.algorithm == "brute":
        start = time.perf_counter()
        x, e = brute_force_search(inst)
        result = AttackResult(True, x, e, 1 << inst.matrix.ncols, time.perf_counter() - start)
    else:
        attack = prange_isd if args.algorithm == "prange" else pair_aware_isd
        result = attack(rng.split(0), inst, args.max_iters)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print("success" if result.success else "failure")
    return 0 if result.success else 1


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec.from_json(_read_json(args.spec))
    rows, ok = run_experiment(spec)
    print(json.dumps({"rows": len(rows), "out": spec.out, "assertions_ok": ok}))
    return 0 if ok else 1


def _cmd_plot(args) -> int:
    render_csv(args.csv, args.x, args.y.split(","), args.out, series=args.series)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slpn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate a decision/search instance")
    p.add_argument("--kind", choices=[k.value for k in InstanceKind], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--structured", action="store_true")
    p.add_argument("--keep-witness", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sample)

    for name, keygen in (("keygen", gen), ("su-keygen", su_gen)):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=512)
        p.add_argument("--p", default="auto:0.75")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--pk", default="pk.json")
        p.add_argument("--sk", default="sk.json")
        p.set_defaults(fn=_cmd_keygen, gen=keygen)

    for name, encrypt, key in (("encrypt", enc, PublicKey), ("su-encrypt", su_enc, SuPublicKey)):
        p = sub.add_parser(name)
        p.add_argument("--pk", required=True)
        p.add_argument("--bit", type=int, choices=[0, 1], required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="ct.json")
        p.set_defaults(fn=_cmd_encrypt, enc=encrypt, key=key)

    for name, decrypt in (("decrypt", dec), ("su-decrypt", su_dec)):
        p = sub.add_parser(name)
        p.add_argument("--sk", required=True)
        p.add_argument("--ct", required=True)
        p.set_defaults(fn=_cmd_decrypt, dec=decrypt)

    p = sub.add_parser("owf", help="one-way-function family")
    p.add_argument("action", choices=["gen", "sample", "eval", "verify"])
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index")
    p.add_argument("--input")
    p.add_argument("--image")
    p.add_argument("--out", default="owf.json")
    p.set_defaults(fn=_cmd_owf)

    p = sub.add_parser("reduce", help="run a reduction against an oracle")
    p.add_argument("action", choices=["lsn-to-symplpn", "drop-bit"])
    p.add_argument("--oracle", choices=["brute", "coin"], default="brute")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--branch", choices=["plain", "flooded", "both"], default="both")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("attack", help="attack an instance file")
    p.add_argument("algorithm", choices=["prange", "pair-isd", "brute"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("experiment", help="run an experiment spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("plot", help="render an experiment CSV to SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True, help="comma-separated value columns")
    p.add_argument("--series", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Bad input (a missing or malformed file, a value out
    of range) is reported as ``slpn <command>: <message>`` on stderr, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"slpn {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
