"""Golden outputs: for a given seed, the CLI's output files must stay
byte-identical.  The digests were taken from the code before the
return-time table walker; a change that alters any of these bytes is a
change of behaviour and must say so."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from cutstack.cli import main

GOLDEN = {
    ("--seed", "3", "match", "--pair", "dyadic", "--samples", "200",
     "--semantics", "both"): {
        "match_even_trace.csv":
            "bd681f8e3dbd22edf2372c1c92b356bcbd06c1aa2d7e1c95ab1d76e50dcf39ef",
        "match_disagreements.csv":
            "ce97730bffd9f971b8b5306daab357588bf49663cf6f9efaee3fb988f3fdb19e",
    },
    ("--seed", "0", "verify"): {
        "verify_report.txt":
            "4dcf0a3e474260a8655189843d80e10f9e4407017efb7e97366164cdc56c15bb",
        "verify_report.json":
            "0b669c534e8841f12e073508832ccc8320a1bd99861be39749b68f246057ab3e",
    },
}


# Taken from the Fraction-based Surd.  The histogram prints surd cell
# masses through approx(96) and limit_denominator, so these bytes pin that
# rounding as well.
ROTATION = (
    ("induce", "--angle", "cf:[0;(5,1,1,7)]", "--max-return", "40"),
    "ee97cd92d8a638fc1ee042770acb7a4d4e3e3d7b29cc7d0948d9b73f2bd9bd1d",
    "824284a78666edaab60c6535417683ee889e8fc9c994df4d8f8535a69f15af6b",
)


# Taken before a pair became one odometer (the identity digit map `phi`
# and the second walker were still there).
NONEVEN = (
    ("--seed", "0", "match", "--mode", "noneven", "--pair", "chacon_triple"),
    {
        "match_noneven_trace.csv":
            "a4f43055dec6a583b743b4561489ef345b64b2dac29981f5c4db8dd811323fff",
        "noneven_plan.json":
            "af5eaeac62f846ef8f6f272d7c251cf028f015d6063239a4d55f7c360484fec2",
    },
    "74b04069d5222456226c0da75f6b32aa97585957025d40da4c35bef3315309a2",
)


def test_golden_outputs_are_byte_identical(tmp_path):
    for n, (argv, digests) in enumerate(GOLDEN.items()):
        out = tmp_path / str(n)
        assert main(["--out-dir", str(out)] + list(argv)) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in digests}
        assert got == digests, " ".join(argv)


def test_golden_rotation_histogram(tmp_path, capsys):
    argv, csv_digest, stdout_digest = ROTATION
    assert main(["--out-dir", str(tmp_path)] + list(argv)) == 0
    csv = (tmp_path / "induce_rotation.csv").read_bytes()
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(csv).hexdigest() == csv_digest
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest


def test_golden_noneven_match(tmp_path, capsys):
    argv, digests, stdout_digest = NONEVEN
    assert main(["--out-dir", str(tmp_path)] + list(argv)) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    stdout = capsys.readouterr().out.encode()
    assert got == digests
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest


# A pair with one spacer below each stage's first column, so the all-zero
# m-cylinder is not level 0 of stage m + 1.  Taken when each system's
# plan came to read its own level of that cylinder: before, this run
# ended in ExhaustedDigits.  (spec files, argv, digests, stdout digest)
BELOW_SPACERS = (
    {"x.spec": "h1=2\nstage * : cuts=2 above=[0,1] below=1\n",
     "y.spec": "h1=2\nstage * : cuts=2 above=[2,1] below=1\n"},
    ("--seed", "0", "match", "--mode", "noneven", "--eps", "1/8",
     "--left", "x.spec", "--right", "y.spec"),
    {"match_noneven_trace.csv":
     "f946531a867d648f8d3b3cc718a376a8bcd23b1e3b8ec5695aaabc743b5aace9",
     "noneven_plan.json":
     "dbec8dbe02bc752d39e18735be16ff451a3cc9cc36afa7e0e0faf4750718465d"},
    "87d2416454bc27eed5639fae74f9342aa8137c3fc47b2e202e56025d73dda7fc",
)


def test_golden_noneven_below_spacers(tmp_path, capsys):
    files, argv, digests, stdout_digest = BELOW_SPACERS
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out = tmp_path / "out"
    assert main(["--out-dir", str(out)] + argv) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in digests}
    stdout = capsys.readouterr().out.encode()
    assert got == digests
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest


# Taken before validation became exact and each induction adapter owned its
# decompositions: (argv, {output file: digest}, stdout digest).
PINNED = (
    (("build", "chacon", "--stages", "8"),
     {"build_chacon.csv":
      "fb05832bc82db4016cda11fb09c0268ef160c0d323fda6d4bc91414b573112d7"},
     "9e01a5ffa7abc1a168a76d306d52af6a772b9d7238032efddad1d8d1ff906ea6"),
    (("induce", "--system", "chacon", "--stage", "6"),
     {"induce_chacon.csv":
      "934e9e0fffbf288efa00e1ab87a88d274886474aaef609630420f69c17b67b6a"},
     "642e57e31f17efdeb1aaede5cf9d80c3aa78662cd31b94869aa365292d3696fd"),
    (("induce", "--system", "triple_heavy", "--stage", "5"),
     {"induce_triple_heavy.csv":
      "e2df13621f095e1dc5e545f0d37f8c75a1b5951e62b372cefc7a36ede27a6e7e"},
     "48b48e62388e59a7c84f7476432c80be3e019d22b51181016758b419d7b3a54e"),
    (("orbit", "--system", "chacon", "--steps", "50"),
     {"orbit_chacon.csv":
      "1ac3d9e9a1d98bfd593f69fdbdb7adc360bd3f55bef8f04f8b430937669130dc"},
     "6be23da3a62b5073d2975f9f94d3f6574fd2cb9e00da753578b496b904406b20"),
    (("orbit", "--system", "od:[2,3,*]", "--steps", "20"),
     {"orbit_odometer.csv":
      "87c2c47f385ca2c4629bd141f4a3f7bc6ab99b1d9fda583c874ac7b6e59e1675"},
     "23a251b0a2e8e06478ce2face6d5db3fe1e80f882db394980c349b131bb8beaf"),
    # taken before od:[...] became a spacer-free RankOneSystem; a base-1
    # stage keeps its digit at 0
    (("orbit", "--system", "od:[1,2,*]", "--steps", "20", "--depth", "4"),
     {"orbit_odometer.csv":
      "6bd5bfea9d43b0fe45b6dd863a7ec4955b925e156824317b7df2535ae1701cd8"},
     "23a251b0a2e8e06478ce2face6d5db3fe1e80f882db394980c349b131bb8beaf"),
    (("ergodic", "--system", "chacon", "--n", "729", "--samples", "10"),
     {"ergodic_chacon.csv":
      "f6f3aab0fedc26ade68636c9c0fa1e5c18ac44eb1eaadb04a8148e9c32d7cde3"},
     "964d3ee3f565bfafbcfb506e5b35cd237268da3c0a5363d7403f54d26f123b9f"),
)


@pytest.mark.parametrize("argv,digests,stdout_digest", PINNED,
                         ids=[" ".join(p[0]) for p in PINNED])
def test_golden_pinned_commands(tmp_path, capsys, argv, digests,
                                stdout_digest):
    assert main(["--out-dir", str(tmp_path)] + list(argv)) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    stdout = capsys.readouterr().out.encode()
    assert got == digests
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest


# The seed-0 digests of the four benchmark workloads (perfbench/results/
# baseline), hashed over each workload's first trace_ops ops the way
# perfbench/child.py does.
BENCHMARK_SEED0 = {
    "even_roundtrip":
        "f249354096cda72b3568327f2b1670341a5b53eb2fd7e1dffb6e9dd0f155153e",
    "frame_audit":
        "4db37b8678021968811542c26c388e57341e5f15c5c92f6250e15aa3a1d76b5a",
    "orbit_formula":
        "d881923f28ac666cd062d76a2cec2d9adb2ef6ba342697ceeecace9a37a68abb",
    "rotation_exact":
        "daa2b1d45be38a106b0d5f7396afd905bf81231a2e82c28b7ddfe19f91d25071",
}


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _benchmark_digest(workload):
    """SHA-256 over a workload's first trace_ops ops, as perfbench/child.py
    hashes them."""
    digest = hashlib.sha256()
    for i in range(workload.trace_ops):
        inp = workload.make_input(i)
        try:
            out = workload.op(inp)
        except Exception:
            item = ("failed", i)
        else:
            workload.record(i, inp, out)
            item = workload.digest_items(out)
        digest.update(repr(item).encode())
    return digest.hexdigest()


def test_benchmark_seed0_digests():
    got = {name: _benchmark_digest(workload(0))
           for name, workload in _benchmark_workloads().items()}
    assert got == BENCHMARK_SEED0


# Seed-1 digests of the two workloads that run the even formula, taken
# before block descent replaced the shift-by-shift partial-sum walk.
BENCHMARK_SEED1 = {
    "orbit_formula":
        "b2e477a32efbdce49baf589f97cae9cdefeedcd1d171e34f9433ae7f3f2f5527",
    "even_roundtrip":
        "dcc7e65f7079ebb4ccb6a5eba208728c00a9c1865db40a51699218faf84f5159",
}


def test_benchmark_seed1_digests():
    workloads = _benchmark_workloads()
    got = {name: _benchmark_digest(workloads[name](1))
           for name in BENCHMARK_SEED1}
    assert got == BENCHMARK_SEED1
