"""Golden outputs: for a given seed, the CLI's output files must stay
byte-identical.  The digests were taken from the code before the
return-time table walker; a change that alters any of these bytes is a
change of behaviour and must say so."""

import hashlib

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


def test_golden_outputs_are_byte_identical(tmp_path):
    for n, (argv, digests) in enumerate(GOLDEN.items()):
        out = tmp_path / str(n)
        assert main(["--out-dir", str(out)] + list(argv)) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in digests}
        assert got == digests, " ".join(argv)
