import json
import os

import pytest

from cutstack import cli, verify
from cutstack.cli import main
from cutstack.specs import StackingSpec, random_spec, spec_to_json


def small_config(seed=0):
    cfg = verify.default_config(seed=seed)
    cfg.samples = 40
    cfg.big_samples = 200
    cfg.random_specs = 4
    cfg.windows = (32,)
    cfg.pushforward_samples = 2000
    return cfg


def test_suite_covers_required_invariants():
    covered = set()
    for _, (fn, covers) in verify.CHECKS.items():
        covered.update(covers)
    assert set(verify.REQUIRED_INVARIANTS) <= covered


def test_small_suite_all_pass():
    verdicts = verify.run_suite(small_config())
    assert all(v.passed for v in verdicts), verify.render_report(verdicts)


def test_suite_reports_are_deterministic():
    a = verify.run_suite(small_config(), names=["spec_canonical",
                                                "heights_widths",
                                                "surd_order_crosscheck"])
    b = verify.run_suite(small_config(), names=["spec_canonical",
                                                "heights_widths",
                                                "surd_order_crosscheck"])
    assert verify.render_report(a) == verify.render_report(b)
    assert verify.report_json(a) == verify.report_json(b)


def test_report_render_and_json_shape():
    verdicts = verify.run_suite(small_config(), names=["heights_widths"])
    text = verify.render_report(verdicts)
    assert text.startswith("PASS heights_widths")
    assert text.rstrip().endswith("1/1 checks passed")
    blob = json.loads(verify.report_json(verdicts))
    assert blob[0]["name"] == "heights_widths"
    assert blob[0]["passed"] is True


def test_suite_turns_any_exception_into_a_failing_verdict(monkeypatch):
    def broken(cfg):
        raise AssertionError("broken check")

    monkeypatch.setitem(verify.CHECKS, "broken", (broken, ()))
    (v,) = verify.run_suite(small_config(), names=["broken"])
    assert not v.passed
    assert v.stats == {"error": "AssertionError"}
    assert v.counterexample == {"message": "broken check"}


def test_suite_builds_each_verdict_under_the_registered_name(monkeypatch):
    def failing(cfg):
        raise verify.Failed({"trial": 3}, {"h": 1})

    def passing(cfg):
        return {"n": 1}

    monkeypatch.setitem(verify.CHECKS, "failing", (failing, ()))
    monkeypatch.setitem(verify.CHECKS, "passing", (passing, ()))
    got = verify.run_suite(small_config(), names=["failing", "passing"])
    assert got == [verify.Verdict("failing", False, {"trial": 3}, {"h": 1}),
                   verify.Verdict("passing", True, {"n": 1})]


# -- command line -----------------------------------------------------------


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main(["--out-dir", str(out)] + list(argv))
    manifest = json.loads((out / "manifest.json").read_text())
    return rc, out, manifest


def test_cli_build_writes_report_and_manifest(tmp_path):
    rc, out, manifest = run_cli(tmp_path, "build", "chacon", "--stages", "6")
    assert rc == 0
    assert manifest["status"] == "ok"
    assert manifest["outputs"] == ["build_chacon.csv"]
    lines = (out / "build_chacon.csv").read_text().splitlines()
    assert lines[0] == "i,h_i,w_i,level_count,spacer_count,residual_mass"
    assert lines[1].startswith("1,1,2/3")
    assert len(lines) == 7


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("stage nonsense\n")
    rc, _, manifest = run_cli(tmp_path, "build", str(bad))
    assert rc == 2
    assert manifest["status"].startswith("parse_error")


@pytest.mark.parametrize("argv", [("induce", "--angle", "cf:bad"),
                                  ("orbit", "--system", "od:[2,*")])
def test_cli_angle_and_odometer_syntax_errors_exit_2(tmp_path, argv):
    rc, _, manifest = run_cli(tmp_path, *argv)
    assert rc == 2
    assert manifest["status"].startswith("parse_error: cannot parse")


def test_cli_angle_outside_unit_interval_exit_3(tmp_path):
    rc, _, manifest = run_cli(tmp_path, "induce", "--angle", "cf:[1;(2)]")
    assert rc == 3
    assert manifest["status"].startswith("validation_error: angle must lie")


def test_cli_validation_error_exit_3(tmp_path, capsys):
    div = tmp_path / "div.spec"
    div.write_text("system d\nstage * : cuts=1 above=[2] below=1\n")
    rc, _, manifest = run_cli(tmp_path, "build", str(div))
    assert rc == 3
    assert manifest["status"] == "exit:3"
    assert "divergent spacer mass" in capsys.readouterr().err


def test_cli_finite_spec_exit_3_with_its_true_reason(tmp_path):
    # nine stages of Chacon with no "stage *" line add finitely many
    # spacers, so validation accepts them; the build then refuses the spec
    # for want of a normalized width, whatever the number of stages
    prefix = tmp_path / "prefix.spec"
    prefix.write_text("system p\n" + "".join(
        f"stage {k} : cuts=3 above=[0,1,0] below=0\n" for k in range(1, 10)))
    rc, _, manifest = run_cli(tmp_path, "build", str(prefix),
                              "--stages", "9")
    assert rc == 3
    assert manifest["status"] == (
        "validation_error: finite spec has no normalized width")


def test_cli_inadmissible_pair_exit_4(tmp_path):
    rc, _, manifest = run_cli(tmp_path, "match", "--mode", "even",
                              "--pair", "chacon_triple", "--samples", "5")
    assert rc == 4
    assert manifest["status"].startswith("inadmissible_pair")


def test_cli_pair_with_different_cut_counts_exit_4(tmp_path, capsys):
    rc, _, manifest = run_cli(tmp_path, "match", "--left", "chacon",
                              "--right", "odometer(2)")
    assert rc == 4
    assert manifest["status"] == (
        "inadmissible_pair: cut counts differ at stage 1: 3 vs 2")
    assert capsys.readouterr().err == (
        "inadmissible pair: cut counts differ at stage 1: 3 vs 2\n")


def test_cli_instability_exit_5(tmp_path):
    rc, _, _ = run_cli(tmp_path, "match", "--mode", "even",
                       "--pair", "dyadic", "--samples", "80",
                       "--window", "8", "--max-unstable", "0")
    assert rc == 5


@pytest.mark.parametrize("option,value", [("--window", "-3"),
                                          ("--samples", "-1")])
def test_cli_match_negative_count_exit_3(tmp_path, option, value):
    rc, _, manifest = run_cli(tmp_path, "match", "--pair", "dyadic",
                              option, value)
    assert rc == 3
    assert manifest["status"] == (
        f"validation_error: {option} must be >= 0, got {value}")


NO_PAIR = "validation_error: match needs --pair, or --left with --right"
NONEVEN = ("match", "--mode", "noneven", "--pair", "chacon_triple",
           "--samples", "5")
MATCH5 = ("match", "--pair", "dyadic", "--samples", "5")
NOT_PERIODIC = "validation_error: induce needs an exact, periodic angle"
TAIL = '"tail": [{"cuts": 2, "above": [0, 1]}]'
DSL_TAIL = "\nstage * : cuts=2 above=[0,1] below=0\n"
BAD_SPECS = {  # spec files: JSON by their suffix, DSL otherwise
    "list.json": "[1]",
    "stages.json": '{"stages": 5}',
    "h1.json": '{"h1": "2", "tail": [{"cuts": 2, "above": [0, 1]}]}',
    "above.json": '{"tail": [{"cuts": 2, "above": [0, 1.5]}]}',
    "h1bool.json": '{"h1": true, ' + TAIL + "}",
    "cutsbool.json": '{"tail": [{"cuts": true, "above": [0]}]}',
    "boolspec.json": ('{"h1": 1, "tail": [{"cuts": 2, "above": [true, false], '
                      '"below": false}]}'),
    "slash.json": '{"system": "a/b", ' + TAIL + "}",
    "listname.json": '{"system": [1], ' + TAIL + "}",
    "dot.json": '{"system": ".", ' + TAIL + "}",
    "slash.spec": "system a/b" + DSL_TAIL,
    "dotdot.spec": "system .." + DSL_TAIL,
    "nul.spec": "system a\0b" + DSL_TAIL,
    # the same malformed rule in both formats is a parse error (exit 2)
    "h1zero.json": '{"h1": 0, ' + TAIL + "}",
    "h1zero.spec": "h1=0" + DSL_TAIL,
    "cutszero.json": '{"tail": [{"cuts": 0, "above": []}]}',
    "cutszero.spec": "stage * : cuts=0 above=[] below=0\n",
    "negative.json": '{"tail": [{"cuts": 2, "above": [0, -1]}]}',
    "negative.spec": "stage * : cuts=2 above=[0,-1] below=0\n",
    "arity.json": '{"tail": [{"cuts": 2, "above": [0]}]}',
    "arity.spec": "stage * : cuts=2 above=[0] below=0\n",
    "norules.json": "{}",
    "norules.spec": "system e\n",
}
NO_FILE_NAME = ("parse_error: bad structured spec: "
                "system name cannot name a file: ")


@pytest.mark.parametrize("argv,code,status", [
    (("match", "--mode", "noneven", "--pair", "chacon_triple", "--eps", "abc"),
     2, "parse_error: --eps is not a fraction: 'abc'"),
    (("match", "--mode", "noneven", "--pair", "chacon_triple", "--eps", "1/0"),
     2, "parse_error: --eps is not a fraction: '1/0'"),
    (("build", "chacon", "--stages", "0"),
     3, "validation_error: --stages must be >= 1, got 0"),
    (("induce", "--system", "chacon", "--stage", "0"),
     3, "validation_error: --stage must be >= 1, got 0"),
    (("ergodic", "--system", "chacon", "--n", "0"),
     3, "validation_error: --n must be >= 1, got 0"),
    (("ergodic", "--system", "chacon", "--samples", "-1"),
     3, "validation_error: --samples must be >= 1, got -1"),
    (("match",), 3, NO_PAIR),
    (("match", "--left", "chacon"), 3, NO_PAIR),
    (("induce",), 3, "validation_error: induce needs --system or --angle"),
    (("build", "<dir>"), 3, "validation_error: unknown built-in spec: '<dir>'"),
    (("orbit", "--system", "chacon", "--steps", "-1"),
     3, "validation_error: --steps must be >= 1, got -1"),
    (("orbit", "--system", "od:[2,*]", "--steps", "-1"),
     3, "validation_error: --steps must be >= 1, got -1"),
    (("induce", "--angle", "cf:[0;(2)]", "--max-return", "0"),
     3, "validation_error: --max-return must be >= 1, got 0"),
    (("orbit", "--system", "od:[2,*]", "--steps", "2", "--depth", "0"),
     3, "validation_error: --depth must be >= 1, got 0"),
    (("induce", "--angle", "cf:[0;1,2]"), 3, NOT_PERIODIC),
    (("induce", "--angle", "cf:[0;1]"), 3, NOT_PERIODIC),
    (NONEVEN + ("--eps", "1/1000"), 6, "unresolved: HorizonExhausted: "
     "averages still outside eps at the horizon 128"),
    (NONEVEN + ("--eps", "0"),
     4, "inadmissible_pair: eps must lie in (0, 1/2); got 0"),
    (NONEVEN + ("--eps", "-1"),
     4, "inadmissible_pair: eps must lie in (0, 1/2); got -1"),
    (("build", "list.json"),
     2, "parse_error: bad structured spec: not a JSON object"),
    (("build", "stages.json"),
     2, "parse_error: bad structured spec: stages must be a list: 5"),
    (("build", "h1.json"),
     2, "parse_error: bad structured spec: h1 must be an integer: '2'"),
    (("build", "above.json"), 2, "parse_error: bad stage object: counts "
     "must be integers: {'cuts': 2, 'above': [0, 1.5]}"),
    (("build", "slash.json"), 2, NO_FILE_NAME + "'a/b'"),
    (("build", "listname.json"), 2, NO_FILE_NAME + "[1]"),
    (("build", "dot.json"), 2, NO_FILE_NAME + "'.'"),
    (("build", "slash.spec"),
     2, "parse_error: system name cannot name a file: 'a/b' (line 1)"),
    (("build", "dotdot.spec"),
     2, "parse_error: system name cannot name a file: '..' (line 1)"),
    (("build", "nul.spec"),
     2, "parse_error: system name cannot name a file: 'a\\x00b' (line 1)"),
    (("build", "h1bool.json"),
     2, "parse_error: bad structured spec: h1 must be an integer: True"),
    (("build", "cutsbool.json"), 2, "parse_error: bad stage object: counts "
     "must be integers: {'cuts': True, 'above': [0]}"),
    (("build", "boolspec.json"), 2, "parse_error: bad stage object: counts "
     "must be integers: {'cuts': 2, 'above': [True, False], 'below': False}"),
    (MATCH5 + ("--max-unstable", "-1"), 3,
     "validation_error: --max-unstable must lie in [0, 1], got -1.0"),
    (MATCH5 + ("--max-unstable", "nan"), 3,
     "validation_error: --max-unstable must lie in [0, 1], got nan"),
    (MATCH5 + ("--max-unstable", "1.5"), 3,
     "validation_error: --max-unstable must lie in [0, 1], got 1.5"),
    (("ergodic", "--system", "chacon", "--n", "3", "--samples", "0"),
     3, "validation_error: --samples must be >= 1, got 0"),
    (("build", "h1zero.json"),
     2, "parse_error: bad structured spec: initial height must be >= 1"),
    (("build", "h1zero.spec"), 2, "parse_error: h1 must be >= 1 (line 1)"),
    (("build", "cutszero.json"),
     2, "parse_error: bad stage object: cuts must be >= 1"),
    (("build", "cutszero.spec"),
     2, "parse_error: cuts must be >= 1 (line 1, col 11)"),
    (("build", "negative.json"),
     2, "parse_error: bad stage object: spacer counts must be non-negative"),
    (("build", "negative.spec"), 2, "parse_error: spacer counts must be "
     "non-negative (line 1, col 11)"),
    (("build", "arity.json"), 2, "parse_error: bad stage object: need "
     "exactly 2 above-spacer counts, got 1"),
    (("build", "arity.spec"), 2, "parse_error: need exactly 2 above-spacer "
     "counts, got 1 (line 1, col 11)"),
    (("build", "norules.json"), 2,
     "parse_error: bad structured spec: spec needs at least one stage rule"),
    (("build", "norules.spec"),
     2, "parse_error: no stage lines found (line 1)"),
])
def test_cli_malformed_input_is_refused(tmp_path, argv, code, status):
    for name, body in BAD_SPECS.items():
        (tmp_path / name).write_text(body)
    # a directory is not a spec file, so it is read as a built-in name
    argv = [str(tmp_path) if a == "<dir>" else a for a in argv]
    argv = [str(tmp_path / a) if a in BAD_SPECS else a for a in argv]
    rc, _, manifest = run_cli(tmp_path, *argv)
    assert rc == code
    assert manifest["status"] == status.replace("<dir>", str(tmp_path))


def test_cli_verify_has_no_suite_option(tmp_path):
    # verify runs the one suite; a --suite value is a usage error
    with pytest.raises(SystemExit) as e:
        main(["--out-dir", str(tmp_path / "out"), "verify", "--suite", "x"])
    assert e.value.code == 2


def test_cli_budget_is_an_orbit_option(tmp_path):
    # a usage error exits 2 before any run starts: no manifest is written
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as e:
        main(["--out-dir", str(out), "--budget", "0", "match",
              "--pair", "dyadic"])
    assert e.value.code == 2
    assert not out.exists()


def test_cli_check_failure_exit_1(tmp_path, monkeypatch):
    failing = [verify.Verdict("broken", False, {"trial": 0})]
    monkeypatch.setattr(verify, "run_suite", lambda cfg: failing)
    rc, out, manifest = run_cli(tmp_path, "verify")
    assert rc == 1
    assert manifest["status"] == "exit:1"
    assert (out / "verify_report.txt").read_text() == (
        "FAIL broken | trial=0\n0/1 checks passed\n")


def test_cli_match_outputs_are_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        rc = main(["--out-dir", str(d), "--seed", "3", "match",
                   "--pair", "dyadic", "--samples", "30",
                   "--window", "128", "--semantics", "both"])
        assert rc == 0
        outs.append((d / "match_even_trace.csv").read_text())
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "x_id,h,n,d,y_id,mode,stable_window"


def test_cli_noneven_match_runs(tmp_path):
    rc, out, manifest = run_cli(tmp_path, "match", "--mode", "noneven",
                                "--pair", "chacon_triple",
                                "--samples", "20")
    assert rc == 0
    plan = json.loads((out / "noneven_plan.json").read_text())
    assert plan["round_trip_failures"] == 0
    assert plan["min_margin"] >= 0


def test_cli_induce_histogram(tmp_path):
    rc, out, _ = run_cli(tmp_path, "induce", "--system", "triple_heavy",
                         "--stage", "4")
    assert rc == 0
    lines = (out / "induce_triple_heavy.csv").read_text().splitlines()
    assert lines[0] == "r,mass_numerator,mass_denominator,cell_count"
    assert len(lines) > 1


def test_cli_ergodic_csv(tmp_path):
    rc, out, _ = run_cli(tmp_path, "ergodic", "--system", "chacon",
                         "--n", "81", "--samples", "5")
    assert rc == 0
    lines = (out / "ergodic_chacon.csv").read_text().splitlines()
    assert len(lines) == 6


def test_cli_approximate_angle_exit_3(tmp_path):
    rc, _, manifest = run_cli(tmp_path, "induce", "--angle", "cf:[0;1,2]")
    assert rc == 3
    assert manifest["status"].startswith(
        "validation_error: induce needs an exact, periodic angle")


def test_cli_unresolved_error_exit_6(tmp_path, capsys):
    # a carry budget of 2 cannot resolve 50 induced steps of the Chacon
    # odometer
    rc, _, manifest = run_cli(tmp_path, "orbit", "--budget", "2",
                              "--system", "chacon", "--steps", "50")
    assert rc == 6
    assert manifest["status"] == (
        "unresolved: NeedMoreDepth: all digits maximal within budget")
    assert capsys.readouterr().err.count("\n") == 1


def test_cli_odometer_orbit_budget_has_one_meaning(tmp_path):
    # as for a spec's return times, a carry may reach stage budget + 1:
    # from zero, od:[2,*] takes 7 successors within stages 1..3, and rows
    # 0..7 need no more; the eighth successor carries past stage 3
    rc, out, _ = run_cli(tmp_path, "orbit", "--system", "od:[2,*]",
                         "--budget", "2", "--steps", "7")
    assert rc == 0
    rows = (out / "orbit_odometer.csv").read_text().splitlines()
    assert rows[-1] == '7,"1,1,1,0,0,0,0,0"'
    rc, _, manifest = run_cli(tmp_path, "orbit", "--system", "od:[2,*]",
                              "--budget", "2", "--steps", "8")
    assert rc == 6
    assert manifest["status"] == (
        "unresolved: NeedMoreDepth: all digits maximal within budget")
    assert manifest["outputs"] == []


def test_cli_negative_budget_exit_3(tmp_path, capsys):
    rc, _, manifest = run_cli(tmp_path, "orbit", "--budget", "-1",
                              "--system", "chacon")
    assert rc == 3
    assert manifest["status"] == (
        "validation_error: --budget must be >= 0, got -1")
    assert capsys.readouterr().err.count("\n") == 1


def test_cli_finite_spec_in_a_pair_exit_4(tmp_path, capsys):
    # a finite spec has no odometer to match on: bad input, not unresolved
    spec = random_spec(3)
    finite = StackingSpec(spec.name, spec.initial_height,
                          tuple(spec.rule(k) for k in range(1, 6)), ())
    path = tmp_path / "finite.json"
    path.write_text(spec_to_json(finite))
    rc, _, manifest = run_cli(tmp_path, "match", "--left", str(path),
                              "--right", str(path), "--samples", "5")
    assert rc == 4
    assert manifest["status"] == (
        "inadmissible_pair: spec 'random_3' is finite: no odometer to "
        "match on")
    assert capsys.readouterr().err.count("\n") == 1


def test_cli_one_cut_tail_in_a_pair_exit_4(tmp_path, capsys):
    # a tail that never cuts in more than one leaves a finite odometer;
    # the N estimate once ran out of depth on it instead (exit 6)
    for name, above in (("x.spec", "[0,1]"), ("y.spec", "[1,1]")):
        (tmp_path / name).write_text(
            f"h1=2\nstage 1 : cuts=2 above={above}\n"
            "stage * : cuts=1 above=[0]\n")
    rc, _, manifest = run_cli(tmp_path, "match", "--mode", "noneven",
                              "--left", str(tmp_path / "x.spec"),
                              "--right", str(tmp_path / "y.spec"))
    assert rc == 4
    assert manifest["status"] == (
        "inadmissible_pair: spec 'unnamed' has a tail of 1-cut stages: "
        "its odometer is finite")
    assert capsys.readouterr().err.count("\n") == 1


def test_cli_crash_is_recorded_and_reraised(tmp_path, monkeypatch):
    # an exception that is not a CutstackError is a bug, not an outcome
    def crash(ctx):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_orbit", crash)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        main(["--out-dir", str(out), "orbit", "--system", "chacon"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "crash: RuntimeError"
