import hashlib
import json
import os

import pytest

from bipoly import cli, wire
from bipoly.errors import DecodeSingularError, ParameterError


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


SMALL_DEMO = [
    "demo", "--K", "2", "--L", "2", "--T", "1", "--m", "2", "--N", "8",
    "--q", "101", "--r", "4", "--s", "4", "--c", "4",
]


def test_demo_small_pass(capsys):
    code, out, _ = run(SMALL_DEMO + ["--seed", "3"], capsys)
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "recovery threshold: 10" in out


def test_demo_validation_error_cites_invariant(capsys):
    code, _, err = run(["demo", "--q", "2"], capsys)
    assert code == 1
    assert "2K+2T-2" in err


def test_demo_indivisible_dimensions(capsys):
    code, _, err = run(["demo", "--K", "3", "--r", "100", "--q", "101",
                        "--L", "2", "--T", "1", "--m", "2", "--N", "8",
                        "--s", "4", "--c", "4"], capsys)
    assert code == 1
    assert "does not divide" in err


def test_demo_dump_files_load(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, _, _ = run(SMALL_DEMO + ["--seed", "5", "--dump", prefix], capsys)
    assert code == 0
    with open(prefix + ".shares.bin", "rb") as fh:
        params, dims, shares = wire.load_shares(fh.read())
    assert params.N == 8 and dims == (4, 4, 4) and len(shares) == 8
    with open(prefix + ".results.bin", "rb") as fh:
        _, _, results = wire.load_results(fh.read())
    assert len(results) == 16
    assert os.path.exists(prefix + ".shares.bin.manifest.json")


def test_thresholds_stdout_default_params(capsys):
    code, out, _ = run(["thresholds"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "budget,proposed_m,proposed_rth,gasp_m,gasp_rth"
    assert lines[1] == "2,1,47,1,44"
    assert lines[-1] == "10,5,75,5,79"


def test_thresholds_rejects_unsupported_regime(capsys):
    code, _, err = run(["thresholds", "--K", "2", "--L", "5", "--q", "101"], capsys)
    assert code == 1
    assert "L <= K" in err


def test_thresholds_out_reproducible(tmp_path, capsys):
    out1 = tmp_path / "table.csv"
    code, _, _ = run(["thresholds", "--out", str(out1)], capsys)
    assert code == 0
    text1 = out1.read_text()
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "thresholds"
    code, _, _ = run(["thresholds", "--out", str(out1)], capsys)
    assert out1.read_text() == text1


def test_simulate_bundled_config(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = ["simulate", "--config", "homogeneous", "--trials", "20",
            "--seed", "1", "--out", str(out)]
    code, _, _ = run(args, capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,budget,m,r_th,mean_time_s,std_err_s,trials,seed"
    assert len(lines) == 1 + 9 * 2  # budgets 2..10, both schemes
    assert lines[1].startswith("proposed,2,1,47,")
    assert lines[10].startswith("gasp,2,1,44,")
    text = out.read_text()
    code, _, _ = run(args, capsys)
    assert out.read_text() == text


def test_simulate_rejects_zero_trials(capsys):
    code, _, err = run(
        ["simulate", "--config", "homogeneous", "--trials", "0"], capsys
    )
    assert code == 1
    assert "trials" in err


def test_simulate_incompletable_exit_code(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[scheme]\nK = 5\nL = 5\nT = 3\nq = 101\n"
        "[sim]\ntrials = 5\nbudgets = 2\n"
        "[class.only]\ncount = 6\nlambda = 1.0\nnu = 0.1\n"
    )
    code, _, err = run(["simulate", "--config", str(cfg)], capsys)
    assert code == 3
    assert "incompletable" in err.lower()


def test_simulate_config_parse_error_has_line(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[scheme]\nK = 5\nwat\n")
    code, _, err = run(["simulate", "--config", str(cfg)], capsys)
    assert code == 1
    assert "line" in err.lower() or "3" in err


SIM_CONFIG = {
    "scheme": {"K": "2", "L": "2", "T": "1", "q": "101"},
    "sim": {"trials": "5", "budgets": "2"},
    "class.only": {"count": "8", "lambda": "1.0", "nu": "0.1"},
}


def write_sim_config(path, skip=None, values=None):
    """SIM_CONFIG as a config file, without the (section, key) in skip
    and with each (section, key): value of values set or added."""
    sections = {name: dict(keys) for name, keys in SIM_CONFIG.items()}
    for (name, k), v in (values or {}).items():
        sections[name][k] = v
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()
                                 if (name, k) != skip)
        for name, keys in sections.items()
    ))
    return str(path)


@pytest.mark.parametrize(
    "section, key",
    [("class.only", "count"), ("class.only", "lambda"), ("class.only", "nu"),
     ("sim", "trials"), ("scheme", "q")],
)
def test_simulate_config_missing_key_names_it(tmp_path, capsys, section, key):
    cfg = write_sim_config(tmp_path / "partial.cfg", skip=(section, key))
    with pytest.raises(ParameterError, match=rf"partial\.cfg: \[{section}\] .*'{key}'"):
        cli.load_sim_config(cfg)
    code, _, err = run(["simulate", "--config", cfg], capsys)
    assert code == 1
    assert f"[{section}]" in err and f"'{key}'" in err


@pytest.mark.parametrize("section, key, value, reason", [
    ("class.only", "count", "many", "invalid literal for int()"),
    ("class.only", "nu", "slow", "could not convert string to float"),
    ("sim", "seed", "zero", "invalid literal for int()"),
    ("sim", "budgets", "2-", "budget '2-' in '2-' is not an integer or a lo-hi range"),
])
def test_simulate_config_bad_value_names_it(tmp_path, capsys, section, key, value, reason):
    cfg = write_sim_config(tmp_path / "bad.cfg", values={(section, key): value})
    code, _, err = run(["simulate", "--config", cfg], capsys)
    assert code == 1
    assert f"bad.cfg: [{section}] {key} = {value!r}: {reason}" in err


@pytest.mark.parametrize("key, value, message", [
    ("lambda", "nan", "rate lam must be a finite number > 0, got nan"),
    ("nu", "inf", "shift nu must be a finite number >= 0, got inf"),
    ("count", "0", "worker class count must be >= 1, got 0"),
])
def test_simulate_refuses_a_non_finite_worker_class(tmp_path, capsys, key, value, message):
    cfg = write_sim_config(tmp_path / "nan.cfg", values={("class.only", key): value})
    code, out, err = run(["simulate", "--config", cfg], capsys)
    assert code == 1 and out == ""
    assert message in err
    assert f"nan.cfg: [class.only] {key} = {value!r}: {message}" in err


@pytest.mark.parametrize("section, message", [
    ("scheme", "missing [scheme] section"),
    ("sim", "missing [sim] section"),
    ("class.only", "no [class.*] sections"),
])
def test_simulate_config_missing_section_names_it(tmp_path, capsys, section, message):
    cfg = tmp_path / "nosec.cfg"
    write_sim_config(cfg)
    cfg.write_text(cfg.read_text().replace(f"[{section}]", "[unused]"))
    code, out, err = run(["simulate", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert f"nosec.cfg: {message}" in err


def test_thresholds_names_a_bad_budget(capsys):
    code, _, err = run(["thresholds", "--budgets", "2-x"], capsys)
    assert code == 1
    assert "budget '2-x' in '2-x' is not an integer or a lo-hi range" in err


@pytest.mark.parametrize("budgets", ["", " , "])
def test_thresholds_refuses_empty_budgets(capsys, budgets):
    code, out, err = run(["thresholds", "--budgets", budgets], capsys)
    assert code == 1 and out == ""
    assert f"no budgets in {budgets!r}" in err


def test_simulate_complete_config_runs(tmp_path, capsys):
    cfg = write_sim_config(tmp_path / "full.cfg")
    code, out, _ = run(["simulate", "--config", cfg, "--seed", "1"], capsys)
    assert code == 0
    assert out.startswith("scheme,budget,")


@pytest.mark.parametrize("sweeps", ["0", "-2"])
def test_privacy_rejects_sweeps_below_one(capsys, sweeps):
    code, out, err = run(
        ["privacy", "--K", "2", "--L", "2", "--T", "1", "--m", "2",
         "--N", "6", "--q", "101", "--sweeps", sweeps],
        capsys,
    )
    assert code == 1
    assert "sweeps must be >= 1" in err
    assert "PASS" not in out


def test_privacy_small_instance_reports_mi(capsys):
    code, out, _ = run(
        ["privacy", "--K", "1", "--L", "1", "--T", "1", "--m", "1",
         "--N", "5", "--q", "7", "--sweeps", "2", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert "mutual information: 0.0 bits" in out
    assert out.strip().endswith("PASS")


def test_privacy_degenerate_fails_with_witness(capsys):
    code, out, _ = run(
        ["privacy", "--K", "2", "--L", "2", "--T", "2", "--m", "2",
         "--N", "6", "--q", "101", "--sweeps", "1", "--seed", "0",
         "--allow-degenerate"],
        capsys,
    )
    assert code == 2
    assert "witness" in out
    assert out.strip().endswith("FAIL")


def test_privacy_degenerate_zeroes_x_when_t_is_one(capsys):
    # With T = 1 there is no pair to repeat, so worker 0 gets x = 0.
    code, out, _ = run(
        ["privacy", "--K", "2", "--L", "2", "--T", "1", "--m", "2",
         "--N", "6", "--q", "101", "--sweeps", "1", "--seed", "0",
         "--allow-degenerate"],
        capsys,
    )
    assert code == 2
    assert out.startswith("sweep 0: FAIL (1+ of 6 subsets)\n")
    assert "witness subset (worker indices): (0,)" in out
    assert out.strip().endswith("FAIL")


def test_demo_singular_decode_exits_two(monkeypatch, capsys):
    def singular(params, results):
        raise DecodeSingularError("interpolation matrix is singular")

    monkeypatch.setattr(cli, "decode", singular)
    code, out, err = run(SMALL_DEMO + ["--seed", "3"], capsys)
    assert code == 2
    assert "PASS" not in out
    assert "runtime failure: interpolation matrix is singular" in err


def test_privacy_limit_applies_only_when_the_sweep_enumerates(capsys):
    # Every point passes, so C(200, 4) coalitions are counted, not listed;
    # the degenerate draw must list them and is refused by name instead.
    args = ["privacy", "--N", "200", "--T", "4", "--sweeps", "1", "--seed", "0"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert out == "sweep 0: PASS (64684950 subsets)\nPASS\n"
    code, out, err = run(args + ["--allow-degenerate"], capsys)
    assert code == 1
    assert "C(200,4) = 64684950 subsets exceed the enumeration limit 2000000" in err


# Recorded before simulate's sweep was shared across schemes and budgets,
# and before the privacy sweep's enumeration was rewritten twice (in numpy,
# then lazily with early stopping); the CSV and the audit report must stay
# byte-identical for a fixed seed.
GOLDEN_STDOUT = {
    "simulate": (
        ["simulate", "--config", "heterogeneous", "--scheme", "both",
         "--trials", "5000", "--seed", "5"],
        0,
        "310ee0f69a4852a4221958fc058a48d61534d8513aca238604657199f3b6b22f",
    ),
    "privacy-degenerate": (
        ["privacy", "--allow-degenerate", "--sweeps", "1", "--seed", "4"],
        2,
        "f113337a6dca96788b361299ea97c9dcc5abe204446afd91cf071d9abd1138cc",
    ),
    "demo-small": (
        SMALL_DEMO + ["--seed", "3"],
        0,
        "5b248dceb7c88ec9cb82470a09ac6f7ba4a30258196cbc56161e684196aedc1f",
    ),
    "demo-default": (
        ["demo", "--seed", "3"],
        0,
        "3f874b935350bf5696ed9586d94a827145f48ff46a87d8df8585b1e33891ea7a",
    ),
    "thresholds": (
        ["thresholds"],
        0,
        "2d9230b9812180cd95eb9546bbab7938ff3bd9aac63440d23e5efd56e67d13be",
    ),
    "privacy": (
        ["privacy", "--sweeps", "2", "--seed", "5"],
        0,
        "2c24dbf94254a24fa7e81b89d91bc4e079dfb0da2fcf47d6230c88628df9f7e4",
    ),
}

# sha256 of the files `demo --seed 3 --dump PREFIX` writes, at the defaults.
GOLDEN_DUMPS = {
    "shares": "3f35e1479b9dc8ee458a417eb5613a7a767cec52f93f311c9161b73859d436f7",
    "results": "246f02b0448ec83e320cdf307b68c04b3302cfc0d11367f735a7cc47d3b39add",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_stdout_matches_golden_hash(name, capsys):
    args, want_code, want_hash = GOLDEN_STDOUT[name]
    code, out, _ = run(args, capsys)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_hash


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # main parses with the parser build_parser built once; no call may
    # leave a value behind for the next, whatever order the calls come in
    # and whatever fails between them.
    assert cli.build_parser() is cli.build_parser()
    names = sorted(GOLDEN_STDOUT)
    for i, name in enumerate(names + names[::-1]):
        if i == len(names):
            with pytest.raises(SystemExit) as exc:
                cli.main(["simulate"])
            assert exc.value.code == 2
            assert "--config" in capsys.readouterr().err
            bad = tmp_path / "no-sim.cfg"
            bad.write_text("[scheme]\nK = 2\nL = 2\nT = 1\nq = 101\n")
            code, _, err = run(["simulate", "--config", str(bad)], capsys)
            assert code == 1 and "missing [sim] section" in err
        args, want_code, want_hash = GOLDEN_STDOUT[name]
        code, out, _ = run(args, capsys)
        assert code == want_code, name
        assert hashlib.sha256(out.encode()).hexdigest() == want_hash, name
    assert cli.build_parser() is cli.build_parser()


def test_demo_dumps_match_golden_hashes(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, _, _ = run(["demo", "--seed", "3", "--dump", prefix], capsys)
    assert code == 0
    for kind, want_hash in GOLDEN_DUMPS.items():
        with open(f"{prefix}.{kind}.bin", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want_hash, kind
