import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bischro.cli
import bischro.control
import bischro.spectrum
from bischro import ConfigError, assemble, build_profile, parse_config
from bischro.cli import EXIT_CONDITIONING, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, entry, main

MINIMAL = """
[experiment]
kind = spectrum
elements = 64
modes = 6

[profile]
length = 1.0
rho_poly = [1.0]
sigma_poly = [1.0]
q_poly = [0.0]
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.kind == "spectrum"
    assert cfg.elements == 64
    assert cfg.modes == 6
    assert cfg.profile_spec["rho"] == {"poly": [1.0]}


def test_parse_samples_profile():
    cfg = parse_config(MINIMAL.replace(
        "rho_poly = [1.0]", "rho_samples = [(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)]"))
    assert cfg.profile_spec["rho"] == {"samples": [(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)]}


def test_negative_elements_error_names_field_and_line():
    text = MINIMAL.replace("elements = 64", "elements = -4")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = "\n".join(err.value.errors)
    assert "elements" in msg
    expected_line = text.splitlines().index("elements = -4") + 1
    assert f"line {expected_line}" in msg


def test_comments_after_values_are_ignored():
    text = CONTROL_CFG.replace("horizons = [0.5]", "horizons = [0.5]\nexport_matrices = true")
    commented = "\n".join(line + "  # note" if "=" in line else line
                           for line in text.splitlines())
    assert commented.count("# note") == 10  # every key of the config
    assert parse_config(commented) == parse_config(text)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_configs_parse():
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        parse_config(block)


def test_readme_quick_start_runs(capsys):
    block, = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    norm, residual = map(float, capsys.readouterr().out.split())
    assert norm > 0
    assert residual <= 1e-8


def test_two_profile_sections_rejected():
    text = MINIMAL + "\n[profile]\nlength = 2.0\n"
    with pytest.raises(ConfigError, match="exactly one profile"):
        parse_config(text)


def test_unknown_key_and_kind_errors_collected():
    text = MINIMAL.replace("kind = spectrum", "kind = banana")
    text = text.replace("modes = 6", "modes = 6\nwhatever = 3")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = "\n".join(err.value.errors)
    assert "banana" in msg
    assert "whatever" in msg


def test_control_requires_initial_and_horizons():
    text = MINIMAL.replace("kind = spectrum", "kind = control")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = "\n".join(err.value.errors)
    assert "horizons" in msg
    assert "initial" in msg


def _write(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


def test_cli_spectrum_run_and_determinism(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["spectrum", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["spectrum", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    data1 = (out1 / "spectrum.csv").read_bytes()
    data2 = (out2 / "spectrum.csv").read_bytes()
    assert data1 == data2
    lines = data1.decode().splitlines()
    assert lines[0] == "# schema: spectrum-v1"
    assert lines[1] == "n,lambda,mu,trace,residual"
    assert len(lines) == 2 + 6


def test_cli_kind_mismatch_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    assert main(["control", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "does not match" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_cli_profile_violation_exit_code(tmp_path, capsys):
    for rho in ("[1.0, -2.0]", "[-1.0]"):
        bad = MINIMAL.replace("rho_poly = [1.0]", f"rho_poly = {rho}")
        cfg = _write(tmp_path, bad)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "rho" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_cli_entry_script_exits_zero(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "entry"
    monkeypatch.setattr(sys, "argv", ["bischro", "spectrum", "--config", cfg, "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == EXIT_OK
    assert (out / "spectrum.csv").exists()


def test_cli_module_runs_as_script(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "module"
    src = str(Path(bischro.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "bischro.cli", "spectrum", "--config", cfg,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert f"wrote: {out / 'spectrum.csv'}" in proc.stdout.splitlines()
    assert (out / "spectrum.csv").exists()


def test_import_loads_no_optional_scipy_modules():
    # scipy.interpolate and scipy.optimize load on first use, so importing
    # the package and its CLI does not pay for them
    src = str(Path(bischro.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, bischro, bischro.cli; "
            "print([m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_config_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(MINIMAL.encode("ascii") + b"# caf\xe9\n")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


ASYMPTOTICS_CFG = MINIMAL.replace("kind = spectrum", "kind = asymptotics")


def test_cli_failed_write_keeps_only_what_existed(tmp_path, capsys):
    # gap.csv is taken by a directory: the run is refused before any write,
    # and the old spacing.csv keeps its bytes
    cfg = _write(tmp_path, ASYMPTOTICS_CFG)
    out = tmp_path / "asym"
    (out / "gap.csv").mkdir(parents=True)
    (out / "spacing.csv").write_bytes(b"old spacing\n")
    assert main(["asymptotics", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "gap.csv" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["gap.csv", "spacing.csv"]
    assert (out / "gap.csv").is_dir()
    assert (out / "spacing.csv").read_bytes() == b"old spacing\n"


def test_cli_failed_write_keeps_old_files_bytes(tmp_path, monkeypatch, capsys):
    # the second write fails after the first succeeded: nothing is renamed
    # over the old spacing.csv and no staged file is left behind
    cfg = _write(tmp_path, ASYMPTOTICS_CFG)
    out = tmp_path / "asym"
    out.mkdir()
    (out / "spacing.csv").write_bytes(b"old spacing\n")
    real_write_text = Path.write_text

    def failing_write_text(self, *args, **kwargs):
        if self.name == "gap.csv":
            raise OSError(28, "No space left on device", str(self))
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    assert main(["asymptotics", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert [p.name for p in out.iterdir()] == ["spacing.csv"]
    assert (out / "spacing.csv").read_bytes() == b"old spacing\n"


def test_cli_failed_write_removes_created_directories(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, ASYMPTOTICS_CFG)
    real_write_text = Path.write_text
    calls = []

    def failing_write_text(self, *args, **kwargs):
        calls.append(self.name)
        if len(calls) == 2:
            raise OSError(28, "No space left on device", str(self))
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    code = main(["asymptotics", "--config", cfg, "--out", str(tmp_path / "a" / "b")])
    assert code == EXIT_CONFIG
    assert calls == ["spacing.csv", "gap.csv"]
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("old, new", [
    ("elements = 64", "elements = 32"),
    ("modes = 6", "modes = 4"),
])
def test_cli_asymptotics_needs_five_trusted_modes(tmp_path, capsys, old, new):
    text = ASYMPTOTICS_CFG.replace(old, new)
    lineno = text.splitlines().index(new) + 1
    cfg = _write(tmp_path, text)
    assert main(["asymptotics", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"line {lineno}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_asymptotics_outputs(tmp_path, capsys):
    text = MINIMAL.replace("kind = spectrum", "kind = asymptotics")
    text = text.replace("elements = 64", "elements = 128")
    text = text.replace("modes = 6", "modes = 10")
    cfg = _write(tmp_path, text)
    out = tmp_path / "asym"
    assert main(["asymptotics", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name, header in (
        ("spacing.csv", "n,delta_mu,spacing_ratio"),
        ("gap.csv", "n,delta_lambda,normalized_gap"),
        ("trace.csv", "n,trace_over_sqrt_lambda,limit_ratio"),
    ):
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("# schema: ")
        assert lines[1] == header


def test_cli_observability_sweep(tmp_path, capsys):
    text = MINIMAL.replace("kind = spectrum", "kind = observability")
    text = text.replace("modes = 6", "modes = 6\nhorizons = [0.1, 0.5, 1.0]")
    cfg = _write(tmp_path, text)
    out = tmp_path / "obs"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "observability.csv").read_text().splitlines()
    assert lines[1] == "T,N,c_T,C_T,condition,density_estimate"
    assert len(lines) == 2 + 3
    c_lower = [float(row.split(",")[2]) for row in lines[2:]]
    assert c_lower == sorted(c_lower)


@pytest.mark.parametrize("old, new, code", [
    ("elements = 64", "elements = 10", EXIT_CONFIG),
    ("modes = 6", "modes = 1", EXIT_CONFIG),
    ("elements = 64", "elements = 20", EXIT_OK),
])
def test_cli_observability_needs_two_trusted_modes(tmp_path, capsys, old, new, code):
    # the Beurling density of a single frequency is undefined
    text = MINIMAL.replace("kind = spectrum", "kind = observability")
    text = text.replace("modes = 6", "modes = 6\nhorizons = [0.5]").replace(old, new)
    lineno = text.splitlines().index(new) + 1
    out = tmp_path / "obs"
    assert main(["observability", "--config", _write(tmp_path, text), "--out", str(out)]) == code
    if code == EXIT_CONFIG:
        assert (f"line {lineno}: {new} leaves 1 trusted modes (min(modes, elements // 10)), "
                "kind=observability needs 2") in capsys.readouterr().err
        assert not out.exists()
    else:
        row = (out / "observability.csv").read_text().splitlines()[2].split(",")
        assert row[1] == "2"
        assert float(row[5]) > 0


@pytest.mark.parametrize("samples, message", [
    ("[(0.0, 1.0), (0.5, 1.0)]", "samples cover [0, 0.5] but must cover [0, 1]"),
    ("[(0.0, 1.0), (0.0, 2.0), (1.0, 1.0)]", "sample abscissae must be strictly increasing"),
])
def test_cli_sampled_coefficient_error_names_the_coefficient(tmp_path, capsys, samples, message):
    cfg = _write(tmp_path, MINIMAL.replace("sigma_poly = [1.0]", f"sigma_samples = {samples}"))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: sigma: {message}\n"
    assert not (tmp_path / "o").exists()


def test_cli_gram_factorization_failure_exits_numerical(tmp_path, monkeypatch, capsys):
    hetrf = bischro.control._hetrf
    monkeypatch.setattr(bischro.control, "_hetrf",
                        lambda *args, **kwargs: (*hetrf(*args, **kwargs)[:-1], 4))
    cfg = _write(tmp_path, CONTROL_CFG)
    out = tmp_path / "ctl"
    assert main(["control", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert "numerical error: zhetrf failed (info 4)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_observability_positivity_loss_exits_numerical(tmp_path, capsys):
    # at T = 1e-6 the Gram of six modes is numerically singular
    text = MINIMAL.replace("kind = spectrum", "kind = observability")
    text = text.replace("modes = 6", "modes = 6\nhorizons = [1e-6]")
    cfg = _write(tmp_path, text)
    out = tmp_path / "obs"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert "Gram eigensolve lost positivity" in capsys.readouterr().err
    assert not out.exists()


def test_cli_polish_breakdown_exits_numerical(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bischro.spectrum, "_gbsv",
                        lambda kl, ku, ab, b, **kwargs: (ab, None, np.full_like(b, np.nan), 0))
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "polish"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert "mode 1 polish" in capsys.readouterr().err
    assert not out.exists()


def test_cli_dense_pencil_allocation_failure_exits_numerical(tmp_path, monkeypatch, capsys):
    # mmap fails with an OSError, which the CLI would report as a config error
    def unmappable(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")
    monkeypatch.setattr(bischro.spectrum.mmap, "mmap", unmappable)
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "dense"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert "numerical error: cannot allocate a 126-square dense pencil" in capsys.readouterr().err
    assert not out.exists()


def test_cli_observability_threads_match_serial(tmp_path):
    text = MINIMAL.replace("kind = spectrum", "kind = observability")
    text = text.replace("modes = 6", "modes = 6\nhorizons = [0.1, 0.5, 1.0]")
    cfg = _write(tmp_path, text)
    a, b = tmp_path / "ser", tmp_path / "par"
    assert main(["observability", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["observability", "--config", cfg, "--out", str(b),
                 "--threads", "3"]) == EXIT_OK
    assert (a / "observability.csv").read_bytes() == (b / "observability.csv").read_bytes()


CONTROL_CFG = """
[experiment]
kind = control
elements = 64
modes = 6
horizons = [0.5]

[profile]
length = 1.0
rho_poly = [1.0]
sigma_poly = [1.0]
q_poly = [0.0]

[initial]
coefficients = [(1, 1.0, 0.0), (2, 1.0, 0.0)]
"""


@pytest.mark.parametrize("old, new", [
    ("horizons = [0.5]", "horizons = [True]"),
    ("horizons = [0.5]", "horizons = [1e999]"),
    ("length = 1.0", "length = True"),
    ("length = 1.0", "length = 1e999"),
    ("rho_poly = [1.0]", "rho_poly = [True]"),
    ("rho_poly = [1.0]", "rho_poly = [1.0, -1e999]"),
    ("sigma_poly = [1.0]", "sigma_samples = [(0.0, 1.0), (True, 1.0)]"),
    ("sigma_poly = [1.0]", "sigma_samples = [(0.0, 1.0), (1.0, 1e999)]"),
    ("(2, 1.0, 0.0)", "(True, 1.0, 0.0)"),
    ("(2, 1.0, 0.0)", "(2, 1e999, 0.0)"),
    ("(2, 1.0, 0.0)", "(2, 1.0, False)"),
    ("horizons = [0.5]", "horizons = [0.5, 1.0]"),
    ("horizons = [0.5]", "horizons = [0.5]\nquadrature_order = 1"),
    ("elements = 64", "elements = 4"),
    ("elements = 64", "elements = 9"),
    ("modes = 6", "modes = 200"),
    ("(2, 1.0, 0.0)", "(7, 1.0, 0.0)"),
])
def test_cli_rejects_bools_and_nonfinite_numbers(tmp_path, capsys, old, new):
    # the offending value sits on the last line of the replacement
    text = CONTROL_CFG.replace(old, new)
    bad = new.splitlines()[-1]
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if bad in line)
    cfg = _write(tmp_path, text)
    assert main(["control", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"line {lineno}:" in err
    if bad.startswith("elements"):
        # a mesh under ten elements would certify no mode; the key names the minimum
        assert f"line {lineno}: elements must be an integer >= 10, got" in err
    assert not (tmp_path / "o").exists()


def _without(text, line):
    assert f"\n{line}\n" in text
    return text.replace(f"\n{line}\n", "\n", 1)


@pytest.mark.parametrize("command, text, message", [
    ("spectrum", MINIMAL.replace("modes = 6", "modes = 6\nbogus"),
     "line 6: expected 'key = value', got 'bogus'"),
    ("spectrum", "modes = 6\n" + MINIMAL, "line 1: key outside any [section]"),
    ("spectrum", MINIMAL.replace("modes = 6", "modes = 6\nmodes = 6"),
     "line 6: duplicate key 'modes'"),
    ("spectrum", MINIMAL + "[extra]\nfoo = 1\n", "line 12: unknown section [extra]"),
    ("spectrum", _without(MINIMAL, "modes = 6"), "missing required experiment key 'modes'"),
    ("control", CONTROL_CFG + "[initial]\ncoefficients = [(1, 1.0, 0.0)]\n",
     "config may contain at most one initial section"),
    ("spectrum", _without(MINIMAL, "q_poly = [0.0]"),
     "profile needs exactly one of q_poly or q_samples"),
    ("spectrum",
     MINIMAL.replace("rho_poly = [1.0]", "rho_poly = [1.0]\nrho_samples = [(0, 1), (1, 1)]"),
     "line 9: profile needs exactly one of rho_poly or rho_samples"),
    ("control", MINIMAL, "config kind='spectrum' does not match subcommand 'control'"),
    ("control", _without(CONTROL_CFG, "horizons = [0.5]"), "kind=control requires a horizons list"),
    ("control", CONTROL_CFG.partition("[initial]")[0],
     "kind=control requires an [initial] section"),
    ("control", CONTROL_CFG.replace("horizons = [0.5]", "horizons = [0.5, 1.0]"),
     "line 6: kind=control needs exactly one horizon, got 2"),
    ("spectrum", MINIMAL.replace("modes = 6", "modes = 200"),
     "line 5: modes must be at most 126, the constrained dimension of 64 elements, got 200"),
], ids=["not_key_value", "outside_section", "duplicate_key", "unknown_section",
        "missing_required", "two_initial", "no_coefficient", "two_coefficients",
        "kind_mismatch", "no_horizons", "no_initial", "two_horizons", "too_many_modes"])
def test_cli_config_grammar_refusals(tmp_path, capsys, command, text, message):
    out = tmp_path / "o"
    assert main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_cli_residual_gate_exits_numerical(tmp_path, monkeypatch, capsys):
    # with no tolerance and no floor every honest residual exceeds the gate
    monkeypatch.setattr(bischro.spectrum, "RESIDUAL_TOL", 0.0)
    monkeypatch.setattr(bischro.spectrum, "RESIDUAL_FLOOR_FACTOR", 0.0)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", _write(tmp_path, MINIMAL),
                 "--out", str(out)]) == EXIT_NUMERICAL
    assert re.fullmatch(r"numerical error: mode 1 residual \S+ exceeds gate 0\.000e\+00\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_cli_control_run(tmp_path, capsys):
    cfg = _write(tmp_path, CONTROL_CFG)
    out = tmp_path / "ctl"
    assert main(["control", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "control_report.json").read_text())
    assert doc["schema"] == "control-v1"
    assert doc["T"] == 0.5
    assert doc["N"] == 6
    assert doc["residual_final"] <= 1e-8
    assert doc["hum_agreement_l2"] <= 1e-8
    assert doc["method"] == "moment"
    lines = (out / "control.csv").read_text().splitlines()
    assert lines[1] == "t,re_f,im_f"
    assert len(lines) == 2 + 2001


def test_cli_control_conditioning_refusal_by_horizon_bisection(tmp_path, capsys):
    # shrink the horizon until the Gram condition cap triggers; the failing
    # run must leave no partial outputs behind
    T = 1e-3
    code = None
    out = None
    for k in range(16):
        out = tmp_path / f"ctl{k}"
        cfg = _write(tmp_path, CONTROL_CFG.replace("[0.5]", f"[{T!r}]"))
        code = main(["control", "--config", cfg, "--out", str(out)])
        if code == EXIT_CONDITIONING:
            break
        assert code == EXIT_OK
        T /= 4.0
    assert code == EXIT_CONDITIONING
    assert "condition" in capsys.readouterr().err
    assert not out.exists()


def test_cli_condition_cap_is_an_unknown_key(tmp_path, capsys):
    # the Gram-condition cap is the fixed control.CONDITION_CAP
    text = CONTROL_CFG.replace("horizons = [0.5]", "horizons = [0.5]\ncondition_cap = 1e12")
    lineno = text.splitlines().index("condition_cap = 1e12") + 1
    out = tmp_path / "o"
    assert main(["control", "--config", _write(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    assert f"line {lineno}: unknown experiment key 'condition_cap'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_output_is_an_unknown_key(tmp_path, capsys):
    # the output directory is named by --out alone
    text = CONTROL_CFG.replace("horizons = [0.5]", "horizons = [0.5]\noutput = x")
    lineno = text.splitlines().index("output = x") + 1
    out = tmp_path / "o"
    assert main(["control", "--config", _write(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    assert f"line {lineno}: unknown experiment key 'output'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_defaults_to_out(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, MINIMAL)
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--config", cfg]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["spectrum.csv"]
    assert f"wrote: {Path('out', 'spectrum.csv')}" in capsys.readouterr().out


def test_run_writes_into_the_directory_it_is_given(tmp_path):
    lines = bischro.cli.run(parse_config(MINIMAL), tmp_path / "o")
    assert lines[-1] == f"wrote: {tmp_path / 'o' / 'spectrum.csv'}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]


def test_cli_simulate_states(tmp_path):
    text = CONTROL_CFG.replace("kind = control", "kind = simulate")
    text = text.replace("[0.5]", "[0.25, 0.5]")
    cfg = _write(tmp_path, text)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for k in (0, 1):
        lines = (out / f"state_{k:03d}.csv").read_text().splitlines()
        assert lines[0] == "# schema: state-v1"
        assert lines[1] == "n,re_c,im_c"
        assert len(lines) == 2 + 6
    # free evolution preserves magnitudes
    rows = [line.split(",") for line in lines[2:]]
    mags = [abs(complex(float(r[1]), float(r[2]))) for r in rows]
    assert mags[0] == pytest.approx(1.0, rel=1e-12)
    assert mags[1] == pytest.approx(1.0, rel=1e-12)
    assert mags[2] == pytest.approx(0.0, abs=1e-12)


def test_cli_initial_coefficient_out_of_range(tmp_path, capsys):
    text = CONTROL_CFG.replace("(2, 1.0, 0.0)", "(40, 1.0, 0.0)")
    lineno = text.splitlines().index("coefficients = [(1, 1.0, 0.0), (40, 1.0, 0.0)]") + 1
    cfg = _write(tmp_path, text)
    assert main(["control", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert f"line {lineno}:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_repeated_initial_mode_is_config_error(tmp_path, capsys):
    text = CONTROL_CFG.replace("(2, 1.0, 0.0)", "(1, 2.0, 0.0), (3, 0.0, 1.0), (3, 1.0, 0.0)")
    lineno = next(i for i, line in enumerate(text.splitlines(), 1)
                  if line.startswith("coefficients"))
    cfg = _write(tmp_path, text.replace("kind = control", "kind = simulate"))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: line {lineno}: coefficients repeat "
                                       "mode indices [1, 3]\n")
    assert not out.exists()


FRESH_CONFIGS = {
    "spectrum": "modes = 6\nexport_matrices = true",
    "asymptotics": "modes = 6",
    "observability": "modes = 6\nhorizons = [0.05, 0.5, 1.0]",
    "control": "modes = 6\nhorizons = [0.5]",
    "simulate": "modes = 6\nhorizons = [0.25, 0.5, 1.0]",
}


def test_cli_fresh_process_artifacts_match_in_process(tmp_path, capsys):
    # caches and thread counts left by earlier calls must not move a byte:
    # every kind run in this process writes what one fresh process writes
    base = MINIMAL.replace("sigma_poly = [1.0]",
                           "sigma_samples = [(0.0, 1.0), (0.5, 1.3), (1.0, 1.1)]")
    argvs = {"warm": [], "fresh": []}
    for kind, keys in FRESH_CONFIGS.items():
        text = base.replace("kind = spectrum", f"kind = {kind}").replace("modes = 6", keys)
        if kind in ("control", "simulate"):
            text += "\n[initial]\ncoefficients = [(1, 1.0, 0.0), (2, 0.0, 1.0)]\n"
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(text)
        for side in argvs:
            argvs[side].append([kind, "--config", str(cfg), "--out", str(tmp_path / side / kind)])
    for argv in argvs["warm"]:
        assert main(argv) == EXIT_OK
    src = str(Path(bischro.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = ("import json, sys; from bischro.cli import main; "
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(argvs["fresh"])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr

    def artifacts(side):
        root = tmp_path / side
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    warm = artifacts("warm")
    assert len(warm) == 12
    assert artifacts("fresh") == warm


def test_cli_export_matrices(tmp_path):
    # the exported lower triangles rebuild both bands bit for bit
    text = MINIMAL.replace("modes = 6", "modes = 6\nexport_matrices = true")
    text = text.replace("rho_poly = [1.0]", "rho_poly = [1.0, 1.0]")
    text = text.replace("q_poly = [0.0]", "q_poly = [0.0, 1.0, -1.0]")
    cfg = _write(tmp_path, text)
    out = tmp_path / "mats"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    config = parse_config(text)
    op = assemble(build_profile(config.profile_spec), config.elements)
    for name, band in (("stiffness", op.kband), ("mass", op.mband)):
        lines = (out / f"{name}.csv").read_text().splitlines()
        assert lines[:2] == ["# schema: matrix-v1", "row,col,value"]
        entries = [line.split(",") for line in lines[2:]]
        keys = [(int(r), int(c)) for r, c, _ in entries]
        assert keys == sorted(keys)
        assert all(r >= c for r, c in keys)
        rebuilt = np.zeros_like(band)
        for (r, c), (_, _, v) in zip(keys, entries):
            rebuilt[r - c, c] = float(v)
        assert np.array_equal(rebuilt, band)


def test_csv_renders_columns_exactly():
    table = {"n": [1, 2], "k": np.array([3, -4]), "x": np.array([0.1, 1.0 / 3.0])}
    assert bischro.cli._csv("demo", table) == (
        "# schema: demo-v1\n"
        "n,k,x\n"
        "1,3,0.10000000000000001\n"
        "2,-4,0.33333333333333331\n"
    )
    # integers of any width print whole, bools as 0/1, a list mixing ints
    # and floats as floats, and the IEEE specials as Python spells them
    table = {"int": [7, -8, 0, 2**62],
             "np_int": np.array([1, 2, 3, 2**64 - 1], dtype=np.uint64),
             "np_bool": np.array([True, False, True, False]),
             "bool": [False, True, True, False],
             "mixed": [1, 2.5, -3, 0.1],
             "special": np.array([-0.0, np.nan, -np.inf, 5e-324])}
    assert bischro.cli._csv("demo", table) == (
        "# schema: demo-v1\n"
        "int,np_int,np_bool,bool,mixed,special\n"
        "7,1,1,0,1,-0\n"
        "-8,2,0,1,2.5,nan\n"
        "0,3,1,1,-3,-inf\n"
        "4611686018427387904,18446744073709551615,0,0,0.10000000000000001,"
        "4.9406564584124654e-324\n"
    )


def test_csv_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError):
        bischro.cli._csv("demo", {"n": np.arange(3), "x": np.zeros(2)})


def test_artifact_digest_covers_every_kind(tmp_path):
    from bischro.config import KINDS

    from .artifact_digest import SPECTRUM_ARRAYS, digest
    sums = digest(tmp_path, [(kind, "sampled", 64) for kind in KINDS], [("sampled", 64, 8)])
    names = [line.split("  ", 1)[1] for line in sums.splitlines()]
    # the CLI runs' files, then one line per array of the solve
    solved = [f"solve-sampled-64x8/{name}" for name in SPECTRUM_ARRAYS]
    assert names[-len(solved):] == solved
    names = names[:-len(solved)]
    assert {name.split("-")[0] for name in names} == set(KINDS)
    assert (tmp_path / "SHA256SUMS").read_text() == sums
    for kind in KINDS:
        record = (tmp_path / f"{kind}-sampled-64" / "stdout.txt").read_text()
        assert record.startswith(f"exit: 0\nkind: {kind}\n")
        assert str(tmp_path) not in record
        assert f"{kind}-sampled-64/out/" in "\n".join(names)
