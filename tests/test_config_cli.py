import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from bischro import ConfigError, assemble, build_profile, parse_config
from bischro.cli import EXIT_CONDITIONING, EXIT_CONFIG, EXIT_OK, entry, main

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
    assert cfg.quadrature_order == 4
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
    text = CONTROL_CFG.replace("horizons = [0.5]", "horizons = [0.5]\n"
                               "quadrature_order = 6\noutput = runs/ctl\n"
                               "condition_cap = 1e10\nexport_matrices = true")
    commented = "\n".join(line + "  # note" if "=" in line else line
                           for line in text.splitlines())
    assert commented.count("# note") == 13  # every key of the config
    assert parse_config(commented) == parse_config(text)


def test_quoted_output_keeps_hash():
    cfg = parse_config(MINIMAL.replace("modes = 6", "modes = 6\noutput = 'a#b'  # c"))
    assert cfg.output == "a#b"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_configs_parse():
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        parse_config(block)


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
    ("horizons = [0.5]", "horizons = [0.5]\ncondition_cap = True"),
    ("horizons = [0.5]", "horizons = [0.5]\ncondition_cap = 1e999"),
    ("length = 1.0", "length = True"),
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
    assert f"line {lineno}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
