"""SHA-256 digest of every CLI artifact over a fixed set of configs.

Run from the repository root as

    PYTHONPATH=src python -m tests.artifact_digest OUTDIR

It runs the 45 configs of :data:`RUNS` (five kinds, three profiles,
E = 64, 256 and 512 elements) through :func:`bischro.cli.main`, each
into ``OUTDIR/<run>/``, keeps each run's exit code, stdout and stderr
in ``OUTDIR/<run>/stdout.txt`` with ``OUTDIR`` masked, and writes
``OUTDIR/SHA256SUMS`` with one ``<sha256>  <run>/<file>`` line per
file.  It then solves the spectra of :data:`SOLVES` (2048 elements and
206 modes, the benchmark's spectrum-fine shape, on the constant and
sampled profiles) with :func:`bischro.solve_spectrum` and adds one
``<sha256>  solve-<profile>-<E>x<modes>/<array>`` line per array of
:data:`SPECTRUM_ARRAYS`, hashed over its raw float64 bytes.  Two
checkouts run at the same BLAS thread count can then be compared with
``diff A/SHA256SUMS B/SHA256SUMS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from bischro import assemble, build_profile, cli, solve_spectrum
from bischro.config import KINDS, parse_config

PROFILES = {
    "constant": "rho_poly = [1.0]\nsigma_poly = [1.0]\nq_poly = [0.0]\n",
    "polynomial": "rho_poly = [1.0, 0.5]\nsigma_poly = [1.0, 0.5]\nq_poly = [0.0, 0.4, -0.4]\n",
    "sampled": ("rho_poly = [1.0, 0.5]\n"
                "sigma_samples = [(0.0, 1.0), (0.25, 1.2), (0.5, 1.1), (0.75, 1.3), (1.0, 1.25)]\n"
                "q_poly = [0.0, 0.4, -0.4]\n"),
}
ELEMENTS = (64, 256, 512)
HORIZONS = {"observability": "[0.5, 1.0, 2.0]", "control": "[1.0]", "simulate": "[0.25, 1.0]"}
RUNS = [(kind, profile, elements)
        for kind in KINDS for profile in PROFILES for elements in ELEMENTS]
SOLVES = [(profile, 2048, 206) for profile in ("constant", "sampled")]
SPECTRUM_ARRAYS = ("eigenvalues", "modes", "traces", "residuals")


def config_text(kind, profile, elements):
    """The config of one run; its modes are elements // 8."""
    lines = ["[experiment]", f"kind = {kind}", f"elements = {elements}",
             f"modes = {elements // 8}"]
    if kind in HORIZONS:
        lines.append(f"horizons = {HORIZONS[kind]}")
    if kind == "spectrum":
        lines.append("export_matrices = true")
    lines += ["[profile]", "length = 1.0", PROFILES[profile]]
    if kind in ("control", "simulate"):
        lines += ["[initial]", "coefficients = [(1, 1.0, 0.0), (2, 0.0, 0.5), (4, -0.25, 0.25)]"]
    return "\n".join(lines)


def digest(outdir, runs=RUNS, solves=SOLVES):
    """Run ``runs`` into ``outdir``, solve ``solves`` and return the text of
    ``outdir/SHA256SUMS``."""
    outdir = Path(outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    for kind, profile, elements in runs:
        rundir = outdir / f"{kind}-{profile}-{elements}"
        rundir.mkdir(parents=True, exist_ok=True)
        config = rundir / "config.ini"
        config.write_text(config_text(kind, profile, elements), encoding="ascii")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([kind, "--config", str(config), "--out", str(rundir / "out")])
        record = f"exit: {code}\n{out.getvalue()}{err.getvalue()}"
        (rundir / "stdout.txt").write_text(record.replace(str(outdir), "OUTDIR"), encoding="ascii")
    sums = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(outdir).as_posix()}\n"
        for path in sorted(outdir.rglob("*"))
        if path.is_file() and path.name != "SHA256SUMS"
    )
    for profile, elements, modes in solves:
        spec = parse_config(config_text("spectrum", profile, elements)).profile_spec
        sd = solve_spectrum(assemble(build_profile(spec), elements), modes)
        sums += "".join(
            f"{hashlib.sha256(getattr(sd, name).tobytes()).hexdigest()}  "
            f"solve-{profile}-{elements}x{modes}/{name}\n" for name in SPECTRUM_ARRAYS)
    (outdir / "SHA256SUMS").write_text(sums, encoding="ascii")
    return sums


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python -m tests.artifact_digest OUTDIR")
    digest(sys.argv[1])
