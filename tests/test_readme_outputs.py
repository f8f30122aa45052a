"""The README's example commands write data files with pinned sha256s.

Each `ambec ...` line of the README's Command line block runs in-process
through `cli.main`, in one directory, so the manifests point at their
inputs by relative path as in the README.  A change that moves the bytes
of a data file declares it in CHANGES.md and updates its hash here.
Manifests carry a wall time, so they are not pinned.
"""
import hashlib
import shlex
from pathlib import Path

from ambec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

SHA256 = {
    "rec.json":
        "1b0e6b5a7be0b126b8745154fbb00f4dec23754ea988852c5e10d18bdca1be61",
    "cat.json":
        "42c6028e9628acf6ec1ea5a68e48e2bd2ada5dfb4c717912ed3ba10cdfdcdb2d",
    "cat3.json":
        "8d952a272f7ba4b0c57ab2bb20aa85a9fe796d413042a6f7d2c7750c7e0c5b47",
    "profile.csv":
        "f0782149f85153835fd137ccc61cb50dc6fccea1ade9dbc4b5460749b0f92597",
    "potential.csv":
        "1e28e6fb2af44a68b0ce58ab551e3bb8feca1df75e1ae7681664255362593838",
    "residual.csv":
        "46cb647781e8f80c437c97b1bf70bfbeba4e5dd470ec38182b449da8a9b35123",
    "evolve.csv":
        "6feba0ea24eff4bbd6ddb364073eb6307725ea62e9f25648f01a43aef7424c14",
    "wigner.csv":
        "2df6dcd87916fe66cabf96e8e484bbf18798971edf5e9b14a1a76ad36356db61",
    "wigner.metrics.json":
        "3dc2d19a77469241c6c23bc29ed260d3fc638f786e97abf359b8449854b650f4",
    "cat_w.csv":
        "317d02a2d244b534b5bf76e8289aa8e83fe4f3d7ec5c26eedc34059971cf2711",
    "cat_w.metrics.json":
        "a58f7a83f07e4e9688c710e5e65db863e809ea67947cac9ec1176c02d95afe53",
    "scan.csv":
        "8b6a4fbba53bcfbeef5ea55c16fa76fceac5e2bda6088506701c604435b1cd00",
}


def readme_commands():
    """argv of each `ambec` line in the README's Command line example,
    with backslash continuations joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("ambec ")]


def test_readme_commands_write_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "solve", "solve", "solve", "profile", "potential", "residual",
        "evolve", "wigner", "wigner", "scan"]
    for argv in commands:
        assert main(argv) == 0, argv
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()
               if not path.name.endswith(".manifest.json")}
    assert written == SHA256
