"""Rewrite every file under tests/golden/ from the current code.

    PYTHONPATH=src python tests/regen_goldens.py

It builds each golden exactly as ``tests/test_cli.py`` compares it, from the
tables that test reads: the ``verify --json`` report of each config of
``CONFIG_GOLDENS`` (``configs/<name>.json``) and of ``INLINE_GOLDEN_CONFIGS``,
and the ``--dump-geodesics`` CSVs of each metric of ``GEODESIC_GOLDEN_METRICS``,
renamed to the golden's name.  It prints each file with "moved" or "same", so a
change can name in CHANGES.md every golden it moves, and why.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import tempfile

from test_cli import (
    CONFIG_GOLDENS,
    GEODESIC_GOLDEN_METRICS,
    INLINE_GOLDEN_CONFIGS,
    REPO,
    geodesic_golden_config,
    golden_config_path,
    write_config,
)

from finslercheck.cli import main, run_config

GOLDEN = pathlib.Path(REPO) / "tests" / "golden"


def _write(path: pathlib.Path, data: bytes) -> None:
    moved = not path.exists() or path.read_bytes() != data
    path.write_bytes(data)
    print(f"{'moved' if moved else 'same '}  {path.relative_to(REPO)}")


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in list(CONFIG_GOLDENS) + sorted(INLINE_GOLDEN_CONFIGS):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["verify", golden_config_path(name, pathlib.Path(tmp)), "--json"])
            _write(GOLDEN / f"{name}.json", out.getvalue().encode())
        for name in sorted(GEODESIC_GOLDEN_METRICS):
            dump_dir = os.path.join(tmp, name)
            run_config(write_config(pathlib.Path(tmp), geodesic_golden_config(name)), dump_dir=dump_dir)
            metric = GEODESIC_GOLDEN_METRICS[name][0]["name"]
            for i in range(2):
                data = pathlib.Path(dump_dir, f"{metric}_geodesic{i:03d}.csv").read_bytes()
                _write(GOLDEN / "geodesics" / f"{name}_geodesic{i:03d}.csv", data)


if __name__ == "__main__":
    regenerate()
