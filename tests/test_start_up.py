"""What a fresh process pays for before its first command.

Every CLI call is a new interpreter that imports `goodgradings.cli`, so
the standard-library modules the package pulls in are paid for on every
call.  These tests run the package in a subprocess started with -S:
site start-up runs the `.pth` files of site-packages, and a common one
(a certifi hook that installs a certificate bundle) imports `typing` and
`importlib.resources` before any program code, which would hide what
the package itself imports.  The benchmark's set-up probe uses -S for
the same reason.
"""

import os
import subprocess
import sys
import zipfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# modules no runtime path needs: `typing` (annotations are strings) and
# what `importlib.resources` brings along to read one small JSON file
UNUSED = ("typing", "importlib.resources", "importlib.readers", "tempfile",
          "shutil", "zipfile")


def _python(path, *args):
    """Run `python -S` with `path` as the only PYTHONPATH entry."""
    env = dict(os.environ, PYTHONPATH=str(path))
    return subprocess.run([sys.executable, "-S", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cold_start_imports_only_what_runtime_paths_use():
    probe = ("import sys\n"
             "import goodgradings.cli\n"
             "from goodgradings import exceptional\n"
             "exceptional.tables()\n"
             f"print(' '.join(m for m in {UNUSED!r} if m in sys.modules))\n")
    run = _python(SRC, "-c", probe)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert not loaded, f"importing the CLI loaded {loaded}"


def _cli(path, *argv):
    return _python(path, "-c",
                   "import sys\n"
                   "from goodgradings.cli import main\n"
                   "sys.exit(main(sys.argv[1:]))\n", *argv)


def test_package_runs_from_a_zip(tmp_path):
    archive = tmp_path / "goodgradings.zip"
    package = SRC / "goodgradings"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(SRC).as_posix())
        assert "goodgradings/data/exceptional_tables.json" in zf.namelist()
    run = _python(archive, "-c",
                  "from goodgradings import exceptional\n"
                  "print(exceptional.__file__)\n"
                  "print(len(exceptional.tables()['E6']['orbits']))\n")
    assert run.returncode == 0, run.stderr
    where, orbits = run.stdout.split()
    assert where.startswith(str(archive)), where
    assert orbits == "10"
    argv = ("exceptional", "--algebra", "E6", "--orbit", "A4")
    zipped, source = _cli(archive, *argv), _cli(SRC, *argv)
    assert zipped.returncode == source.returncode == 0, zipped.stderr
    assert zipped.stdout == source.stdout
    assert "A4" in source.stdout
