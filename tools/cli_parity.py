"""Run the README's command lines under two source trees and compare them.

    python tools/cli_parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `samplets` package (a
checkout's `src`).  The command lines of README's "Command line" block run
in order, in one fresh directory per tree, on one random 2-d cloud of
`N_SITES` sites (seed 0) with a values column (`pts.csv`).  The cloud has
more sites than README's `subsample -n 1000` asks for, so that line runs
too.  Prints one line per command: its exit codes, whether stderr is
identical and which output files differ; exits 1 if any exit code, stderr
or output byte differs.
"""

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"
N_SITES = 1100


def command_lines():
    """The argv (after `samplets`) of each line of README's command block."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    return [line[1:] for line in lines if line and line[0] == "samplets"]


def run_all(src, work, argvs):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    results = []
    for argv in argvs:
        before = set(work.iterdir())
        proc = subprocess.run(
            [sys.executable, "-m", "samplets.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True,
        )
        made = sorted(p.name for p in set(work.iterdir()) - before)
        results.append((proc.returncode, proc.stderr, made))
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args()
    pts = np.random.default_rng(0).random((N_SITES, 2))
    vals = np.exp(pts[:, 0]) * np.sin(3 * pts[:, 1])
    rows = "".join(f"{x:.17g},{y:.17g},{v:.17g}\n" for (x, y), v in zip(pts, vals))
    argvs = command_lines()
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "old", Path(tmp) / "new"]
        runs = []
        for src, work in zip((args.old_src, args.new_src), dirs):
            work.mkdir()
            (work / "pts.csv").write_text("x0,x1,value\n" + rows)
            runs.append(run_all(src, work, argvs))
        same = True
        for argv, (old_code, old_err, old_made), (new_code, new_err, new_made) in zip(
            argvs, *runs
        ):
            differ = [
                name for name in sorted(set(old_made) | set(new_made))
                if not ((dirs[0] / name).is_file() and (dirs[1] / name).is_file()
                        and (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes())
            ]
            ok = old_code == new_code and old_err == new_err and not differ
            same &= ok
            print(
                f"{'same' if ok else 'DIFF'} exit {old_code}/{new_code} "
                f"stderr {'same' if old_err == new_err else 'DIFF'} "
                f"files {len(old_made)}/{len(new_made)} differ {differ}: "
                f"samplets {shlex.join(argv)}"
            )
    sys.exit(0 if same else 1)


if __name__ == "__main__":
    main()
