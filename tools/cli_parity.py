"""Run the README's command lines under two source trees and compare them.

    python tools/cli_parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `samplets` package (a
checkout's `src`).  The command lines of README's "Command line" block run
in order, in one fresh directory per tree and cloud, on a values column
(`pts.csv`) over two clouds: a random 2-d cloud of `N_SITES` sites (seed 0)
takes every line; a jittered 16^3 grid in 3-d (seed 1), whose balanced
tree reads every interior group's rows as one run and whose moments reach
degree 3 in three variables, takes the lines without a kernel.  Both have
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


def clouds():
    """(name, sites, values, argvs) of each cloud."""
    argvs = command_lines()
    pts = np.random.default_rng(0).random((N_SITES, 2))
    yield "2-d", pts, np.exp(pts[:, 0]) * np.sin(3 * pts[:, 1]), argvs
    rng = np.random.default_rng(1)
    cells = np.stack(np.meshgrid(*[np.arange(16)] * 3, indexing="ij"), -1)
    grid = (cells.reshape(-1, 3) + 0.1 + 0.8 * rng.random((4096, 3))) / 16
    grid = grid[rng.permutation(4096)]
    vals = np.exp(grid @ [1.0, -0.5, 0.25]) + (grid[:, 0] > 0.5)
    yield "3-d grid", grid, vals, [argv for argv in argvs if "--kernel" not in argv]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args()
    same = True
    for name, pts, vals, argvs in clouds():
        header = ",".join([f"x{i}" for i in range(pts.shape[1])] + ["value"])
        table = np.column_stack([pts, vals]).tolist()
        rows = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table)
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [Path(tmp) / "old", Path(tmp) / "new"]
            runs = []
            for src, work in zip((args.old_src, args.new_src), dirs):
                work.mkdir()
                (work / "pts.csv").write_text(header + "\n" + rows)
                runs.append(run_all(src, work, argvs))
            for argv, old, new in zip(argvs, *runs):
                (old_code, old_err, old_made), (new_code, new_err, new_made) = old, new
                differ = [
                    f for f in sorted(set(old_made) | set(new_made))
                    if not all((d / f).is_file() for d in dirs)
                    or (dirs[0] / f).read_bytes() != (dirs[1] / f).read_bytes()
                ]
                ok = old_code == new_code and old_err == new_err and not differ
                same &= ok
                print(
                    f"{'same' if ok else 'DIFF'} {name}: exit {old_code}/{new_code} "
                    f"stderr {'same' if old_err == new_err else 'DIFF'} "
                    f"files {len(old_made)}/{len(new_made)} differ {differ}: "
                    f"samplets {shlex.join(argv)}"
                )
    sys.exit(0 if same else 1)


if __name__ == "__main__":
    main()
