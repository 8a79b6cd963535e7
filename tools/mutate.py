"""Mutation pass: does tier-1 catch a one-operator change in the numeric modules?

Each mutant swaps one operator (``+``/``-``, ``*``/``/``, ``**`` to ``*``,
``<``/``<=``, ``>``/``>=``) in ``states``, ``interferometer``, ``budget``,
``estimate`` or ``config``, writes the five modules through ``ast.unparse`` into
a fresh temporary copy of the checkout (the working tree is never touched),
and runs tier-1 there with ``-x``.  A mutant whose run fails is killed; one
that passes survives, unless ``tools/equivalent_mutants.txt`` lists it as
reviewed.  A control run, with every module unparsed and nothing mutated,
must pass first.

    python tools/mutate.py                   # 40 sites drawn with seed 1
    python tools/mutate.py --sample 0        # every site

Not part of tier-1: each surviving mutant costs a full tier-1 run.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("states", "interferometer", "budget", "estimate", "config")
SEED = 1
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
IGNORED = shutil.ignore_patterns(".git", "_runs", "__pycache__", ".hypothesis", ".pytest_cache", "*.spread.json")


def sites(module: str) -> list[tuple[str, int, int, str]]:
    """(module, index of the node in ast.walk order, index of the operator in it, key) for each
    operator that can be swapped; the key names the node's source span and the swap."""
    tree = ast.parse((ROOT / "src" / "sqznb" / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if not isinstance(node, (ast.BinOp, ast.AugAssign, ast.Compare)):
            continue
        for nth, op in enumerate(node.ops if isinstance(node, ast.Compare) else [node.op]):
            if type(op) in SWAPS:
                span = f"{node.lineno}:{node.col_offset}-{node.end_col_offset}" + (f"#{nth}" if nth else "")
                swap = f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"
                found.append((module, index, nth, f"{module}.py:{span} {swap}"))
    return found


def mutated_sources(site=None) -> dict[str, str]:
    """Every module through ast.unparse, with the one operator at ``site`` swapped."""
    out = {}
    for module in MODULES:
        tree = ast.parse((ROOT / "src" / "sqznb" / f"{module}.py").read_text(encoding="utf-8"))
        if site and site[0] == module:
            node = list(ast.walk(tree))[site[1]]
            if isinstance(node, ast.Compare):
                node.ops[site[2]] = SWAPS[type(node.ops[site[2]])]()
            else:
                node.op = SWAPS[type(node.op)]()
        out[module] = ast.unparse(tree) + "\n"
    return out


def run_tier1(sources: dict[str, str], timeout: float) -> str:
    """"survived", "killed" or "timeout" for tier-1 on a temporary copy of the checkout with ``sources``."""
    with tempfile.TemporaryDirectory(prefix="sqznb-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for module, text in sources.items():
            (copy / "src" / "sqznb" / f"{module}.py").write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "survived" if done.returncode == 0 else "killed"


def reviewed() -> set[str]:
    """Keys of the mutants listed as equivalent, each line "<key>: <reason>"."""
    path = ROOT / "tools" / "equivalent_mutants.txt"
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    return {line.partition(": ")[0] for line in lines if line.strip() and not line.startswith("#")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--sample", type=int, default=40, help="sites to draw; 0 runs every site")
    args = parser.parse_args()

    every = [site for module in MODULES for site in sites(module)]
    chosen = every if args.sample <= 0 else sorted(random.Random(SEED).sample(every, args.sample), key=every.index)
    start = time.perf_counter()
    if run_tier1(mutated_sources(), timeout=1800) != "survived":
        print("control run (unparsed, unmutated) failed: no mutant can be scored", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    timeout = 3 * elapsed + 60  # a mutant that loops counts as killed
    print(f"control passed in {elapsed:.0f} s; {len(chosen)} of {len(every)} sites, seed {SEED}")

    equivalent, score = reviewed(), {module: [0, 0] for module in MODULES}
    for site in chosen:
        outcome = run_tier1(mutated_sources(site), timeout)
        if outcome == "survived" and site[3] in equivalent:
            outcome = "equivalent"
        else:
            score[site[0]][0] += outcome != "survived"
            score[site[0]][1] += 1
        print(f"{outcome:10} {site[3]}", flush=True)
    for module, (killed, total) in score.items():
        print(f"{module:15} {killed}/{total} killed" + (f" ({killed / total:.0%})" if total else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
