"""The README's list of cell keys and methods, its problem keys by kind,
and its table of the surrogate settings each method reads, agree with the
harness."""

import os
import re

from approxnewton.experiments import (
    CELL_KEYS,
    EMBEDDING_PROBLEM,
    PROBLEM_KEYS,
    ExperimentConfig,
    run_experiment,
)
from approxnewton.solvers import METHOD_SETTINGS

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# what each listed method needs besides its name to take a step
METHOD_PARAMS = {
    "sketched": {"sketch_kind": "gaussian", "sketch_size": 20},
    "subsampled": {"sample_size": 20},
    "regularized_subsampled": {"sample_size": 20, "alpha": 0.1},
    "newsamp": {"sample_size": 20, "rank": 1},
}


def readme_text():
    with open(README) as fh:
        return fh.read()


def cell_keys_sentence():
    """The README sentence that starts with "Cell keys:", joined to one line."""
    text = " ".join(readme_text().split())
    match = re.search(r"Cell keys: (.*?)\. ", text)
    assert match, "README has no 'Cell keys:' sentence"
    return match.group(1)


def test_readme_cell_keys_match_harness():
    outside_parentheses = re.sub(r"\([^)]*\)", "", cell_keys_sentence())
    assert set(re.findall(r"`(\w+)`", outside_parentheses)) == CELL_KEYS


def test_readme_problem_keys_match_harness():
    """Each "kind: required; optional" line under "keys by kind"."""
    block = readme_text().split("# keys by kind, required then optional:\n", 1)
    assert len(block) == 2, "README has no 'keys by kind' list"
    listed = {}
    for line in block[1].splitlines():
        match = re.fullmatch(r"\s*#\s+(\w+):([^;]*);([^(]*)(\(.*\))?", line)
        if not match:
            break
        kind, required, optional, _ = match.groups()
        listed[kind] = (set(re.findall(r"\w+", required)),
                        set(re.findall(r"\w+", optional)))
    assert listed == {**PROBLEM_KEYS, **EMBEDDING_PROBLEM}


def test_readme_methods_take_a_step(tmp_path):
    listed = re.search(r"`method` \(([^)]*)\)", cell_keys_sentence())
    methods = [m.strip() for m in listed.group(1).split("|")]
    assert "full_newton" in methods and "gradient_descent" in methods
    cfg = ExperimentConfig(
        experiment="custom",
        problem={"kind": "synthetic", "n": 40, "d": 4, "decay": 1.5, "seed": 3},
        grid=[dict(METHOD_PARAMS.get(m, {}), label=m, method=m) for m in methods],
        seeds=[0],
        output_dir=str(tmp_path),
        max_iters=1,
        workers=1,
    )
    assert run_experiment(cfg) == 0
    with open(tmp_path / "summary.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert {row[0] for row in rows} == {f"{m}_s0" for m in methods}
    assert all(int(row[3]) == 1 for row in rows), rows


def test_readme_method_settings_match_solver():
    header = "| method | surrogate settings it reads |\n| --- | --- |\n"
    text = readme_text()
    assert header in text, "README has no table of the settings each method reads"
    listed = {}
    for row in text.split(header, 1)[1].split("\n\n", 1)[0].splitlines():
        method, settings = row.strip("|").split("|")
        listed[method.strip().strip("`")] = set(re.findall(r"`(\w+)`", settings))
    assert listed == {method: set(row) for method, row in METHOD_SETTINGS.items()}
