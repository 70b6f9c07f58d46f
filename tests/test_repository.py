import dataclasses
import importlib.util
import inspect
import json
import shutil
import subprocess
from pathlib import Path

import pytest

import bccrates
from bccrates import chain, frontier, probability, simulate

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_ignored():
    # generated files (build outputs, egg-info) belong in .gitignore, not in git
    listed = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    assert listed.stdout.split() == []



# a speed claim counts only through a run record with these keys
RUN_RECORD_KEYS = ("topic", "what", "machine", "commits", "config", "end_to_end")


def test_run_records_are_machine_readable():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record, dict), path.name
        assert [key for key in RUN_RECORD_KEYS if key not in record] == [], path.name

# the dense-joint toolkit and test-only helpers that left the package; the
# oracle that replaces them lives in tests/helpers.py
RETIRED = ("JointPmf", "build_joint", "JOINT_AXES", "conditional_mutual_information",
           "conditional_entropy", "_merged_marginal", "product_extend", "PRODUCT_SIZE_GUARD",
           "binary_convolution")


def test_retired_names_stay_gone():
    for module in (bccrates, probability, chain):
        assert [name for name in RETIRED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(bccrates.Pmf, "entropy")
    assert not hasattr(bccrates.Dmc, "row")
    # size guards are module constants, not per-call knobs, and supporting
    # lines take the slopes of the lattice hull's edges, not a slope grid
    fields = [f.name for f in dataclasses.fields(bccrates.GridSpec)]
    assert [name for name in ("cell_guard", "mu_max", "mu_step") if name in fields] == []
    for check in (bccrates.is_more_capable, bccrates.is_degraded):
        assert "guard" not in inspect.signature(check).parameters
    # every cell is gathered from the input-law lattice: the letter-plane and
    # full-grid sweeps and their grid helpers live on as test oracles only
    assert importlib.util.find_spec("bccrates._sweep_py") is None
    for module, name in ((frontier, "_general_sweep"), (frontier, "_product_blocks"),
                         (frontier, "_simplex_grid"), (frontier, "_sweep_frontier"),
                         (frontier, "_fold_sim_cells"),
                         # one block object evaluates three-layer codebooks
                         (simulate, "_BccTables"), (simulate._Block, "x"),
                         # no slope grid
                         (bccrates.GridSpec, "mu_values")):
        assert not hasattr(module, name), name
    assert list(inspect.signature(frontier._simplex_lattice).parameters) == ["m", "k"]
