"""README's Python examples run as written, and the package root exports
exactly the names they import."""

import re
from pathlib import Path

import rfsentry
from rfsentry.dataset import write_synthetic_corpus

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
ROOT_IMPORT = re.compile(r"^from rfsentry import (.+)$", re.MULTILINE)


def test_root_exports_exactly_the_names_readme_imports():
    imported = {name.strip() for line in ROOT_IMPORT.findall(README) for name in line.split(",")}
    assert sorted(rfsentry.__all__) == sorted(imported)
    assert all(hasattr(rfsentry, name) for name in rfsentry.__all__)


def test_library_use_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    (block,) = [b for b in blocks if "cross_validate" in b]
    write_synthetic_corpus(tmp_path / "corpus", n_per_class=2, seed=3)
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["ds"].n_rows == 20
    assert names["report"]["k_folds"] == 10
    assert len(names["comparison"]["bands"]) == 3


def test_dronerf_block_imports_resolve():
    section = README[README.index("## Running against DroneRF") :]
    names = {}
    exec(ROOT_IMPORT.search(section).group(0), names)
    assert callable(names["build_dronerf_manifest"]) and callable(names["save_manifest"])
