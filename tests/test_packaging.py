from pathlib import Path

import pytest

import localhom

tomllib = pytest.importorskip("tomllib")


def test_pyproject_matches_package():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = tomllib.loads(text)["project"]
    assert project["name"] == "localhom"
    assert project["version"] == localhom.__version__
    assert not any("numba" in dep for dep in project["dependencies"])
