import os
import re

import dyson_laguerre

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_version_matches_pyproject():
    # manifests record __version__ as their artifact version, so it must be
    # the version the package is built and installed as
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project.group(1), re.M)
    assert version, "[project] sets no version"
    assert dyson_laguerre.__version__ == version.group(1)
