"""The documentation suite stays real: the README's quickstart block is
extractable (CI executes it verbatim), every file the README links
exists, and the scenario-authoring guide's companion example runs.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme() -> str:
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_quickstart_block_is_extractable():
    text = _readme()
    match = re.search(r"<!-- quickstart:begin -->(.*?)<!-- quickstart:end -->", text, re.S)
    assert match, "README.md must keep the quickstart markers CI extracts"
    commands = [
        line
        for line in match.group(1).splitlines()
        if line.strip() and not line.startswith(("#", "```"))
    ]
    assert commands, "quickstart block has no commands"
    # every command is self-contained: runnable from a bare checkout
    for cmd in commands:
        assert cmd.startswith("PYTHONPATH=src python -m "), cmd


def test_readme_links_resolve():
    for rel in re.findall(r"\]\(([^)#:]+)\)", _readme()):
        assert os.path.exists(os.path.join(REPO, rel)), f"README links missing {rel}"


def test_docs_exist_and_anchor_the_new_subsystem():
    for rel, needle in (
        ("docs/architecture.md", "ShardedReplayEngine"),
        ("docs/architecture.md", "The policy seam"),
        ("docs/architecture.md", "policy:family:name"),
        ("docs/scenario-authoring.md", "example-round-sweep"),
        ("docs/scenario-authoring.md", "Registering a custom policy"),
        ("docs/scenario-authoring.md", "freshest-first"),
        ("docs/architecture.md", "TelemetryBus"),
        ("docs/scenario-authoring.md", "ambient_bus"),
        ("README.md", "repro.core.policies"),
        ("README.md", "repro.telemetry"),
    ):
        path = os.path.join(REPO, rel)
        assert os.path.exists(path), rel
        with open(path, encoding="utf-8") as fh:
            assert needle in fh.read(), f"{rel} lost its {needle} section"


def test_custom_scenario_example_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "examples", "custom_scenario.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Example sweep" in proc.stdout
    assert "LIFL" in proc.stdout and "SL-H" in proc.stdout


def test_custom_policy_example_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "examples", "custom_policy.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "freshest-first served" in proc.stdout
    assert "determinism holds" in proc.stdout


def test_setup_metadata_matches_the_package():
    from repro import __version__

    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["repro", __version__]
