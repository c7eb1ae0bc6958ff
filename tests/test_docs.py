import json
import re
import shlex
from importlib import resources

from conftest import REPO
from dftmc import RunConfig
from dftmc.cli import build_arg_parser, main


def test_readme_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    # the example opens its tree by a path relative to the repository root
    monkeypatch.chdir(REPO)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["est"].p_hat > 0
    assert capsys.readouterr().out


def _quick_start_transcripts():
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\n(\$ dftmc .*?)```", section, re.S)
    return [block.splitlines() for block in blocks]


def _transcript_pattern(shown):
    """A regex for output that opens with the ``shown`` lines, in order.

    A line of just ``...`` (indented or not) stands for any number of lines.
    """
    return "".join(r"(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n" for line in shown)


def test_readme_quick_start_transcripts_match_the_cli(monkeypatch, capsys):
    transcripts = _quick_start_transcripts()
    assert len(transcripts) == 3
    monkeypatch.chdir(REPO)
    for command, *shown in transcripts:
        assert main(shlex.split(command)[2:]) == 0, command
        output = capsys.readouterr().out
        assert re.match(_transcript_pattern(shown), output), (command, output)


def _readme_run_flags():
    readme = (REPO / "README.md").read_text()
    return readme.split("`run` flags:", 1)[1].split("\n\n", 1)[0]


def _run_actions():
    sub = next(a for a in build_arg_parser()._actions if a.dest == "command")
    return sub.choices["run"]._actions


def test_readme_run_flags_are_the_parsers():
    documented = set(re.findall(r"`(--[a-z-]+)", _readme_run_flags()))
    parsed = {
        option
        for action in _run_actions()
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == parsed


def _run_config_accepts(method):
    try:
        RunConfig(mission_time=1.0, method=method)
    except ValueError:
        return False
    return True


def test_methods_are_one_set_in_readme_parser_schema_and_run_config():
    documented = set(re.search(r"`--method ([a-z|]+)`", _readme_run_flags()).group(1).split("|"))
    parsed = set(next(a for a in _run_actions() if a.dest == "method").choices)
    schema = json.loads(resources.files("dftmc").joinpath("report_schema.json").read_text())
    in_schema = set(schema["properties"]["config"]["properties"]["method"]["enum"])
    # the retired names of forced importance sampling are candidates too
    candidates = documented | parsed | in_schema | {"is", "importance"}
    accepted = {method for method in candidates if _run_config_accepts(method)}
    assert documented == parsed == in_schema == accepted
