import re
import shlex

from conftest import REPO
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


def test_readme_run_flags_are_the_parsers():
    readme = (REPO / "README.md").read_text()
    paragraph = readme.split("`run` flags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)", paragraph))
    sub = next(a for a in build_arg_parser()._actions if a.dest == "command")
    parsed = {
        option
        for action in sub.choices["run"]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == parsed
