import re

from conftest import REPO


def test_readme_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    # the example opens its tree by a path relative to the repository root
    monkeypatch.chdir(REPO)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["est"].p_hat > 0
    assert capsys.readouterr().out
